"""Command-line front door: generators, verification suites, reports.

Four commands. `lis FILE` prints the basic statistics of one sequence.
`gen` materializes gadget instances with a JSON sidecar describing what
they were built from. `verify` runs one of the named property suites and
emits a JSON or CSV report whose exit code mirrors the verdict. `bp-check`
validates a branching-program file. Every randomized path takes a seed and
re-running with the same parameters reproduces artifacts byte for byte;
report runtime lives in its own field so the rest of the report is stable
too.

Suites deliberately re-derive their expectations from the oracle modules
rather than trusting the constructions: sweeps compare against lis_dp or
exhaustive path enumeration and report violation counts, so a broken
construction turns into a counted failure rather than a crash.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import random
import sys
import time

from .codes import CodeError, sample_distinct_pair
from .core import (
    INC,
    IndexSet,
    Sequence,
    distance_to_monotonicity,
    es_witness,
    lds,
    lis_dp,
    lis_exhaustive,
    lis_patience,
    read_sequence_file,
    write_sequence_file,
)
from .fooling import INVALID, check_fooling_set, type1_game
from .orders import random_order, type1_witness
from .robp import (
    DistinguisherError,
    FamilySearchError,
    build_distinguisher,
    check_computes_lis,
    check_read_once,
    doubled_family,
    read_program_file,
    search_separated_family,
    verify_separated_family,
)
from .type1 import build_z, disj_gadget, gap_code, instance_sidecar, type1_gap
from .type2 import (
    build_matrix,
    chain_length_bound,
    grid_codes,
    lis_equals_max_path_check,
    matrix_chain,
    pair_weight,
    type2_bounds,
    write_matrix_file,
)

__all__ = ["main", "run_suite", "SUITE_NAMES"]


# the integer flags `gen` and `verify` share
_SHARED_FLAGS = ("n", "m", "p", "q", "k", "R", "count", "budget", "seed")

# the flags each `gen` kind takes besides --seed, with their defaults
_GEN_DEFAULTS = {
    "type1": {"n": 64},
    "type2": {"p": 2, "q": 2},
    "disj": {"m": 4, "k": 2},
    "family": {"n": 10, "m": 1000, "k": 2, "count": 8, "budget": 100_000},
}


def _row(check: str, passed: bool, count: int, violations: int, **detail) -> dict:
    out = {
        "check": check,
        "passed": bool(passed),
        "count": count,
        "violations": violations,
    }
    if detail:
        out["detail"] = detail
    return out


def _suite_oracles(count: int = 10_000, seed: int = 0):
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        n = rng.randint(0, 15)
        bound = rng.randint(1, 8)
        seq = Sequence(tuple(rng.randint(0, bound) for _ in range(n)), bound)
        a = lis_patience(seq)[0]
        if a != lis_dp(seq) or a != lis_exhaustive(seq):
            bad += 1
    perm_bad = 0
    for perm in itertools.permutations(range(1, 6)):
        seq = Sequence(perm, 5)
        a = lis_patience(seq)[0]
        if a != lis_dp(seq) or a != lis_exhaustive(seq):
            perm_bad += 1
    checks = [
        _row("random-triple-agreement", bad == 0, count, bad),
        _row("permutation-triple-agreement", perm_bad == 0, 120, perm_bad),
    ]
    return checks, {"count": count, "seed": seed}


def _suite_type1(n: int = 64, seed: int = 0):
    code = gap_code(n, seed)
    hi, lo = type1_gap(n)
    equal_bad = sum(
        1 for u in code.codewords if lis_patience(build_z(u, u).z_uv)[0] < hi
    )
    pair_bad = pairs = 0
    for u, v in itertools.combinations(code.codewords, 2):
        pairs += 1
        inst = build_z(u, v)
        forward = lis_patience(inst.z_uv)[0]
        backward = lis_patience(inst.z_vu)[0]
        if min(forward, backward) > lo:
            pair_bad += 1
    checks = [
        _row("equal-pairs-reach-floor", equal_bad == 0, code.size, equal_bad),
        _row("distinct-pairs-capped", pair_bad == 0, pairs, pair_bad),
    ]
    return checks, {"n": n, "seed": seed, "code_size": code.size}


def _suite_type2(count: int = 50, seed: int = 0):
    checks = []
    for scale in (2, 4, 8):
        inner, outer = grid_codes(scale, scale, seed)
        equal_ub, unequal_lb = type2_bounds(scale, scale)
        eq_bad = sum(
            1 for u in outer.codewords if pair_weight(u, u, inner) > equal_ub
        )
        dist_bad = 0
        for i in range(count):
            u, v = sample_distinct_pair(outer, seed + i)
            if pair_weight(u, v, inner) < unequal_lb:
                dist_bad += 1
        checks.append(
            _row(f"equal-weight-ceiling-pq{scale}", eq_bad == 0, outer.size, eq_bad)
        )
        checks.append(
            _row(f"distinct-weight-floor-pq{scale}", dist_bad == 0, count, dist_bad)
        )
    return checks, {"count": count, "seed": seed, "scales": [2, 4, 8]}


def _random_01_matrix(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    rows = rng.randint(1, 10)
    cols = rng.randint(1, 16)
    density = rng.choice((0.0, 0.15, 0.35, 0.6, 0.9))
    return tuple(
        tuple(1 if rng.random() < density else 0 for _ in range(cols))
        for _ in range(rows)
    )


def _suite_grid(count: int = 500, seed: int = 0):
    rng = random.Random(seed)
    matrices = [_random_01_matrix(rng) for _ in range(count)]
    reports = [lis_equals_max_path_check(m) for m in matrices]
    rand_bad = sum(1 for r in reports if not r.passed)
    plus_one = sum(1 for r in reports if r.lis_full == r.weight + 1)

    built = built_bad = 0
    skipped = []
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            try:
                inner, outer = grid_codes(p, q, seed)
            except CodeError:
                skipped.append([p, q])
                continue
            for u in outer.codewords:
                for v in outer.codewords:
                    built += 1
                    inst = build_matrix(u, v, inner)
                    if not lis_equals_max_path_check(inst.matrix).passed:
                        built_bad += 1
    checks = [
        _row(
            "random-matrices",
            rand_bad == 0,
            count,
            rand_bad,
            plus_one_rate=round(plus_one / max(1, count), 4),
        ),
        _row(
            "constructed-grids",
            built_bad == 0,
            built,
            built_bad,
            skipped_scales=skipped,
        ),
    ]
    return checks, {"count": count, "seed": seed}


def _disagreeing_triple(rng: random.Random, n: int, m: int):
    k = n // 5
    while True:
        x = tuple(sorted(rng.sample(range(1, m + 1), n)))
        y = tuple(sorted(rng.sample(range(1, m + 1), n)))
        s = IndexSet.of(rng.sample(range(1, n + 1), k))
        if any(x[i - 1] != y[i - 1] for i in s):
            return Sequence(x, m), Sequence(y, m), s


def _suite_distinguisher(count: int = 200, seed: int = 0):
    rng = random.Random(seed)
    checks = []
    for n in (5, 10, 15):
        m = 100 * n
        bad = 0
        for _ in range(count):
            x, y, s = _disagreeing_triple(rng, n, m)
            try:
                xt, yt = build_distinguisher(x, y, s)
            except DistinguisherError:
                bad += 1
                continue
            inside = set(s.indices)
            ok = abs(lis_dp(xt) - lis_dp(yt)) == 1
            for i in range(1, n + 1):
                if i in inside:
                    ok = ok and xt.at(i) == x.at(i) and yt.at(i) == y.at(i)
                else:
                    ok = ok and xt.at(i) == yt.at(i)
                ok = ok and 0 <= xt.at(i) <= m + 1 and 0 <= yt.at(i) <= m + 1
            if not ok:
                bad += 1
        checks.append(_row(f"padded-pairs-n{n}", bad == 0, count, bad))
    return checks, {"count": count, "seed": seed, "lengths": [5, 10, 15]}


def _suite_family(
    n: int = 10,
    m: int = 1000,
    k: int = 2,
    count: int = 8,
    budget: int = 100_000,
    seed: int = 0,
):
    try:
        family = search_separated_family(n, m, k, count, seed, budget)
    except FamilySearchError as exc:
        checks = [
            _row("separated-family", False, len(exc.family), 1, target=count)
        ]
        return checks, {"n": n, "m": m, "k": k, "count": count, "seed": seed}
    literal = verify_separated_family(family.sequences, k)
    even = verify_separated_family(doubled_family(family).sequences, k)
    checks = [
        _row(
            "separated-family",
            len(family) >= count and literal,
            len(family),
            0 if literal else 1,
            target=count,
        ),
        _row("doubled-family-still-separated", even, len(family), 0 if even else 1),
    ]
    return checks, {
        "n": n, "m": m, "k": k, "count": count, "budget": budget, "seed": seed,
    }


def _suite_fooling(n: int = 64, count: int = 100, seed: int = 0):
    game = type1_game(n, seed=seed)
    invalid = sum(
        1 for u in game.xs for v in game.ys if game(u, v) == INVALID
    )
    cert = check_fooling_set(game, [(u, u) for u in game.xs], 1, seed=seed)
    want_bits = max(0, (len(game.xs) - 1).bit_length())
    cert_ok = cert.valid and cert.bound_bits == want_bits and cert.bound_bits >= 4

    rng = random.Random(seed)
    rows = cols = 32
    chain_bad = 0
    floor = chain_length_bound(rows, cols)
    for _ in range(count):
        matrix = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            for i in rng.sample(range(rows), 8):
                matrix[i][j] = 1
        chain = matrix_chain(matrix)
        ok = len(chain) >= floor
        for (i1, j1), (i2, j2) in zip(chain, chain[1:]):
            ok = ok and i2 > i1 and j2 > j1
        ok = ok and all(matrix[i - 1][j - 1] == 1 for i, j in chain)
        if not ok:
            chain_bad += 1
    checks = [
        _row(
            "diagonal-certificate",
            cert_ok,
            cert.set_size,
            len(cert.violations),
            bound_bits=cert.bound_bits,
            mode=cert.mode,
        ),
        _row("no-invalid-outcomes", invalid == 0, len(game.xs) ** 2, invalid),
        _row("monotone-chains", chain_bad == 0, count, chain_bad, floor=floor),
    ]
    return checks, {"n": n, "count": count, "seed": seed}


def _suite_random_order(n: int = 128, count: int = 1000, seed: int = 0):
    m = max(1, n // 32)
    hits = 0
    for i in range(count):
        if type1_witness(random_order(n, seed + i), m) is not None:
            hits += 1
    passed = 100 * hits >= 99 * count
    checks = [
        _row(
            "interleaving-witness-rate",
            passed,
            count,
            count - hits,
            hit_rate=round(hits / max(1, count), 4),
            m=m,
        )
    ]
    return checks, {"n": n, "count": count, "seed": seed}


def _suite_es():
    bad = 0
    for perm in itertools.permutations(range(1, 6)):
        seq = Sequence(perm, 5)
        witness = es_witness(seq, 3, 3)
        values = [seq.at(i) for i in witness.indices]
        if len(values) != 3:
            bad += 1
        elif witness.direction == INC:
            if any(a >= b for a, b in zip(values, values[1:])):
                bad += 1
        elif any(a <= b for a, b in zip(values, values[1:])):
            bad += 1
    return [_row("monotone-witness", bad == 0, 120, bad)], {}


SUITES = {
    "oracles": _suite_oracles,
    "type1": _suite_type1,
    "type2": _suite_type2,
    "grid": _suite_grid,
    "distinguisher": _suite_distinguisher,
    "family": _suite_family,
    "fooling": _suite_fooling,
    "random-order": _suite_random_order,
    "es": _suite_es,
}
SUITE_NAMES = tuple(sorted(SUITES))


def run_suite(name: str, **params) -> dict:
    """Run one verification suite; the dict is the CLI's JSON report."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    fn = SUITES[name]
    allowed = set(inspect.signature(fn).parameters)
    extra = set(params) - allowed
    if extra:
        raise ValueError(
            f"suite {name} does not take {sorted(extra)}; allowed: {sorted(allowed)}"
        )
    start = time.perf_counter()
    checks, effective = fn(**params)
    return {
        "suite": name,
        "params": effective,
        "checks": checks,
        "passed": all(row["passed"] for row in checks),
        "runtime_seconds": round(time.perf_counter() - start, 3),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def render_csv(report: dict) -> str:
    lines = ["suite,check,passed,count,violations"]
    for row in report["checks"]:
        passed = "true" if row["passed"] else "false"
        lines.append(
            f"{report['suite']},{row['check']},{passed},{row['count']},{row['violations']}"
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def cmd_lis(args) -> int:
    seq = read_sequence_file(args.file)
    print(f"lis={lis_patience(seq)[0]}")
    print(f"lds={lds(seq)}")
    print(f"distance_to_monotonicity={distance_to_monotonicity(seq)}")
    return 0


def cmd_gen(args) -> int:
    taken = {"seed": 0, **_GEN_DEFAULTS[args.kind]}
    flags = vars(args)
    extra = [f for f in _SHARED_FLAGS if flags[f] is not None and f not in taken]
    if extra:
        raise ValueError(f"gen {args.kind} does not take {extra}; allowed: {sorted(taken)}")
    opt = {f: default if flags[f] is None else flags[f] for f, default in taken.items()}
    seed = opt["seed"]
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    def save(name: str, write, value) -> None:
        path = os.path.join(out_dir, name)
        write(path, value)
        written.append(path)

    if args.kind == "type1":
        n = opt["n"]
        code = gap_code(n, seed)
        u, v = sample_distinct_pair(code, seed)
        inst = build_z(u, v)
        stem = f"type1_n{n}_seed{seed}"
        save(f"{stem}_zuv.txt", write_sequence_file, inst.z_uv)
        save(f"{stem}_zvu.txt", write_sequence_file, inst.z_vu)
        sidecar = instance_sidecar(inst)
        sidecar.update(
            {
                "n": n,
                "seed": seed,
                "bounds": list(type1_gap(n)),
                "code": {"length": code.length, "size": code.size,
                         "distance": code.verified_distance},
            }
        )
        save(f"{stem}.json", _write_json, sidecar)
    elif args.kind == "type2":
        p, q = opt["p"], opt["q"]
        inner, outer = grid_codes(p, q, seed)
        u, v = sample_distinct_pair(outer, seed)
        inst = build_matrix(u, v, inner)
        stem = f"type2_p{p}_q{q}_seed{seed}"
        save(f"{stem}_matrix.txt", write_matrix_file, inst.matrix)
        save(f"{stem}_sigma.txt", write_sequence_file, inst.sigma)
        equal_ub, unequal_lb = type2_bounds(p, q)
        save(
            f"{stem}.json",
            _write_json,
            {
                "p": p, "q": q, "seed": seed,
                "u": list(u), "v": list(v),
                "rows": 9 * p, "cols": 8 * q,
                "weight": pair_weight(u, v, inner),
                "equal_ceiling": equal_ub,
                "distinct_floor": unequal_lb,
            },
        )
    elif args.kind == "disj":
        m, k = opt["m"], opt["k"]
        if k > m:
            raise ValueError(f"support size {k} exceeds universe {m}")
        rng = random.Random(seed)
        a_support = sorted(rng.sample(range(1, m + 1), k))
        b_support = sorted(rng.sample(range(1, m + 1), k))
        a_bits = tuple(1 if i in a_support else 0 for i in range(1, m + 1))
        b_bits = tuple(1 if i in b_support else 0 for i in range(1, m + 1))
        seq = disj_gadget(a_bits, b_bits)
        stem = f"disj_m{m}_k{k}_seed{seed}"
        save(f"{stem}.txt", write_sequence_file, seq)
        disjoint = not set(a_support) & set(b_support)
        save(
            f"{stem}.json",
            _write_json,
            {
                "m": m, "k": k, "seed": seed,
                "a": a_support, "b": b_support,
                "disjoint": disjoint,
                "lis": lis_dp(seq),
                "lis_matches_disjointness": (lis_dp(seq) == 2 * k + 1) == disjoint,
            },
        )
    else:  # family
        n, m, k, budget = opt["n"], opt["m"], opt["k"], opt["budget"]
        family = search_separated_family(n, m, k, opt["count"], seed, budget)
        stem = f"family_n{n}_m{m}_k{k}_seed{seed}"
        save(
            f"{stem}.json",
            _write_json,
            {
                "n": n, "m": m, "k": k, "seed": seed, "budget": budget,
                "size": len(family),
                "sequences": [list(s.symbols) for s in family.sequences],
            },
        )
    for path in written:
        print(path)
    return 0


def cmd_verify(args) -> int:
    flags = vars(args)  # run_suite rejects a set flag the suite does not take
    params = {f: flags[f] for f in _SHARED_FLAGS if flags[f] is not None}
    report = run_suite(args.suite, **params)
    text = render_csv(report) if args.format == "csv" else render_json(report)
    _emit(text, args.out)
    return 0 if report["passed"] else 1


def cmd_bp_check(args) -> int:
    bp = read_program_file(args.file)
    print(f"size={bp.size}")
    print(f"levels={len(bp.levels)}")
    print(f"r_way={bp.r_way}")
    print(f"n_inputs={bp.n_inputs}")
    read_once = check_read_once(bp)
    print(f"read_once={'yes' if read_once else 'no'}")
    ok = read_once
    if args.R is not None and bp.r_way != args.R:
        print(f"alphabet-mismatch: expected {args.R}")
        ok = False
    if args.n is not None and args.m is not None:
        computes = check_computes_lis(bp, args.n, args.m)
        print(f"computes_lis={'yes' if computes else 'no'}")
        ok = ok and computes
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lislab",
        description="Adversarial sequence constructions and their verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lis = sub.add_parser("lis", help="print lis/lds statistics of a sequence file")
    p_lis.add_argument("file")
    p_lis.set_defaults(func=cmd_lis)

    shared = argparse.ArgumentParser(add_help=False)
    for flag in _SHARED_FLAGS:
        shared.add_argument(f"--{flag}", type=int, default=None)
    shared.add_argument("--out", default=None)

    p_gen = sub.add_parser(
        "gen", parents=[shared], help="materialize a gadget instance plus sidecar"
    )
    p_gen.add_argument("kind", choices=tuple(_GEN_DEFAULTS))
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser(
        "verify", parents=[shared], help="run a verification suite"
    )
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_bp = sub.add_parser("bp-check", help="validate a branching-program file")
    p_bp.add_argument("file")
    for flag in ("R", "n", "m"):
        p_bp.add_argument(f"--{flag}", type=int, default=None)
    p_bp.set_defaults(func=cmd_bp_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
