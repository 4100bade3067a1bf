"""The benchmark's four workloads, their inputs and their correctness gates.

Each workload builds its inputs from the seed in `setup`, lists the timed
steps of one pass in `steps`, and checks a pass's outputs in `check`,
outside the timed section. Library calls go through module attributes
(`cli.main`, `orders.run_stream`, ...) so that a tracer patching those
attributes sees them. Expected counts are derived here from the workload parameters, not
read back from the library.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from lislab import cli, codes, core, orders, robp, type1, type2

SUITE_SCALES = (2, 4, 8)
TYPE2_COUNT = 50
TYPE2_EQUAL_SAMPLE = 2000
GEN_N = 384
GEN_PQ = 10
STREAM_CODE_N = 256
STREAM_N = 1024
BANDS = (32, 32)
BP_N, BP_M = 8, 4

LAB_SUITES = (
    ("oracles", {"count": 10_000}),
    ("type1", {"n": 64}),
    ("grid", {"count": 500}),
    ("distinguisher", {"count": 200}),
    ("family", {"n": 10, "m": 1000, "k": 2, "count": 8, "budget": 100_000}),
    ("fooling", {"n": 64, "count": 100}),
    ("random-order", {"n": 128, "count": 1000}),
    ("es", {}),
)


class Gate:
    """Counts correctness checks; a failed check is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.raised = False
        self._first: dict[str, str] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same_as_first(self, key: str, digest: str) -> None:
        """Check that `key` hashes the same on every pass of this run."""
        first = self._first.setdefault(key, digest)
        self.check(digest == first, f"{key}: digest {digest[:12]} != first {first[:12]}")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _prime_at_least(n: int) -> int:
    p = max(2, n)
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


def _lis(values) -> int:
    """Strict LIS length by patience piles; the benchmark's own oracle."""
    tops: list[int] = []
    for v in values:
        spot = bisect.bisect_left(tops, v)
        tops[spot:spot + 1] = [v]
    return len(tops)


def _path_weight(matrix) -> int:
    """Max 1-count over monotone (1,1)->(rows,cols) paths, plain DP."""
    best = [0] * len(matrix[0])
    for r, row in enumerate(matrix):
        for c, cell in enumerate(row):
            if r == 0 and c == 0:
                best[c] = cell
            elif r == 0:
                best[c] = best[c - 1] + cell
            elif c > 0:
                best[c] = max(best[c], best[c - 1]) + cell
            else:
                best[c] += cell
    return best[-1]


def _type2_bounds(p: int, q: int) -> tuple[int, int]:
    """(equal-pair weight ceiling, distinct-pair weight floor) of a p x q grid."""
    ceiling = 4 * p + 6 * q + min(p, q)
    return ceiling, ceiling - 3 + (p * q) // (16 * (p + q))


def _type1_code_size(n: int) -> int:
    # gap_code(n): words of length n/4, log size max(4, ceil(n/32))
    return 2 ** max(4, math.ceil(n / 4 / 8))


def _grid_inner_size(p: int, q: int) -> int:
    # grid_inner_code(p, q): log size max(ceil(p/8), min(bits(prime - 1), p))
    hosted = max(1, (_prime_at_least(q) - 1).bit_length())
    return 2 ** max(math.ceil(p / 8), min(hosted, p))


def _report_text(report: dict) -> bytes:
    stable = {k: v for k, v in report.items() if k != "runtime_seconds"}
    return cli.render_json(stable).encode("ascii")


def check_report(gate: Gate, report: dict, rows: list[tuple[str, int]]) -> None:
    """A verify report passed, has exactly the expected rows and counts,
    and is byte-stable (modulo runtime) across the run's passes."""
    suite = report["suite"]
    got = [(row["check"], row["count"]) for row in report["checks"]]
    gate.check(report["passed"] is True, f"{suite}: report did not pass")
    gate.check(got == rows, f"{suite}: rows {got} != expected {rows}")
    gate.check(
        all(row["violations"] == 0 for row in report["checks"]),
        f"{suite}: nonzero violations",
    )
    gate.same_as_first(f"verify {suite}", _digest(_report_text(report)))


def type2_rows(count: int, equal_sample: int) -> list[tuple[str, int]]:
    """Rows of the type-2 sweep: the equal pairs of the Reed-Solomon outer
    code (prime^(s//2) words at scale s, at most `equal_sample` of them),
    then `count` sampled distinct pairs."""
    rows = []
    for s in SUITE_SCALES:
        size = _prime_at_least(s) ** max(1, s // 2)
        rows.append((f"equal-weight-ceiling-pq{s}", min(size, equal_sample)))
        rows.append((f"distinct-weight-floor-pq{s}", count))
    return rows


def lab_rows(name: str, params: dict) -> list[tuple[str, int]]:
    if name == "oracles":
        return [("random-triple-agreement", params["count"]),
                ("permutation-triple-agreement", math.factorial(5))]
    if name == "type1":
        size = _type1_code_size(params["n"])
        return [("equal-pairs-reach-floor", size),
                ("distinct-pairs-capped", math.comb(size, 2))]
    if name == "grid":
        # squared outer sizes summed over the (p, q) in [1,3]^2 that build;
        # (1, 3) has no outer code and is skipped by the suite
        return [("random-matrices", params["count"]), ("constructed-grids", 42)]
    if name == "distinguisher":
        return [(f"padded-pairs-n{n}", params["count"]) for n in (5, 10, 15)]
    if name == "family":
        return [("separated-family", params["count"]),
                ("doubled-family-still-separated", params["count"])]
    if name == "fooling":
        size = _type1_code_size(params["n"])
        return [("diagonal-certificate", size), ("no-invalid-outcomes", size * size),
                ("monotone-chains", params["count"])]
    if name == "random-order":
        return [("interleaving-witness-rate", params["count"])]
    if name == "es":
        return [("monotone-witness", math.factorial(5))]
    raise ValueError(f"no expected rows for suite {name!r}")


@dataclass
class Workload:
    """Base: subclasses fill in setup, steps, check, items and selfcheck.

    A pass runs `steps()` in order; each step is timed on its own and
    followed by calibration probes (see worker.py).
    """

    seed: int = 0
    workdir: str = ""

    def setup(self) -> None:
        pass

    def steps(self) -> list[tuple[str, Callable]]:
        raise NotImplementedError

    def check(self, gate: Gate, outputs: list) -> None:
        """Check one pass's step outputs."""
        raise NotImplementedError

    def items(self, outputs: list) -> int:
        """Items the pass actually did, counted from its outputs."""
        raise NotImplementedError

    def expected_items(self) -> int:
        raise NotImplementedError

    def selfcheck(self) -> list[tuple[tuple[str, ...], int]]:
        """(metric names whose per-pass sum is checked, expected value)."""
        return []


def _cli(argv: list[str]) -> tuple[int, list[str]]:
    """In-process `lislab ARGV`: exit code and the words it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = cli.main(argv)
    return code, printed.getvalue().split()


def _suite(name: str, params: dict) -> dict:
    return cli.run_suite(name, **params)


class Type2Sweep(Workload):
    """The pair checks of `verify type2`, sampled and in short steps.

    `run_suite("type2")` is one call of about 10 s, too long for the
    per-step minimum to filter machine interference. So the benchmark makes
    the suite's `pair_weight` calls itself, on the suite's codes and
    sampled distinct pairs, in chunks; at p=q=8 it takes a seeded sample of
    the 14,641 equal pairs, so that a pass takes about a second.
    """

    CHUNK = 500

    def setup(self) -> None:
        self.rows = type2_rows(TYPE2_COUNT, TYPE2_EQUAL_SAMPLE)
        rng = random.Random(self.seed)
        self.scales = []
        for s in SUITE_SCALES:
            inner, outer = type2.grid_codes(s, s, self.seed)
            words = outer.codewords
            if len(words) > TYPE2_EQUAL_SAMPLE:
                words = [words[i] for i in sorted(rng.sample(range(len(words)),
                                                             TYPE2_EQUAL_SAMPLE))]
            distinct = [codes.sample_distinct_pair(outer, self.seed + i)
                        for i in range(TYPE2_COUNT)]
            self.scales.append((s, inner, [(u, u) for u in words], distinct))

    @staticmethod
    def _weights(inner, pairs):
        return inner, pairs, [type2.pair_weight(u, v, inner) for u, v in pairs]

    def steps(self):
        steps = []
        for s, inner, equal, distinct in self.scales:
            for k in range(0, len(equal), self.CHUNK):
                chunk = equal[k:k + self.CHUNK]
                steps.append((f"equal pq{s} @{k}", functools.partial(self._weights, inner, chunk)))
            steps.append((f"distinct pq{s}", functools.partial(self._weights, inner, distinct)))
        return steps

    def check(self, gate: Gate, outputs) -> None:
        counts: dict[str, int] = {}
        for (label, _), (inner, pairs, weights) in zip(self.steps(), outputs):
            kind, scale = label.split()[:2]
            row = f"{kind}-weight-{'ceiling' if kind == 'equal' else 'floor'}-{scale}"
            counts[row] = counts.get(row, 0) + len(weights)
            ceiling, floor = _type2_bounds(int(scale[2:]), int(scale[2:]))
            bad = [w for w in weights if (w > ceiling if kind == "equal" else w < floor)]
            gate.check(not bad, f"{label}: weights {bad[:5]} outside the {row} bound")
            u, v = pairs[0]
            matrix = type2.matrix_array(u, v, inner).tolist()
            gate.check(_path_weight(matrix) == weights[0],
                       f"{label}: pair_weight {weights[0]} != path DP {_path_weight(matrix)}")
        gate.check(list(counts.items()) == self.rows, f"type2 rows {counts} != {self.rows}")
        weights = [w for _, _, ws in outputs for w in ws]
        gate.same_as_first("type2 weights", _digest(repr(weights).encode()))

    def items(self, outputs) -> int:
        return sum(len(weights) for _, _, weights in outputs)

    def expected_items(self) -> int:
        return sum(count for _, count in self.rows)

    def selfcheck(self):
        return [(("type2.pair_weight.calls",), self.expected_items())]


class GenReach(Workload):
    def setup(self) -> None:
        self.out = os.path.join(self.workdir, "gen")
        s = self.seed
        self.argvs = (
            ["gen", "type1", "--n", str(GEN_N), "--seed", str(s), "--out", self.out],
            ["gen", "type2", "--p", str(GEN_PQ), "--q", str(GEN_PQ),
             "--seed", str(s), "--out", self.out],
        )
        t1, t2 = f"type1_n{GEN_N}_seed{s}", f"type2_p{GEN_PQ}_q{GEN_PQ}_seed{s}"
        self.t1, self.t2 = t1, t2
        self.names = sorted([f"{t1}_zuv.txt", f"{t1}_zvu.txt", f"{t1}.json",
                             f"{t2}_matrix.txt", f"{t2}_sigma.txt", f"{t2}.json"])

    def steps(self):
        return [(" ".join(argv[:2]), functools.partial(_cli, argv)) for argv in self.argvs]

    def _read(self, name: str) -> bytes:
        with open(os.path.join(self.out, name), "rb") as handle:
            return handle.read()

    def check(self, gate: Gate, outputs) -> None:
        exit_codes = [code for code, _ in outputs]
        gate.check(exit_codes == [0, 0], f"gen exit codes {exit_codes}")
        names = sorted(os.path.basename(p) for _, paths in outputs for p in paths)
        gate.check(names == self.names, f"gen wrote {names}")
        blobs = {name: self._read(name) for name in self.names}
        for name, blob in blobs.items():
            gate.same_as_first(f"artifact {name}", _digest(blob))

        side1 = json.loads(blobs[f"{self.t1}.json"])
        lo = 15 * GEN_N // 32 + 1
        gate.check(side1["bounds"] == [GEN_N // 2, lo], f"type1 bounds {side1['bounds']}")
        gate.check(side1["u"] != side1["v"], "type1 pair is not distinct")
        lis = [_lis(int(t) for t in blobs[f"{self.t1}_{o}.txt"].split())
               for o in ("zuv", "zvu")]
        gate.check(min(lis) <= lo, f"type1 distinct pair lis {lis} above {lo}")

        side2 = json.loads(blobs[f"{self.t2}.json"])
        ceiling, floor = _type2_bounds(GEN_PQ, GEN_PQ)
        gate.check((side2["equal_ceiling"], side2["distinct_floor"]) == (ceiling, floor),
                   f"type2 bounds {side2['equal_ceiling']}, {side2['distinct_floor']}")
        if side2["u"] == side2["v"]:
            gate.check(side2["weight"] <= ceiling, f"equal pair weight {side2['weight']}")
        else:
            gate.check(side2["weight"] >= floor, f"distinct pair weight {side2['weight']}")
        rows = blobs[f"{self.t2}_matrix.txt"].decode("ascii").split()[2:]
        weight = _path_weight([[int(ch) for ch in row] for row in rows])
        gate.check(weight == side2["weight"], f"sidecar weight {side2['weight']} != {weight}")

    def items(self, outputs) -> int:
        return sum(os.path.isfile(p) for _, paths in outputs for p in paths)

    def expected_items(self) -> int:
        return len(self.names)

    def selfcheck(self):
        words = [_type1_code_size(GEN_N), _grid_inner_size(GEN_PQ, GEN_PQ)]
        return [(("codes.min_distance.pairs",), sum(math.comb(w, 2) for w in words))]


class StreamMeter(Workload):
    PASSES = {"StoreAll": 1, "NaturalOrderPatience": 2}

    def setup(self) -> None:
        code = type1.gap_code(STREAM_CODE_N, self.seed)
        u, v = codes.sample_distinct_pair(code, self.seed)
        self.gadget = type1.build_z(u, v)
        self.m = len(self.gadget.z_uv.symbols) // 2
        self.lis: dict[tuple[int, ...], int] = {}  # lis_dp by input, for the checks

    def _embedded(self, order):
        witness = orders.type1_witness(order, self.m)
        return type1.embed_in_order(self.gadget, order, witness)

    def _oddeven(self):
        order = orders.oddeven_order(STREAM_N)
        self.x_oddeven = self._embedded(order)
        self.current = order, self.x_oddeven
        return self.current

    def _random(self):
        order = orders.random_order(STREAM_N, self.seed)
        self.current = order, self._embedded(order)
        return self.current

    def _banded(self):
        # a type-2 order: it has no type-1 witness of this size, so it
        # streams the input embedded for the odd-even order
        order, _ = orders.banded_order(*BANDS)
        self.current = order, self.x_oddeven
        return self.current

    def _stream(self, algorithm: str):
        order, x = self.current
        return orders.run_stream(getattr(orders, algorithm)(), x, order,
                                 self.PASSES[algorithm])

    def steps(self):
        # per order: build it (and embed the gadget), then one step per baseline
        steps = []
        for label, build in (("oddeven", self._oddeven), ("random", self._random),
                             ("banded", self._banded)):
            steps.append((f"{label} order", build))
            steps += [(f"{label} {alg}", functools.partial(self._stream, alg))
                      for alg in self.PASSES]
        return steps

    def _runs(self, outputs):
        """(label, x, StoreAll run, NaturalOrderPatience run) per order."""
        labels = ("oddeven", "random", "banded")
        return [(label, outputs[3 * i][1], outputs[3 * i + 1], outputs[3 * i + 2])
                for i, label in enumerate(labels)]

    def check(self, gate: Gate, outputs) -> None:
        for label, x, store, piles in self._runs(outputs):
            if x.symbols not in self.lis:
                self.lis[x.symbols] = core.lis_dp(x)
            want = self.lis[x.symbols]
            gate.check(store.output == want, f"{label}: StoreAll {store.output} != lis_dp {want}")
            width = max(1, x.alphabet_bound.bit_length())
            bits = 8 * math.ceil((STREAM_N + STREAM_N * width) / 8)
            gate.check(store.max_state_bits == bits,
                       f"{label}: StoreAll state {store.max_state_bits} bits != {bits}")
            gate.check(
                (store.passes_used, piles.passes_used) == tuple(self.PASSES.values()),
                f"{label}: passes {store.passes_used}, {piles.passes_used}",
            )

    def items(self, outputs) -> int:
        return sum(len(x.symbols) * (s.passes_used + p.passes_used)
                   for _, x, s, p in self._runs(outputs))

    def expected_items(self) -> int:
        return 3 * STREAM_N * sum(self.PASSES.values())

    def selfcheck(self):
        # the meter serializes once after init and once after every item and
        # every end of pass
        calls = 3 * sum(p * (STREAM_N + 1) + 1 for p in self.PASSES.values())
        return [(("orders.StoreAll.state_bytes.calls",
                  "orders.NaturalOrderPatience.state_bytes.calls"), calls)]


class LabSuites(Workload):
    def setup(self) -> None:
        self.program = os.path.join(self.workdir, "streaming_lis_8_4.json")
        robp.write_program_file(self.program, robp.streaming_lis_program(BP_N, BP_M))
        self.suites = [
            (name, params if name == "es" else dict(params, seed=self.seed))
            for name, params in LAB_SUITES
        ]

    def steps(self):
        steps = [(f"verify {name}", functools.partial(_suite, name, params))
                 for name, params in self.suites]
        argv = ["bp-check", self.program, "--n", str(BP_N), "--m", str(BP_M)]
        return steps + [("bp-check", functools.partial(_cli, argv))]

    def check(self, gate: Gate, outputs) -> None:
        *reports, (code, words) = outputs
        for (name, params), report in zip(self.suites, reports):
            check_report(gate, report, lab_rows(name, params))
        gate.check(code == 0, f"bp-check exit code {code}")
        gate.check({"read_once=yes", "computes_lis=yes"} <= set(words),
                   f"bp-check printed {words}")

    def items(self, outputs) -> int:
        *reports, (code, words) = outputs
        checked = BP_M ** BP_N if "computes_lis=yes" in words else 0
        return sum(row["count"] for r in reports for row in r["checks"]) + checked

    def expected_items(self) -> int:
        rows = sum(c for name, params in self.suites for _, c in lab_rows(name, params))
        return rows + BP_M ** BP_N


WORKLOADS = {
    "type2-sweep": Type2Sweep,
    "gen-reach": GenReach,
    "stream-meter": StreamMeter,
    "lab-suites": LabSuites,
}


def make(name: str, seed: int, workdir: str) -> Workload:
    workload = WORKLOADS[name](seed=seed, workdir=workdir)
    workload.setup()
    return workload
