"""Acceptance gate: one test per headline guarantee, stated budgets enforced.

Each test reruns the relevant verification suite (or a direct sweep) at the
advertised scale, asserts zero violations, and checks the wall-clock budget.
A passing test prints one summary line; the line only appears when every
assert before it held.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time

from lislab.cli import main, run_suite
from lislab.core import Sequence, lis_dp
from lislab.orders import (
    NaturalOrderPatience,
    StoreAll,
    identity_order,
    oddeven_order,
    random_order,
    run_stream,
)
from lislab.type1 import disj_gadget, gap_code
from lislab.type2 import key_case


def _done(label: str, report: dict) -> None:
    rows = ", ".join(
        f"{row['check']}={row['count']}ok" for row in report["checks"]
    )
    print(f"PASS {label}: {rows} in {report['runtime_seconds']}s")


def test_oracle_triple_agreement():
    report = run_suite("oracles", count=10_000, seed=0)
    assert report["passed"], report
    assert report["runtime_seconds"] < 5.0
    _done("oracle agreement", report)


def test_type1_gap_at_n64():
    code = gap_code(64, 0)
    assert code.length == 16
    assert code.verified_distance >= 4
    assert code.size >= 16
    report = run_suite("type1", n=64, seed=0)
    assert report["passed"], report
    assert report["runtime_seconds"] < 10.0
    _done("type-1 gap", report)


def test_grid_equivalence_sweep():
    report = run_suite("grid", count=500, seed=0)
    assert report["passed"], report
    rate = report["checks"][0]["detail"]["plus_one_rate"]
    assert 0.0 <= rate <= 1.0
    assert report["runtime_seconds"] < 30.0
    _done(f"grid equivalence (off-by-one rate {rate})", report)


def test_type2_weight_bounds():
    report = run_suite("type2", count=50, seed=0)
    assert report["passed"], report
    assert report["runtime_seconds"] < 120.0
    _done("type-2 weight bounds", report)


def test_key_case_weights():
    weights = {}
    for a_bit, b_bit in itertools.product((0, 1), repeat=2):
        case = key_case(a_bit, b_bit)
        weights[(a_bit, b_bit)] = (case.max_weight, a_bit == b_bit)
    assert weights == {
        (0, 0): (5, True),
        (1, 1): (5, True),
        (0, 1): (6, False),
        (1, 0): (6, False),
    }
    print("PASS key cases: equal pairs weigh 5, unequal weigh 6, all 4 cases")


def test_distinguisher_padding():
    report = run_suite("distinguisher", count=200, seed=0)
    assert report["passed"], report
    for row in report["checks"]:
        assert row["violations"] == 0
    _done("distinguisher padding", report)


def test_separated_family_search():
    report = run_suite("family", n=10, m=1000, k=2, count=8, budget=100_000, seed=0)
    assert report["passed"], report
    assert report["checks"][0]["count"] >= 8
    assert report["runtime_seconds"] < 10.0
    _done("separated family", report)


def test_disjointness_gadget_all_pairs():
    m, k = 4, 2
    supports = list(itertools.combinations(range(1, m + 1), k))
    assert len(supports) == 6
    checked = 0
    for a in supports:
        for b in supports:
            bits_a = tuple(1 if i in a else 0 for i in range(1, m + 1))
            bits_b = tuple(1 if i in b else 0 for i in range(1, m + 1))
            seq = disj_gadget(bits_a, bits_b)
            disjoint = not set(a) & set(b)
            assert (lis_dp(seq) == 2 * k + 1) == disjoint, (a, b)
            checked += 1
    assert checked == 36
    print("PASS disjointness gadget: lis threshold matches on all 36 pairs")


def test_monotone_witness_all_short_perms():
    report = run_suite("es")
    assert report["passed"], report
    assert report["checks"][0]["count"] == 120
    _done("monotone witnesses", report)


def test_random_order_witness_rate():
    report = run_suite("random-order", n=128, count=1000, seed=0)
    assert report["passed"], report
    rate = report["checks"][0]["detail"]["hit_rate"]
    assert rate >= 0.99
    assert report["runtime_seconds"] < 10.0
    _done(f"random-order witnesses (hit rate {rate})", report)


def test_fooling_certificate_and_chains():
    report = run_suite("fooling", n=64, count=100, seed=0)
    assert report["passed"], report
    diagonal = report["checks"][0]
    assert diagonal["detail"]["bound_bits"] >= 4
    assert diagonal["detail"]["mode"] == "exhaustive"
    _done("fooling certificate", report)


def test_generator_determinism(tmp_path):
    kinds = (
        ["gen", "type1", "--n", "64", "--seed", "9"],
        ["gen", "type2", "--p", "2", "--q", "2", "--seed", "9"],
        ["gen", "disj", "--m", "4", "--k", "2", "--seed", "9"],
        ["gen", "family", "--seed", "9"],
    )
    for argv in kinds:
        dirs = []
        for run in ("first", "second"):
            out = tmp_path / argv[1] / run
            assert main(list(argv) + ["--out", str(out)]) == 0
            dirs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert dirs[0] == dirs[1], f"non-deterministic artifacts for {argv[1]}"
        sidecars = [name for name in dirs[0] if name.endswith(".json")]
        assert sidecars and json.loads(dirs[0][sidecars[0]])
    print("PASS determinism: all four generators reproduce byte-identical output")


# sha256 of every artifact, pinned from the release before the array kernels
# of the code layer, so that byte-identity across rewrites is checked here
# and not only run against run
GOLDEN_ARTIFACTS = {
    ("type1", "--n", "128", "--seed", "5"): {
        "type1_n128_seed5.json": "a54f9aa856f3a984749d2c805da248c0db4acdcbe60eb8eb7b080111ae3551d1",
        "type1_n128_seed5_zuv.txt": "d1c45448adc8273810894a2a40f065d297f122a90b8ce90eafb9a10a1afee4e0",
        "type1_n128_seed5_zvu.txt": "f01933db6fee1ba50f541aa898350e75a200b94d34348e5fdfe061b78b5c74c0",
    },
    ("type2", "--p", "8", "--q", "8", "--seed", "5"): {
        "type2_p8_q8_seed5.json": "1e654a6be36d2ad58f6f5fd51560ac58061896bc4507dca42e4f7cb8b1c77c3d",
        "type2_p8_q8_seed5_matrix.txt": "fe5b86f4614217e846e4b168aec8b505d02717d3956796b755b1adceeb765b2e",
        "type2_p8_q8_seed5_sigma.txt": "5a7fb5d76e02f135deb8a7ab217751f1831ee4008f7731ed4d8532f9008964c4",
    },
}


def test_generator_golden_digests(tmp_path):
    for argv, want in GOLDEN_ARTIFACTS.items():
        out = tmp_path / argv[0]
        assert main(["gen", *argv, "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == want, f"artifacts of gen {' '.join(argv)} changed"
    print("PASS golden digests: gen type1 n=128 and type2 p=q=8 match the pinned bytes")


def test_metered_stream_at_n8192():
    n, bound = 8192, 1000
    rng = random.Random(8192)
    x = Sequence(tuple(rng.randint(0, bound) for _ in range(n)), bound)
    start = time.perf_counter()
    want = run_stream(NaturalOrderPatience(), x, identity_order(n)).output
    bits = 8 * math.ceil((n + 10 * n) / 8)
    assert bits == 90_112
    for order in (random_order(n, 0), oddeven_order(n)):
        store = run_stream(StoreAll(), x, order)
        assert store.output == want
        assert store.max_state_bits == bits
        assert run_stream(NaturalOrderPatience(), x, order, passes=2).passes_used == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS metered stream: StoreAll exact at n={n} in {bits} bits over 2 orders "
          f"in {elapsed:.2f}s")
