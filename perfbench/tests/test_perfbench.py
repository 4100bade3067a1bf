"""Tests of the benchmark's own code: names, self time, patching, gates.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads
from lislab import cli, codes, core, fooling, orders, type2

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = _benchmark_json()
    layer_names = tracer.metric_names()
    for name in layer_names + list(run.END_TO_END):
        assert NAME.fullmatch(name), name
    assert len(set(layer_names)) == len(layer_names)
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run._layer_unit(metric["name"])


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("leaf", 8.0, 9.0, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children that overlap, or stick out of the parent, cover only the union
    # of their intervals inside the parent
    spans = [
        ("p", 0.0, 10.0, -1),
        ("c1", 1.0, 4.0, 0),
        ("c2", 3.0, 6.0, 0),
        ("c3", 9.0, 12.0, 0),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        "pair_weight": type2.pair_weight,
        "lis_patience": core.lis_patience,
    }
    homes = {
        "pair_weight": (cli, fooling, type2),
        "lis_patience": (cli, fooling, type2, orders, core),
    }
    with tracer.Tracer() as tr:
        for attr, modules in homes.items():
            bound = {id(getattr(m, attr)) for m in modules}
            assert len(bound) == 1, attr
            assert getattr(modules[0], attr) is not originals[attr]
            assert getattr(modules[0], attr).__wrapped__ is originals[attr]
        inner = codes.gen_inner_binary(4, 1, min_log_size=2, seed=0)
        word = (0, 1)
        cli.pair_weight(word, word, inner)
        fooling.pair_weight(word, word, inner)
    for attr, modules in homes.items():
        assert all(getattr(m, attr) is originals[attr] for m in modules)
    layers = tr.metrics(passes=1)
    assert layers["type2.pair_weight.calls"] == 2
    assert layers["type2.matrix_array.calls"] == 2
    assert layers["type2.pair_weight.dp_cells"] == 2 * (9 * 4) * (8 * 2)
    assert "lislab.cli.pair_weight" in tr.bindings()


def test_tracer_counts_errors_and_reraises():
    from lislab.robp import DistinguisherError

    calls = []

    def failing(*args):
        calls.append(args)
        raise DistinguisherError("no separation", None, None)

    target = tracer.Target("robp", "build_distinguisher",
                           on_error=tracer._count_distinguisher_failure)
    tr = tracer.Tracer()
    wrapped = tr._wrap(target, failing)
    with pytest.raises(DistinguisherError):
        wrapped(1, 2)
    assert tr.counts["robp.build_distinguisher.failed"] == 1
    assert tr.spans[0][0] == "robp.build_distinguisher"


def test_gate_records_a_bad_report_instead_of_raising():
    gate = workloads.Gate()
    report = cli.run_suite("es")
    workloads.check_report(gate, report, workloads.lab_rows("es", {}))
    assert gate.failures == []
    report["passed"] = False
    report["checks"][0]["count"] = 119
    workloads.check_report(gate, report, workloads.lab_rows("es", {}))
    assert len(gate.failures) == 3  # passed, rows, digest
    assert gate.attempted == 8


class _Raising(workloads.Workload):
    def steps(self):
        return [("boom", self._boom)]

    def _boom(self):
        raise RuntimeError("boom")


def test_a_raising_pass_is_one_failed_check_and_ends_the_run():
    gate = workloads.Gate()
    passes = worker.run_passes(_Raising(), gate, seconds=5, min_passes=3, probes=[])
    assert len(passes) == 1
    assert gate.attempted == 1 and gate.raised
    gate = workloads.Gate()
    result = worker.traced_run(_Raising(), gate, seconds=5, probes=[])
    assert len(result["traced_passes"]) == 1
    assert gate.attempted == 2 and len(gate.failures) == 2


REDUCED = {
    "gen-reach": {"GEN_N": 64, "GEN_PQ": 7},
    "stream-meter": {"STREAM_CODE_N": 32, "STREAM_N": 128, "BANDS": (4, 32)},
    "lab-suites": {
        "LAB_SUITES": (
            ("oracles", {"count": 50}),
            ("type1", {"n": 64}),
            ("grid", {"count": 20}),
            ("distinguisher", {"count": 5}),
            ("family", {"n": 10, "m": 1000, "k": 2, "count": 3, "budget": 1000}),
            ("fooling", {"n": 64, "count": 5}),
            ("random-order", {"n": 128, "count": 20}),
            ("es", {}),
        ),
        "BP_N": 4,
        "BP_M": 3,
    },
    "type2-sweep": {"TYPE2_COUNT": 5, "TYPE2_EQUAL_SAMPLE": 50, "SUITE_SCALES": (2, 8)},
}


@pytest.mark.parametrize("name", list(REDUCED))
def test_reduced_smoke_run_passes_its_gate(name, tmp_path, monkeypatch):
    for attr, value in REDUCED[name].items():
        monkeypatch.setattr(workloads, attr, value)
    workload = workloads.make(name, seed=3, workdir=str(tmp_path))
    gate = workloads.Gate()
    walls = worker.run_passes(workload, gate, seconds=0, min_passes=2, probes=[])
    assert len(walls) == 2
    assert gate.failures == []
    assert gate.attempted > 0
    tr = tracer.Tracer()
    worker.run_passes(workload, gate, seconds=0, min_passes=1, probes=[],
                      around=lambda: tr)
    layers = tr.metrics(passes=1)
    for names, want in workload.selfcheck():
        assert sum(layers[n] for n in names) == want, names
    assert gate.failures == []


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab-suites",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
