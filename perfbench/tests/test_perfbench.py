"""Tests of the benchmark itself: self-time accounting, failure counting,
and a seconds-long smoke run of every workload.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/tests -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layers, "_perf", fake)
    return fake


def make_layers(clock):
    """outer (1 s own work) calls inner twice (2 s each) and leaf once
    (0.5 s); leaf is a classmethod inherited by Child."""

    class Base:
        @classmethod
        def leaf(cls):
            clock.now += 0.5
            return "leaf"

    class Child(Base):
        def inner(self):
            clock.now += 2.0

        def outer(self):
            clock.now += 1.0
            self.inner()
            self.inner()
            return self.leaf()

    return Base, Child


def test_nested_spans_subtract_their_children(clock):
    Base, Child = make_layers(clock)
    originals = (Child.__dict__["outer"], Child.__dict__["inner"])
    with layers.Tracer() as tracer:
        tracer.wrap(Child, "outer", "server.handle")
        tracer.wrap(Child, "inner", "sobol.stage")
        tracer.wrap(Child, "leaf", "kernels.fold")
        assert Child().outer() == "leaf"
        assert tracer.self_s == {
            "server.handle": 1.0, "sobol.stage": 4.0, "kernels.fold": 0.5,
        }
        assert tracer.calls == {
            "server.handle": 1, "sobol.stage": 2, "kernels.fold": 1,
        }
    # unwrapping restores own attributes and removes wraps of inherited ones
    assert (Child.__dict__["outer"], Child.__dict__["inner"]) == originals
    assert "leaf" not in Child.__dict__
    assert Child.leaf() == "leaf"


def test_self_times_and_unattributed_add_up_to_wall(clock):
    _, Child = make_layers(clock)
    with layers.Tracer() as tracer:
        tracer.wrap(Child, "outer", "server.handle")
        tracer.wrap(Child, "inner", "sobol.stage")
        clock.now += 0.25  # driver work outside any span
        Child().outer()
        metrics = layers.layer_metrics(tracer, wall_s=clock.now)
    seconds = sum(metrics[name] for name in layers.SPAN_METRICS)
    assert metrics["runtime.unattributed_s"] == pytest.approx(0.25)
    assert metrics["server.handle_s"] == pytest.approx(1.5)  # leaf unwrapped
    assert seconds + metrics["runtime.unattributed_s"] == pytest.approx(
        metrics["runtime.wall_s"]
    )


def test_series_total_sums_every_label_set():
    from repro.telemetry.aggregate import series_value

    snapshot = {
        "repro_stat_fold_seconds": {"series": [
            {"labels": {"rank": "0", "statistic": "moments"},
             "counts": [1], "count": 1, "sum": 0.25},
            {"labels": {"rank": "0", "statistic": "sobol2"},
             "counts": [1], "count": 1, "sum": 0.5},
            {"labels": {"rank": "1", "statistic": "moments"},
             "counts": [1], "count": 1, "sum": 1.0},
        ]},
        "repro_worker_bytes_sent": {"series": [
            {"labels": {"worker": "w0"}, "value": 10.0},
            {"labels": {"worker": "w1"}, "value": 5.0},
        ]},
    }
    assert series_value(snapshot, "repro_worker_bytes_sent") == 0.0
    assert layers.series_total(snapshot, "repro_worker_bytes_sent") == 15.0
    assert layers.series_total(snapshot, "repro_stat_fold_seconds") == 1.75
    assert layers.series_total(snapshot, "missing") == 0.0


# --------------------------------------------------------------------- #
# the measured loop on tiny studies
# --------------------------------------------------------------------- #
def reference_of(w, seed=3):
    case = workloads.build_case(w)
    study = workloads.build_study(w, case, seed, kernel="einsum")
    return workloads.result_arrays(
        workloads.run_study(w, study, reference=True)
    )


@pytest.fixture(scope="module")
def tiny_vector():
    w = workloads.workload("vector-seq", tiny=True)
    return w, reference_of(w)


def test_plan_mismatch_counts_every_run_as_failed(tiny_vector, tmp_path):
    w, ref = tiny_vector
    wrong = {"ranks": [["einsum", 1, 32]] * w.server_ranks}
    out = measure.measure_runs(w, 3, 0.0, False, ref, tmp_path,
                               expected=wrong, min_runs=2)
    assert out["attempted"] == 3
    assert out["failed"] == 3
    assert any("plan" in f for f in out["failures"])


def test_results_mismatch_counts_every_run_as_failed(tiny_vector, tmp_path):
    w, ref = tiny_vector
    bad = dict(ref, variance=ref["variance"] * (1 + 1e-8))
    out = measure.measure_runs(w, 3, 0.0, False, bad, tmp_path, min_runs=2)
    assert out["attempted"] == 3
    assert out["failed"] == 3
    assert any("variance" in f for f in out["failures"])


def test_results_check_tolerance():
    ref = {"a": np.array([1.0, np.nan, 0.0])}
    assert workloads.results_mismatch(
        {"a": np.array([1.0 + 1e-12, np.nan, 1e-13])}, ref) == []
    assert workloads.results_mismatch(
        {"a": np.array([1.0 + 1e-8, np.nan, 0.0])}, ref) == ["a"]
    assert workloads.results_mismatch({"b": ref["a"]}, ref) == ["a", "b"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_smoke(name, tmp_path):
    """Every workload runs, keeps its pinned plan, matches its reference,
    and its traced run accounts for the whole wall time."""
    w = workloads.workload(name, tiny=True)
    out = measure.measure_runs(w, 3, 0.0, True, reference_of(w), tmp_path,
                               min_runs=1)
    assert out["failed"] == 0, out["failures"]
    assert out["attempted"] == 3
    assert out["plan"] == workloads.expected_plan(w)
    assert out["group_steps_per_s"] > 0
    lay = out["layers"]
    seconds = sum(lay[name] for name in layers.SPAN_METRICS)
    assert seconds + lay["runtime.unattributed_s"] == pytest.approx(
        lay["runtime.wall_s"]
    )
    assert lay["results.assemble_s"] > 0
    if w.distributed:
        assert lay["net.rank_messages"] > 0
        assert lay["net.worker_group_s"] > 0
        return
    members = workloads.build_study(w, workloads.build_case(w), 3).config
    assert lay["solver.advance_calls"] == w.group_steps * members.group_size
    assert lay["kernels.fold_calls"] * lay["kernels.groups_per_fold"] == (
        w.group_steps * w.server_ranks
    )
    assert lay["server.messages"] >= lay["transport.messages"] > 0
    if w.checkpoint_interval is not None:
        assert lay["checkpoint.saves"] > 0
        assert lay["checkpoint.bytes"] > 0
        assert lay["stats.sobol2_s"] > 0


# --------------------------------------------------------------------- #
# BENCHMARK.json and the command-line contract
# --------------------------------------------------------------------- #
def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit in layers.PER_LAYER
    ]
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "vector-seq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
