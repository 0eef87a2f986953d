"""Smoke tests of the benchmark: every workload end to end at a tiny size
with every check on, exact counts repeated across traced runs, and the
checks themselves rejecting bad outputs.

    python -m pytest perfbench -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import pace
import run
import tracer
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
SEED = 5


def tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, n=300, times=3, config={**w.config, "max_epochs": 2, "patience": 2})


def names(kind):
    return {m["name"] for m in BENCHMARK[kind]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert names("end_to_end") == set(run.END_TO_END)
    assert names("per_layer") == set(run.PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_end_to_end(name):
    result, samples, env = run.measure(tiny(name), SEED, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.STAGES) * run.MIN_PIPELINES
    assert set(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(samples["train_s"]) == run.MIN_PIPELINES
    assert env["blas_threads"] == {var: "1" for var in run.BLAS_THREAD_VARS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = (run.measure(tiny(name), SEED, seconds=0, trace=True)[0] for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names("per_layer")
    for count in tracer.EXACT_COUNTS:
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"], count
    assert first["metrics"]["training.batches"]["value"] > 0
    assert first["metrics"]["data.rows_read"]["value"] == 3 * 300


def test_tracer_restores_every_original():
    program = run.load_program()

    def current():
        return program.training.ctd, program.training.train, program.autodiff.Tensor.__init__

    before = current()
    with tracer.Tracer():
        assert all(now is not was for now, was in zip(current(), before))
    assert current() == before


def test_pace_scales_wall_time_to_the_reference():
    pacer = pace.Pacer()
    pacer.times = [2 * pace.REFERENCE_S, 2 * pace.REFERENCE_S]
    assert pacer.scale(1.5) == pytest.approx(0.75)
    pacer.sample()
    assert pacer.times[-1] > 0


def test_comparable_pairs_match_brute_force():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 8, size=60).astype(float)  # heavy ties
    e = rng.integers(0, 3, size=60)
    tau, pairs = checks.comparable_pairs(t, e, 1, 0.5)
    brute = sum(
        1 for i in range(60) for j in range(60) if e[i] == 1 and t[i] <= tau and t[i] < t[j]
    )
    assert pairs == brute


def test_checks_reject_bad_outputs(tmp_path):
    metrics = tmp_path / "metrics.json"
    t = np.array([1.0, 2.0, 3.0, 4.0])
    e = np.array([1, 1, 0, 1])
    cells = []
    for q in checks.QUANTILES:
        tau, pairs = checks.comparable_pairs(t, e, 1, q)
        cells.append({"quantile": q, "time": tau, "ctd": 0.5, "pairs": pairs})
    metrics.write_text(json.dumps({"events": [{"event": 1, "horizons": cells}]}))
    assert checks.check_metrics(metrics, t, e, 1) == [0.5] * 3
    cells[1]["pairs"] += 1
    metrics.write_text(json.dumps({"events": [{"event": 1, "horizons": cells}]}))
    with pytest.raises(checks.CheckFailed, match="pairs"):
        checks.check_metrics(metrics, t, e, 1)

    curves = tmp_path / "curves.csv"
    curves.write_text("record,time,survival_event_1\n0,1.0,0.9\n0,2.0,0.8\n1,1.0,0.7\n1,2.0,0.6\n")
    checks.check_curves(curves, 2, [1.0, 2.0], 1)
    curves.write_text("record,time,survival_event_1\n0,1.0,0.9\n0,2.0,0.95\n1,1.0,0.7\n1,2.0,0.6\n")
    with pytest.raises(checks.CheckFailed, match="rises"):
        checks.check_curves(curves, 2, [1.0, 2.0], 1)
