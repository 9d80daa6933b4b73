"""Tests of the benchmark itself: its contract, its checkers and its tracer.

Run with ``python -m pytest perfbench/tests``.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import run
from perfbench.checks import (
    check_raw_result,
    check_repeats,
    check_sweep_csv,
    check_warm_result,
)
from perfbench.tracer import Target, Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

G_VALUES = (0.0, 0.5, 1.0)
G_DETS = (1.0, 3.0)


def sweep_csv(pd=None, fa_wide=10.0, n=5, drop=None, nan_at=None) -> str:
    """A sweep CSV of the G_VALUES x G_DETS grid with a baseline per gate."""
    pd = pd or {0.0: 0.9, 0.5: 0.85, 1.0: 0.8}
    lines = ["g,g_det,pd_mean,pd_std,fa_mean,fa_std,n"]
    for gd in G_DETS:
        lines.append(f"-1.0,{gd},0.95,0.01,60.0,1.0,{n}")
        for g in G_VALUES:
            if (g, gd) == drop:
                continue
            fa = fa_wide if g == G_VALUES[-1] else 30.0
            value = "nan" if (g, gd) == nan_at else repr(pd[g])
            lines.append(f"{g},{gd},{value},0.01,{fa},1.0,{n}")
    return "\n".join(lines) + "\n"


# -- contract ------------------------------------------------------------------


def test_benchmark_json_names_what_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- output checks ---------------------------------------------------------------


def test_sweep_check_accepts_a_correct_csv():
    assert check_sweep_csv(sweep_csv(), G_VALUES, G_DETS, 5) == []


@pytest.mark.parametrize(
    "broken, expected",
    [
        (sweep_csv(pd={0.0: 0.9, 0.5: 0.91, 1.0: 0.8}), "rises"),
        (sweep_csv(fa_wide=60.0), "not below"),
        (sweep_csv(n=4), "n=4"),
        (sweep_csv(drop=(0.5, 3.0)), "missing"),
        (sweep_csv(nan_at=(1.0, 1.0)), "non-finite"),
        (sweep_csv(pd={0.0: 1.2, 0.5: 0.85, 1.0: 0.8}), "outside [0, 1]"),
        ("g,g_det,pd\n", "header"),
    ],
)
def test_sweep_check_rejects_a_broken_csv(broken, expected):
    problems = check_sweep_csv(broken, G_VALUES, G_DETS, 5)
    assert any(expected in p for p in problems), problems


def _result(source, pd_avg=0.9, fa_avg=40.0):
    return SimpleNamespace(
        data_source=source, metrics=SimpleNamespace(pd_avg=pd_avg, fa_avg=fa_avg)
    )


def test_warm_check_rejects_live_data_and_changed_metrics():
    good = _result("historical-only")
    assert check_warm_result(good, good.metrics) == []
    assert check_warm_result(_result("live+historical"), good.metrics)
    assert check_warm_result(_result("historical-only", pd_avg=0.5), good.metrics)
    assert check_warm_result(None, good.metrics)


def test_raw_check_rejects_wrong_source_missing_record_and_nan():
    assert check_raw_result(_result("live+historical"), 1) == []
    assert check_raw_result(_result("historical-only"), 1)
    assert check_raw_result(_result("live+historical"), 0)
    assert check_raw_result(_result("live+historical", fa_avg=math.nan), 1)


def test_repeat_check_flags_any_difference():
    assert check_repeats("x", [3, 3, 3]) == []
    assert check_repeats("x", [3, 4, 3])
    assert check_repeats("x", [b"a", b"b"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0)


# -- tracer ------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    import sensefuse.callflow
    import sensefuse.harness
    import sensefuse.scenario

    original = sensefuse.scenario.generate_frames
    tracer = Tracer()
    tracer.install(
        (Target("scenario.generate_frames", "scenario", "generate_frames"),
         Target("gone", "scenario", "no_such_function"),
         Target("gone.method", "sdsf_store", "SdsfStore.no_such_method"))
    )
    try:
        for module in (sensefuse.scenario, sensefuse.harness, sensefuse.callflow):
            assert module.generate_frames is not original
            assert module.generate_frames.__wrapped__ is original
        assert tracer.absent == ["gone", "gone.method"]
    finally:
        tracer.uninstall()
    for module in (sensefuse.scenario, sensefuse.harness, sensefuse.callflow):
        assert module.generate_frames is original


def test_tracer_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer._wrap(Target("inner", "m", "inner"), lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer._wrap(Target("outer", "m", "outer"), outer_fn)
    outer()  # inactive: records nothing
    assert tracer.calls == {}
    tracer.active = True
    tracer.op_id = 7
    outer()
    totals = tracer.snapshot()
    assert totals["inner.calls"] == 2 and totals["outer.calls"] == 1
    assert totals["outer.self_s"] == pytest.approx(totals["outer.s"] - totals["inner.s"])
    assert [(s[0], s[1], s[4]) for s in tracer.spans] == [(7, "outer", -1), (7, "inner", 0),
                                                          (7, "inner", 0)]
