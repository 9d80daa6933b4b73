"""Release gate: one test per shipped guarantee, numbered for the checklist.

Criteria 1-5 share a single full-size sweep (default scenario, 50
realizations, the 21-point margin grid, six gate sizes) run once per session.
The rest use dedicated oracles: a sampled-covariance check, a Poisson
thinning count, a hand-written metrics pipeline, frozen call-flow traces,
and byte-level CSV comparison.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import baseline_row, brute_force_metrics, cell_row, columns_of
from oracles import (
    PolarMeasurement,
    cov_matrix,
    fused_metrics,
    generate_clutter,
    polar_to_world,
    precompute_distances,
    read_trace,
    rect_contains,
    sample_measurements,
    world_covariance,
)
from sensefuse.cli import main as cli_main
from sensefuse.config import parse_config
from sensefuse.fusion import FilterConfig
from sensefuse.geometry import Rect, StaticMap, WorldPoint
from sensefuse.harness import demo_callflow, run_sweep, write_csv
from sensefuse.measurement import NoiseModel, Pose
from sensefuse.scenario import (
    ClutterModel,
    Frame,
    ScenarioConfig,
    build_scenario,
    generate_frames,
    realization_rng,
)


@pytest.fixture(scope="session")
def full_sweep():
    """Default-config sweep shared by criteria 1-5, with its wall-clock time."""
    cfg = parse_config({})
    scenario = build_scenario(cfg.scenario)
    t0 = time.perf_counter()
    rows = run_sweep(scenario, cfg.sweep)
    elapsed = time.perf_counter() - t0
    return cfg, rows, elapsed


def _pooled_se(std_a: float, n_a: int, std_b: float, n_b: int) -> float:
    return math.sqrt(std_a * std_a / n_a + std_b * std_b / n_b)


def test_criterion_01_false_alarm_reduction_at_default_gate(full_sweep):
    # A 2 m mask margin must cut mean false alarms by 50-95% relative to the
    # unfiltered baseline at the default gate, within the runtime budget.
    _, rows, elapsed = full_sweep
    masked = cell_row(rows, 2.0, 3.0).fa_mean
    unfiltered = baseline_row(rows, 3.0).fa_mean
    assert unfiltered > 0.0
    ratio = masked / unfiltered
    assert 0.05 <= ratio <= 0.5
    assert elapsed < 30.0


def test_criterion_02_false_alarms_nonincreasing_in_mask_margin(full_sweep):
    # Growing the mask margin can only remove detections, so per gate size the
    # false-alarm curve may rise only within Monte-Carlo noise.
    cfg, rows, _ = full_sweep
    assert len(cfg.sweep.g_values) == 21
    for g_det in cfg.sweep.g_det_values:
        curve = [cell_row(rows, g, g_det) for g in cfg.sweep.g_values]
        for prev, nxt in zip(curve, curve[1:]):
            slack = _pooled_se(prev.fa_std, prev.n, nxt.fa_std, nxt.n)
            assert nxt.fa_mean <= prev.fa_mean + slack, (
                f"fa rose from {prev.fa_mean} (g={prev.g}) to {nxt.fa_mean} "
                f"(g={nxt.g}) at g_det={g_det}"
            )


def test_criterion_03_zero_margin_detection_is_highest_with_edge_dip(full_sweep):
    # The zero-margin curve bounds every masked curve from above (1% slack),
    # and the mid-street lane hugging the buildings produces a strict
    # detection dip at some gate size of 3 m or less.
    cfg, rows, _ = full_sweep
    dips: dict[float, float] = {}
    for g_det in cfg.sweep.g_det_values:
        p0 = cell_row(rows, 0.0, g_det).pd_mean
        masked = [cell_row(rows, g, g_det).pd_mean for g in cfg.sweep.g_values if g > 0.0]
        for pd in masked:
            assert p0 >= pd - 0.01
        dips[g_det] = p0 - min(masked)
    assert max(dips[g_det] for g_det in (1.0, 2.0, 3.0)) > 0.0, f"no dip: {dips}"


def test_criterion_04_detection_never_drops_when_gate_widens(full_sweep):
    # A 10 m gate accepts everything a 1 m gate accepts, so detection may only
    # fall within Monte-Carlo noise, at every margin and in the baseline.
    cfg, rows, _ = full_sweep
    pairs = [(cell_row(rows, g, 1.0), cell_row(rows, g, 10.0)) for g in cfg.sweep.g_values]
    pairs.append((baseline_row(rows, 1.0), baseline_row(rows, 10.0)))
    for narrow, wide in pairs:
        slack = _pooled_se(narrow.pd_std, narrow.n, wide.pd_std, wide.n)
        assert wide.pd_mean >= narrow.pd_mean - slack, (
            f"pd fell from {narrow.pd_mean} to {wide.pd_mean} at g={narrow.g}"
        )


def test_criterion_05_unfiltered_wide_gate_detects_nearly_everything(full_sweep):
    # Two viewers at 95% each and a 10 m gate leave almost no joint misses.
    _, rows, _ = full_sweep
    assert baseline_row(rows, 10.0).pd_mean >= 0.95


def test_criterion_06_sampled_world_covariance_matches_closed_form():
    # The sample covariance of many noisy back-projections must match the
    # rotated closed-form matrix within 5% relative Frobenius error.
    noise = NoiseModel(sigma_range=0.8, sigma_bearing=math.radians(2.0))
    pose = Pose(12.0, -7.0, math.radians(40.0))
    z = PolarMeasurement(50.0, math.radians(30.0))
    target = polar_to_world(pose, z)
    rng = np.random.default_rng(2026)

    t0 = time.perf_counter()
    n = 100_000
    repeats = np.tile([target.x, target.y], (n, 1))
    ranges, bearings = sample_measurements(pose, repeats, noise, rng)
    world = np.array(
        [
            [p.x, p.y]
            for p in (
                polar_to_world(pose, PolarMeasurement(float(r), float(b)))
                for r, b in zip(ranges, bearings)
            )
        ]
    )
    sample_cov = np.cov(world.T)
    expected = cov_matrix(world_covariance(pose, z, noise))
    elapsed = time.perf_counter() - t0

    rel_error = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
    assert rel_error <= 0.05
    assert elapsed < 5.0


def test_criterion_07_clutter_survival_matches_thinning_oracle():
    # With no targets, surviving detections per frame are thinned clutter:
    # the mean must equal lambda * (1 - p_reject(g)) with p_reject estimated
    # by an independent million-point rejection oracle.
    cfg = ScenarioConfig(n_targets=0, t_steps=400, seed=101)
    scenario = build_scenario(cfg)
    frames = generate_frames(scenario, realization_rng(cfg.seed, 0))
    lam = scenario.clutter.lambda_fa

    oracle_rng = np.random.default_rng(886644)
    chunks = []
    for _ in range(10):
        chunks.append(
            generate_clutter(
                ClutterModel(lambda_fa=100_000.0), scenario.static_map, scenario.bounds, oracle_rng
            )
        )
    oracle_xy = np.concatenate(chunks)
    oracle_d2 = scenario.static_map.min_distance_sq_many(oracle_xy)
    m = len(oracle_xy)
    assert m >= 1_000_000 // 2

    fd = precompute_distances(frames, scenario.static_map)
    for g in (0.0, 1.0, 2.0, 5.0):
        fc = FilterConfig(mask_margin_g=g, gate_g_det=3.0)
        # No targets: every surviving detection is a false alarm.
        mean_survived = fused_metrics(fd, fc).fa_avg
        p_reject = float(np.mean(oracle_d2 <= g * g))
        expected = lam * (1.0 - p_reject)
        sigma = math.sqrt(
            lam * (1.0 - p_reject) / len(frames) + lam * lam * p_reject * (1.0 - p_reject) / m
        )
        assert abs(mean_survived - expected) <= 3.0 * sigma, (
            f"g={g}: mean {mean_survived} vs expected {expected} (3 sigma {3 * sigma})"
        )


def _micro_instance(rng: np.random.Generator):
    bounds = Rect(0.0, 0.0, 40.0, 40.0)
    static_map = StaticMap((Rect(8.0, 8.0, 16.0, 16.0),), bounds)
    fc = FilterConfig(
        mask_margin_g=float(rng.choice([0.0, 1.0, 2.5])),
        gate_g_det=float(rng.choice([1.5, 3.0])),
        mask_enabled=bool(rng.integers(0, 2)),
    )
    n_targets = int(rng.integers(0, 4))
    frames = []
    for t in range(10):
        truth = []
        for tid in range(n_targets):
            x, y = (float(v) for v in rng.uniform(-6.0, 46.0, size=2))
            if rect_contains(bounds, WorldPoint(x, y)):
                truth.append((tid, WorldPoint(x, y)))
        detections = []  # (point, source SE, clutter flag)
        for tid, pos in truth:
            if rng.random() < 0.7:
                dx, dy = (float(v) for v in rng.normal(0.0, 1.2, size=2))
                detections.append(((pos.x + dx, pos.y + dy), f"se-{tid % 2}", False))
        for _ in range(int(rng.integers(0, 4))):
            cx, cy = (float(v) for v in rng.uniform(0.0, 40.0, size=2))
            detections.append(((cx, cy), "se-0", True))
        points, sources, clutter = zip(*detections[:10]) if detections else ((), (), ())
        frames.append(
            Frame(t=t, detections=columns_of(points, sources, clutter), truth=tuple(truth))
        )
    return frames, static_map, fc


def test_criterion_08_streaming_metrics_equal_brute_force():
    # On random micro-instances the fusion kernel's metrics must agree
    # exactly with an independent evaluation of the same frames.
    for k in range(20):
        rng = np.random.default_rng(5600 + k)
        frames, static_map, fc = _micro_instance(rng)

        result = fused_metrics(precompute_distances(frames, static_map), fc)

        pd, pd_avg, fa_avg = brute_force_metrics(frames, static_map, fc)
        assert result.pd_per_target == pd, f"instance {k}"
        assert result.fa_avg == fa_avg, f"instance {k}"
        if math.isnan(pd_avg):
            assert math.isnan(result.pd_avg), f"instance {k}"
        else:
            assert result.pd_avg == pd_avg, f"instance {k}"


HAPPY_TRACE = [
    (1, "SeRegistration"),
    (1, "SeRegistration"),
    (2, "ServiceRequest"),
    (3, "ServiceAck"),
    (4, "PolicyRequest"),
    (5, "PolicyDecision"),
    (6, "AvailabilityQuery"),
    (7, "AvailabilityResponse"),
    (8, "DataPlanDecision"),
    (9, "TaskGroupCreated"),
    (10, "SensingDataRequest"),
    (10, "SensingDataRequest"),
    (11, "SensingDataReport"),
    (11, "SensingDataReport"),
    (12, "HistoricalDataRequest"),
    (13, "HistoricalDataResponse"),
    (14, "FusionCompleted"),
    (15, "SensingResult"),
    (16, "StorageUpdate"),
]

DENY_TRACE = [
    (1, "SeRegistration"),
    (1, "SeRegistration"),
    (2, "ServiceRequest"),
    (3, "ServiceAck"),
    (4, "PolicyRequest"),
    (5, "PolicyDecision"),
    (5, "ServiceAbort"),
]

EXISTS_TRACE = [
    (1, "SeRegistration"),
    (1, "SeRegistration"),
    (2, "ServiceRequest"),
    (3, "ServiceAck"),
    (4, "PolicyRequest"),
    (5, "PolicyDecision"),
    (6, "AvailabilityQuery"),
    (7, "AvailabilityResponse"),
    (8, "DataPlanDecision"),
    (12, "HistoricalDataRequest"),
    (13, "HistoricalDataResponse"),
    (14, "FusionCompleted"),
    (15, "SensingResult"),
    (16, "StorageUpdate"),
]


def _shape(run) -> list[tuple[int, str]]:
    return [(event.step, event.variant) for event in run.trace]


def test_criterion_09_call_flow_golden_traces_and_archive_reuse(tmp_path):
    # Three frozen traces: partial availability driving all 16 steps, a policy
    # deny stopping before any tasking, and a second run served entirely from
    # the first run's archive.
    cfg = parse_config({})
    scenario = build_scenario(cfg.scenario)
    store_path = str(tmp_path / "demo.store")

    first = demo_callflow(cfg, scenario, str(tmp_path / "run1.jsonl"), store_path)
    assert _shape(first.run) == HAPPY_TRACE
    assert first.preseeded is True
    assert first.run.result is not None
    assert first.run.result.data_source == "live+historical"
    assert read_trace(first.trace_path) == list(first.run.trace)

    deny_cfg = replace(cfg, demo=replace(cfg.demo, prohibited_areas=(Rect(50.0, 30.0, 70.0, 50.0),)))
    denied = demo_callflow(
        deny_cfg, scenario, str(tmp_path / "deny.jsonl"), str(tmp_path / "deny.store")
    )
    assert _shape(denied.run) == DENY_TRACE
    assert denied.run.result is None
    assert denied.run.abort_reason is not None and "prohibited" in denied.run.abort_reason

    second = demo_callflow(cfg, scenario, str(tmp_path / "run2.jsonl"), store_path)
    assert _shape(second.run) == EXISTS_TRACE
    assert second.preseeded is False
    assert second.run.result is not None
    assert second.run.result.data_source == "historical-only"
    assert second.run.result.metrics == first.run.result.metrics


CRIT10_YAML = """\
scenario:
  t_steps: 25
  lambda_fa: 20
  seed: 11
sweep:
  n_realizations: 4
  g_values: [0.0, 1.0, 2.0]
  g_det_values: [1.0, 3.0]
"""


def test_criterion_10_sweep_csv_byte_identical(tmp_path):
    # Two sweep invocations with the same config and seed must write the same
    # bytes.
    config_path = tmp_path / "config.yaml"
    config_path.write_text(CRIT10_YAML)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(out_b)]) == 0
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    assert bytes_a.count(b"\n") == 9  # header + (baseline + 3 margins) per gate


# -- golden digests ---------------------------------------------------------------
#
# Identity across versions, not only across reruns: the default sweep CSV and
# an archive_raw demo's store log and trace must keep these bytes.

DEFAULT_SWEEP_CSV_SHA256 = "6d258243f9caef82ad193831cc4ce54f36986f88c5cde4b555aff3ad4454c580"
# With its raw columns as JSON lists, the form older logs hold, the same store
# was 348,007 B (sha256 fc1a189c...); tests/data/pre-compact-raw.store pins
# that form's replay.
ARCHIVE_RAW_STORE_SHA256 = "4b6fe3057ec116b063d63a1f9bad0b210c9bbead6fead4ed59ef930abf25d021"
ARCHIVE_RAW_TRACE_SHA256 = "8e9ea2133cb16e4606421bb69dde763107fc744d79f41d38aa024aff0f5409e4"
# Three default demos on one fresh store: one live run, then two served
# historical-only, whose map and metrics records are appended to the same log.
# Reusing an archive only for the same filter question, and bounding the log,
# are planned changes to this path that will move these digests on purpose.
WARM_STORE_SHA256 = "eedda84b9b2ea5fc8b207cf8b0a6792a9f63d7b8d38d9ff9d30d46b797f7d583"
WARM_THIRD_TRACE_SHA256 = "a7cfcc37ab5bf874bac9a509e41f3dc7ab524e6b9ac204babd1d8526d42446ff"


def test_default_sweep_csv_golden_digest(full_sweep, tmp_path):
    _, rows, _ = full_sweep
    out = tmp_path / "sweep.csv"
    write_csv(rows, out)
    data = out.read_bytes()
    assert (len(data), data.count(b"\n")) == (10528, 133)
    assert hashlib.sha256(data).hexdigest() == DEFAULT_SWEEP_CSV_SHA256


def test_archive_raw_demo_golden_digests(tmp_path):
    cfg = parse_config({"demo": {"archive_raw": True}})
    scenario = build_scenario(cfg.scenario)
    report = demo_callflow(cfg, scenario, tmp_path / "run.jsonl", tmp_path / "demo.store")
    store = report.store_path.read_bytes()
    assert len(store) == 179_815
    assert hashlib.sha256(store).hexdigest() == ARCHIVE_RAW_STORE_SHA256
    assert hashlib.sha256(report.trace_path.read_bytes()).hexdigest() == ARCHIVE_RAW_TRACE_SHA256


def test_warm_demo_golden_digests(tmp_path):
    cfg = parse_config({})
    scenario = build_scenario(cfg.scenario)
    sources = []
    for run in range(3):
        report = demo_callflow(cfg, scenario, tmp_path / f"run{run}.jsonl", tmp_path / "demo.store")
        sources.append(report.run.result.data_source)
    assert sources == ["live+historical", "historical-only", "historical-only"]
    store = report.store_path.read_bytes()
    assert (len(store), store.count(b"\n")) == (2272, 8)
    assert hashlib.sha256(store).hexdigest() == WARM_STORE_SHA256
    assert hashlib.sha256(report.trace_path.read_bytes()).hexdigest() == WARM_THIRD_TRACE_SHA256


# Call-flow paths the three digests above leave unpinned, each run through the
# CLI from a fresh directory: ``(config per demo, store, last trace, last
# stdout)``.  Every demo but the last only warms the store.
CALL_FLOW_PATH_DIGESTS = {
    # Live-only: without consent the SDSF is neither read, nor its preseeded
    # map, nor written, so the store holds the preseed alone (as on a deny)
    # and the trace ends at step 15.
    "no-consent": (
        ["demo:\n  historical_consent: false\n"],
        "3c1b2ab1c3614178190d5fc1c77740daa99c1553c3fa6507f990dd2bc7abe40b",
        "754fe60f8571808fdfbe1e6deab74b6f7eef8bc9a228986040290064de6c6b32",
        "fffbc1c8cdee51ad0a3ba93bb6123045a6a8e8f1b17060612a8e65aa3690a9d7",
    ),
    # The PCF denies a request whose area meets a prohibited zone: steps 1-5
    # and a ServiceAbort, with only the preseed in the store.  The stdout
    # names the first prohibited rect that intersects.
    "policy-deny": (
        ["demo:\n  prohibited_areas: [[0, 0, 10, 10]]\n"],
        "3c1b2ab1c3614178190d5fc1c77740daa99c1553c3fa6507f990dd2bc7abe40b",
        "9ffa66b450c05451f3b7b3d67c2e42081ab4a97cd8d1b6ab32ffbb6a70d3eb52",
        "9bf321f38ab7bec5aa42e5110754ce657606471c4f488b9ef4f894952e7b5299",
    ),
    # Consent on an empty store: availability "missing", so live-only after 6-7.
    "empty-store-missing": (
        ["demo:\n  preseed_partial_map: false\n"],
        "d97f02f5ec54124143d92a05458022b8fa9e46d6377c7bdc4cd1ebf0b772bb5e",
        "801f7c961901d37dd0a3152109c844768e6436391bd029fefbde4b5218cc2215",
        "605b66d78a3a55e33722edab895dad278c788fbcbce9c898e375e2c8098af5cf",
    ),
    # Coverage "exists" but the archived Pd (0.8625) misses the KPI, so the
    # second demo senses live+historical.
    "warm-store-kpi-miss": (
        ["", "demo:\n  pd_min: 1.0\n"],
        "33a2b8b8ceedfd77a41ba4c6b81ed6b9997a30fcf0c74ae9f244a33e44e4d2ae",
        "c554a350c9fc0fecf232d7746b75831145eceab4f223fe1a7690a68da383ebfc",
        "7818483981dfcfbf15859e585360da44cc112a51c9e6f5212a1501dc16386db1",
    ),
}


@pytest.mark.parametrize("path", sorted(CALL_FLOW_PATH_DIGESTS))
def test_call_flow_path_golden_digests(path, tmp_path, monkeypatch, capsys):
    configs, store_sha, trace_sha, stdout_sha = CALL_FLOW_PATH_DIGESTS[path]
    monkeypatch.chdir(tmp_path)
    for i, text in enumerate(configs):
        Path(f"cfg{i}.yaml").write_text(text)
        capsys.readouterr()
        argv = ["demo", "--config", f"cfg{i}.yaml", "--trace", f"run{i}.jsonl"]
        assert cli_main([*argv, "--store", "demo.store"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(Path("demo.store").read_bytes()).hexdigest() == store_sha
    assert hashlib.sha256(Path(f"run{i}.jsonl").read_bytes()).hexdigest() == trace_sha
    assert hashlib.sha256(stdout).hexdigest() == stdout_sha
