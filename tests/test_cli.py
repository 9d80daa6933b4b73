"""Tests for the command-line interface."""
from __future__ import annotations

import json
import sys

import pytest

from sensefuse import __version__
from sensefuse.cli import main
from sensefuse.geometry import Rect, StaticMap
from sensefuse.harness import BASELINE_G
from sensefuse.sdsf_store import SdsfStore, SensingContext

from conftest import read_csv

SMALL_YAML = """\
scenario:
  t_steps: 10
  lambda_fa: 8
  seed: 11
sweep:
  n_realizations: 2
  g_values: [0.0, 2.0]
  g_det_values: [3.0]
demo:
  pd_min: 0.0
  fa_max: 1.0e+9
"""


# Python's int-string limit (3.10.7+) stops PyYAML from reading a 5001-digit
# integer; without the limit it is read and then fails to fit a float.
HUGE_INT_PROBLEM = (
    "unreadable YAML value: Exceeds the limit"
    if hasattr(sys, "get_int_max_str_digits")
    else "scenario.sigma_r: must fit a 64-bit float"
)


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(SMALL_YAML)
    return str(path)


def test_version_command(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_sweep_writes_csv(tmp_path, small_config, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", small_config, "--out", str(out)]) == 0
    rows = read_csv(str(out))
    # one baseline row plus two margins, single gate
    assert len(rows) == 3
    assert rows[0].g == BASELINE_G
    assert [r.g for r in rows[1:]] == [0.0, 2.0]
    assert f"wrote 3 rows" in capsys.readouterr().out


def test_sweep_reruns_are_byte_identical(tmp_path, small_config):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", small_config, "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", small_config, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_seed_override_changes_results(tmp_path, small_config):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", small_config, "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", small_config, "--out", str(out_b), "--seed", "99"]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_demo_writes_trace_and_store(tmp_path, small_config, capsys):
    trace = tmp_path / "run.jsonl"
    store = tmp_path / "run.store"
    code = main(
        ["demo", "--config", small_config, "--trace", str(trace), "--store", str(store)]
    )
    assert code == 0
    assert trace.exists()
    assert store.exists()
    out = capsys.readouterr().out
    assert "KPI satisfied" in out
    assert "source=" in out


def test_demo_default_store_path(tmp_path, small_config):
    trace = tmp_path / "run.jsonl"
    assert main(["demo", "--config", small_config, "--trace", str(trace)]) == 0
    assert (tmp_path / "run.jsonl.store").exists()


def test_demo_second_run_reuses_store(tmp_path, small_config, capsys):
    trace = tmp_path / "run.jsonl"
    store = tmp_path / "run.store"
    argv = ["demo", "--config", small_config, "--trace", str(trace), "--store", str(store)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "source=live+historical" in first
    assert "source=historical" in second


def test_demo_ignores_stored_map_outside_the_bounds(tmp_path, small_config, capsys):
    # A store archived over the default 120 m area, then asked about a
    # 40 m area none of whose archived buildings reach into.
    trace = tmp_path / "run.jsonl"
    store = tmp_path / "run.store"
    argv = ["demo", "--trace", str(trace), "--store", str(store)]
    assert main([*argv, "--config", small_config]) == 0
    other = tmp_path / "other.yaml"
    other.write_text(
        "scenario:\n"
        "  bounds: [0, 0, 40, 40]\n"
        "  buildings: [[10, 10, 20, 20]]\n"
        "  se_poses: [[0, 0, 0], [40, 0, 90]]\n"
        "  n_targets: 0\n"
        "  t_steps: 10\n"
        "demo:\n"
        "  pd_min: 0.99\n"
    )
    capsys.readouterr()
    assert main([*argv, "--config", str(other)]) == 0
    out, err = capsys.readouterr()
    assert "source=live+historical, mask=off" in out
    assert "Traceback" not in err


def test_bad_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("scenario:\n  sigma: 1\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key",
    [
        ("scenario: [unclosed\n", "invalid YAML"),
        ("scenario:\n  se_poses: [[.inf, 0, 0]]\n", "scenario.se_poses[0]"),
        ("scenario:\n  sigma_r: .inf\n", "scenario.sigma_r"),
        ("demo:\n  mask_margin_g: .nan\n", "demo.mask_margin_g"),
        ("sweep:\n  g_values: [.nan]\n", "sweep.g_values[0]"),
        ("sweep:\n  g_values: [1, 1.0]\n", "sweep.g_values[1]: duplicate of sweep.g_values[0]"),
        (
            "demo:\n  target_type: person\n",
            "demo.target_type: must be one of ('pedestrian', 'vehicle', 'lorry', 'cyclist',"
            " 'motorcyclist', 'unknown'), got 'person'",
        ),
        (
            "sweep: {g_min: 0, g_max: 1.0e+300, g_step: 1.0e-300}\n",
            "sweep.g_step: (g_max - g_min) / g_step must be finite, got inf",
        ),
        ("demo:\n  charging_rules: []\n", "demo.charging_rules: unknown key"),
    ],
)
def test_malformed_or_non_finite_config_exits_2(tmp_path, capsys, text, key):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert err.count("\n") == 1
    assert not out.exists()


def _torn(path):
    # A cut inside the header line: a torn tail after it would be dropped.
    data = path.read_bytes()
    path.write_bytes(data[: data.index(b"\n") // 2])


@pytest.mark.parametrize(
    "corrupt",
    [
        _torn,
        lambda path: path.write_text("garbage\n"),
        lambda path: path.write_text('{"magic": "other", "version": 1}\n'),
        # The last record line again: a second record under its id.
        lambda path: path.write_bytes(path.read_bytes() + path.read_bytes().splitlines(True)[-1]),
    ],
    ids=["torn", "garbage", "bad-magic", "duplicate-record-id"],
)
def test_corrupt_store_exits_1(tmp_path, small_config, capsys, corrupt):
    trace = tmp_path / "run.jsonl"
    store = tmp_path / "run.store"
    argv = ["demo", "--config", small_config, "--trace", str(trace), "--store", str(store)]
    assert main(argv) == 0
    corrupt(store)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"store error: {store}:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda record: record.update(created_at="x"),
        lambda record: record.update(aging_policy="z"),
        lambda record: record.update(created_at=1.5),
        lambda record: record["payload"].update(pd_avg="hi"),
        lambda record: record.update(kind="raw"),
        lambda record: record["context"].update(time_window=["a", "b"]),
        lambda record: record["context"].update(time_window=[0, 2**63]),
        lambda record: record.update(aging_policy=10**30),
        # orjson reads an integer past 64 bits as a float.
        lambda record: record["payload"].update(excluded_targets=[2**64, 1.5, -3]),
    ],
    ids=[
        "created-at-text",
        "aging-policy-text",
        "created-at-float",
        "pd-avg-text",
        "metrics-as-raw",
        "time-window-text",
        "time-window-past-int64",
        "aging-policy-past-int64",
        "excluded-targets",
    ],
)
def test_record_failing_the_store_checks_exits_1(tmp_path, small_config, capsys, edit):
    # Each edit of the metrics record makes a line that store() could not have written.
    trace = tmp_path / "run.jsonl"
    store = tmp_path / "run.store"
    argv = ["demo", "--config", small_config, "--trace", str(trace), "--store", str(store)]
    assert main(argv) == 0
    lines = store.read_bytes().splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines[1:], 2) if b'"type":"metrics"' in line)
    record = json.loads(lines[lineno - 1])
    edit(record)
    lines[lineno - 1] = (json.dumps(record, sort_keys=True) + "\n").encode()
    store.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"store error: {store}:{lineno}: bad record: ") and err.count("\n") == 1


def test_torn_store_tail_is_dropped_and_the_demo_runs(tmp_path, small_config, capsys):
    trace = tmp_path / "run.jsonl"
    store = tmp_path / "run.store"
    argv = ["demo", "--config", small_config, "--trace", str(trace), "--store", str(store)]
    assert main(argv) == 0
    data = store.read_bytes()
    store.write_bytes(data[: len(data) - 20])
    capsys.readouterr()
    assert main(argv) == 0
    assert "source=" in capsys.readouterr().out
    # The torn line is gone; the lines before it are kept as written.
    kept = data[: data.rindex(b"\n", 0, len(data) - 1) + 1]
    assert store.read_bytes().startswith(kept) and store.read_bytes().endswith(b"\n")
    assert main(argv) == 0
    assert "torn" not in capsys.readouterr().err


def test_unwritable_output_exits_1(tmp_path, small_config, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert main(["sweep", "--config", small_config, "--out", str(out)]) == 1
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-store", "used-store"])
def test_demo_with_an_unwritable_trace_leaves_the_store_as_it_was(
    tmp_path, small_config, capsys, fresh
):
    store = tmp_path / "s.store"
    argv = ["demo", "--config", small_config, "--store", str(store), "--trace"]
    if not fresh:
        assert main([*argv, str(tmp_path / "first.jsonl")]) == 0
        capsys.readouterr()
    before = store.read_bytes() if store.exists() else None
    assert main([*argv, str(tmp_path / "missing" / "x.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert (store.read_bytes() if store.exists() else None) == before
    # The next demo runs as if the failed one had not happened.
    assert main([*argv, str(tmp_path / "next.jsonl")]) == 0
    source = "live+historical" if fresh else "historical-only"
    assert f"source={source}" in capsys.readouterr().out


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-store", "used-store"])
def test_demo_with_trace_and_store_on_one_file_exits_2(
    tmp_path, small_config, capsys, monkeypatch, spelling, fresh
):
    # The trace would overwrite the store the run just wrote.
    monkeypatch.chdir(tmp_path)
    store = tmp_path / "s.store"
    argv = ["demo", "--config", small_config, "--store", "s.store", "--trace"]
    if not fresh:
        assert main([*argv, "t.jsonl"]) == 0
        capsys.readouterr()
    if spelling == "symlink":
        (tmp_path / "link.jsonl").symlink_to(store)
    trace = {"same": "s.store", "dotted": str(tmp_path / "sub" / ".." / "s.store")}.get(
        spelling, "link.jsonl"
    )
    (tmp_path / "sub").mkdir()
    before = store.read_bytes() if store.exists() else None
    assert main([*argv, trace]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: --trace and --store name the same file")
    assert captured.err.count("\n") == 1
    assert (store.read_bytes() if store.exists() else None) == before


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_sweep_requires_out_path(small_config):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", small_config])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["sweep", "demo"])
@pytest.mark.parametrize(
    "text, key",
    [
        ("scenario:\n  edge_jitter_sigma: 0\n", "scenario.edge_jitter_sigma: must be > 0"),
        ("scenario:\n  edge_jitter_sigma: -1\n", "scenario.edge_jitter_sigma: must be > 0"),
        (
            "scenario:\n  se_poses: [[0, 15, 0], [120, 0, 0]]\n",
            "se_poses[0] at (0.0, 15.0) lies on track 0 at step 0",
        ),
        ("scenario:\n  sigma_r: 0\n", "scenario.sigma_r: must be > 0"),
        (
            "scenario:\n  sigma_beta_deg: 5.0e-324\n",
            "scenario.sigma_beta_deg: must be > 0 in radians",
        ),
        # Integers that YAML reads exactly but no float or step index can hold.
        ("scenario:\n  sigma_r: 1" + "0" * 400 + "\n", "scenario.sigma_r: must fit a 64-bit float"),
        ("scenario:\n  t_steps: 1" + "0" * 40 + "\n", "scenario.t_steps: must be <= 2**63 - 1"),
        # Past Python's int-string limit PyYAML cannot read the integer at all.
        ("scenario: {sigma_r: 1" + "0" * 5000 + "}\n", HUGE_INT_PROBLEM),
        # The call flow tasks every SE of the scenario, so there is at least one.
        ("scenario:\n  se_poses: []\n", "scenario.se_poses: expected a non-empty list"),
        # Past numpy's Poisson limit the clutter sampler would raise.
        ("scenario: {lambda_fa: 1.0e+300, t_steps: 1}\n", "scenario.lambda_fa: must be <="),
        (b"\xff\xfe\x00bad", "unreadable YAML value: 'utf-8' codec can't decode"),
        # Past int64 the store could not hold a window end.
        ("demo: {aging_policy: 9223372036854775808}\n", "demo.aging_policy: must be <= 2**63 - 1"),
        # The clutter of one realization would not fit in memory.
        (
            "scenario: {lambda_fa: 1.0e+12}\n",
            "scenario.lambda_fa: lambda_fa * t_steps, the expected clutter detections per"
            " realization, must be <= 10000000, got 100000000000000.0",
        ),
        # The steps and target sight lines of one realization would not fit in memory.
        (
            "scenario: {lambda_fa: 0, t_steps: 1000000000}\n",
            "scenario.t_steps: t_steps * (1 + len(se_poses) * n_targets), the step and target"
            " sight-line rows per realization, must be <= 10000000, got 17000000000",
        ),
        # Past the world scale, widths or squared distances overflow.
        (
            "scenario: {bounds: [-1.0e+308, 0, 1.0e+308, 120], se_poses: [[0, 0, 0]]}\n",
            "scenario.bounds: every |coordinate| must be <= 1e+150",
        ),
        (
            "scenario: {bounds: [0, 0, 1.0e+300, 1.0e+300]}\ndemo: {archive_raw: true}\n",
            "scenario.bounds: every |coordinate| must be <= 1e+150",
        ),
        (
            "scenario: {sigma_r: 1.0e+308}\ndemo: {archive_raw: true}\n",
            "scenario.sigma_r: must be <= 1e+150",
        ),
    ],
    ids=[
        "jitter-zero",
        "jitter-negative",
        "se-on-track",
        "sigma-r-zero",
        "sigma-beta-underflow",
        "sigma-r-huge-integer",
        "t-steps-huge-integer",
        "sigma-r-past-digit-limit",
        "no-se",
        "bad-lambda",
        "not-utf-8",
        "aging-policy-past-int64",
        "clutter-past-memory",
        "sight-lines-past-memory",
        "bounds-width-overflows",
        "bounds-squares-overflow",
        "sigma-r-past-world-scale",
    ],
)
def test_bad_scenario_exits_2_on_both_commands(tmp_path, capsys, command, text, key):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "sweep" else ["--trace", str(out)]
    assert main([command, "--config", str(path), *target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-store-largest-aging", "late-clock"])
def test_demo_window_past_int64_exits_2(tmp_path, capsys, fresh):
    store = tmp_path / "s.log"
    argv = ["demo", "--trace", str(tmp_path / "t.jsonl"), "--store", str(store)]
    if fresh:
        # The largest aging_policy config accepts, on a store whose clock is 0.
        clock = 0
        config = tmp_path / "age.yaml"
        config.write_text(f"demo:\n  aging_policy: {2**63 - 1}\n")
        argv += ["--config", str(config)]
    else:
        # The default config, on a store whose newest created_at is 200 short of int64's end.
        clock = 2**63 - 200
        records = SdsfStore(store)
        records.set_now(clock)
        area = Rect(0.0, 0.0, 60.0, 120.0)
        context = SensingContext(area, (clock, 2**63 - 1), "unknown")
        records.store("stid-1", context, StaticMap((), area), clock, 199)
    before = store.read_bytes() if store.exists() else None
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: demo.aging_policy: the store clock {clock} ")
    assert err.count("\n") == 1
    assert not (tmp_path / "t.jsonl").exists()
    assert (store.read_bytes() if store.exists() else None) == before
