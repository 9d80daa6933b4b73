"""Tests for the command-line interface."""
from __future__ import annotations

import sys

import pytest

from sensefuse import __version__
from sensefuse.cli import main
from sensefuse.harness import BASELINE_G

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
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])


@pytest.mark.parametrize(
    "corrupt",
    [
        _torn,
        lambda path: path.write_text("garbage\n"),
        lambda path: path.write_text('{"magic": "other", "version": 1}\n'),
    ],
    ids=["torn", "garbage", "bad-magic"],
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


def test_unwritable_output_exits_1(tmp_path, small_config, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert main(["sweep", "--config", small_config, "--out", str(out)]) == 1
    assert "i/o error" in capsys.readouterr().err


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
    ],
)
def test_bad_scenario_exits_2_on_both_commands(tmp_path, capsys, command, text, key):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    target = ["--out", str(out)] if command == "sweep" else ["--trace", str(out)]
    assert main([command, "--config", str(path), *target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert err.count("\n") == 1
    assert not out.exists()
