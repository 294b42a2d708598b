"""Command-line behavior: exit codes, determinism, formats, cache wiring."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import harnack
from harnack.cli import (
    EXIT_AUDIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    build_parser,
    config_from_args,
    main,
)


def run_cli(args):
    return main(list(args))


def read_body(path):
    body = json.loads(path.read_text())
    body.pop("timings")
    return body


def test_missing_subcommand_and_unknown_flags_are_usage_errors():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        run_cli(["kernel", "--bogus"])
    assert exc.value.code == EXIT_USAGE


def test_invalid_config_values_exit_2(tmp_path, capsys):
    for args in (
        ["kernel", "--dim", "0"],
        ["kernel", "--dim", "4"],
        ["green", "--r-min", "8", "--r-max", "4"],
        ["kernel", "--tol", "0"],
        ["kernel", "--tol", "inf"],
        ["kernel", "--tol=-inf"],
        ["kernel", "--tol", "nan"],
        ["kernel", "--threads", "0"],
        ["exit", "--seed", "-1"],
        ["exit", "--seed", str(1 << 64)],
    ):
        assert run_cli(args + ["--out", str(tmp_path / "r.json")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_tol_from_the_environment_must_be_finite(tol, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HARNACK_TOL", tol)
    assert run_cli(["kernel", "--dim", "1", "--out", str(tmp_path / "r.json")]) == EXIT_USAGE
    assert "--tol must be a positive finite number" in capsys.readouterr().err


def test_n_max_below_three_is_a_usage_error(tmp_path, capsys):
    # near_diagonal needs n >= 1/L^2 ~ 2.04 at L = 0.7, so --n-max 2 has no admissible time
    assert run_cli(["bounds", "--dim", "1", "--n-max", "2", "--out", str(tmp_path / "r.json")]) == EXIT_USAGE
    assert "--n-max must be >= 3" in capsys.readouterr().err
    RunConfig(command="bounds", n_max=3).validate()


def test_run_config_validation_direct():
    with pytest.raises(UsageError):
        RunConfig(command="kernel", n_max=2).validate()
    with pytest.raises(UsageError, match=r"--seed must be an integer in \[0, 2\^64\)"):
        RunConfig(command="exit", seed=1 << 64).validate()
    RunConfig(command="exit", seed=(1 << 64) - 1).validate()
    with pytest.raises(UsageError):
        RunConfig(command="nope").validate()
    cfg = RunConfig(command="green", r_min=3, r_max=24)
    cfg.validate()
    assert cfg.radius_grid() == [3, 6, 12, 24]


def test_d1_harnack_sweep_example(tmp_path, capsys):
    out = tmp_path / "ehi.json"
    assert run_cli(["ehi", "--dim", "1", "--r-max", "64", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "PASS  ehi.closed_form.d1" in printed
    body = read_body(out)
    assert body["passed"] is True
    closed = next(a for a in body["audits"] if a["audit_id"] == "ehi.closed_form.d1")
    assert closed["constants"]["max_constant"] < 3.0


def test_repeat_runs_are_byte_identical_excluding_timings(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["exit", "--dim", "1", "--r-min", "2", "--r-max", "4", "--seed", "7"]
    assert run_cli(args + ["--out", str(out_a)]) == EXIT_OK
    assert run_cli(args + ["--out", str(out_b)]) == EXIT_OK
    body_a, body_b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
    body_a.pop("timings"), body_b.pop("timings")
    body_a["config"].pop("out"), body_b["config"].pop("out")
    assert json.dumps(body_a, sort_keys=True) == json.dumps(body_b, sort_keys=True)


def test_thread_pool_width_does_not_change_audits(tmp_path, monkeypatch):
    from harnack import kernel

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for base in (
        ["green", "--dim", "1", "--r-min", "2", "--r-max", "4", "--seed", "3"],
        ["bounds", "--dim", "2", "--n-max", "40", "--seed", "3"],
    ):
        for threads, out in (("1", out_a), ("3", out_b)):
            # an empty free-field memo, so three bounds audits walk the one progression at once
            monkeypatch.setattr(kernel, "_FREE", kernel.Memo())
            assert run_cli(base + ["--threads", threads, "--out", str(out)]) == EXIT_OK
        audits_a = json.loads(out_a.read_text())["audits"]
        audits_b = json.loads(out_b.read_text())["audits"]
        assert json.dumps(audits_a, sort_keys=True) == json.dumps(audits_b, sort_keys=True)


def test_environment_overrides_and_flag_precedence(tmp_path, monkeypatch):
    out = tmp_path / "env.json"
    monkeypatch.setenv("HARNACK_DIM", "1")
    monkeypatch.setenv("HARNACK_SEED", "9")
    monkeypatch.setenv("HARNACK_N_MAX", "12")
    assert run_cli(["kernel", "--seed", "4", "--out", str(out)]) == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert config["dim"] == 1  # from environment
    assert config["n_max"] == 12  # from environment
    assert config["seed"] == 4  # explicit flag wins
    monkeypatch.setenv("HARNACK_DIM", "zero")
    assert run_cli(["kernel", "--out", str(out)]) == EXIT_USAGE


ENV_SAMPLES = {  # a raw environment value and its parsed value, per RunConfig field
    "dim": ("1", 1),
    "r_min": ("3", 3),
    "r_max": ("24", 24),
    "n_max": ("12", 12),
    "tol": ("1e-6", 1e-6),
    "seed": ("9", 9),
    "format": ("csv", "csv"),
    "cache_dir": ("kernels", "kernels"),
    "threads": ("2", 2),
    "out": ("r.json", "r.json"),
}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.name != "command"])
def test_every_config_field_is_set_by_its_environment_variable(name, monkeypatch):
    raw, value = ENV_SAMPLES[name]
    monkeypatch.setenv("HARNACK_" + name.upper(), raw)
    args = build_parser().parse_args(["green"])
    assert getattr(config_from_args(args), name) == value
    assert "HARNACK_" + name.upper() in build_parser().epilog


def test_bad_numeric_environment_values_name_their_variable(monkeypatch):
    args = build_parser().parse_args(["green"])
    monkeypatch.setenv("HARNACK_TOL", "small")
    with pytest.raises(UsageError, match="HARNACK_TOL must be a number"):
        config_from_args(args)
    monkeypatch.delenv("HARNACK_TOL")
    monkeypatch.setenv("HARNACK_SEED", "1.5")
    with pytest.raises(UsageError, match="HARNACK_SEED must be an integer"):
        config_from_args(args)


def test_csv_format_writes_summary_and_row_files(tmp_path):
    out = tmp_path / "report_dir"
    args = ["kernel", "--dim", "1", "--n-max", "16", "--format", "csv", "--out", str(out)]
    assert run_cli(args) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == 1
    csv_text = (out / "kernel.exactness.d1.csv").read_text()
    assert csv_text.splitlines()[0] == "n,mass_deviation"
    assert "\r" not in csv_text


def test_audit_failure_exits_1_and_names_the_audit(tmp_path, capsys):
    out = tmp_path / "fail.json"
    args = ["balayage", "--dim", "1", "--r-min", "4", "--r-max", "4",
            "--tol", "1e-30", "--out", str(out)]
    assert run_cli(args) == EXIT_AUDIT_FAILURE
    captured = capsys.readouterr()
    assert "failing audits: balayage.batch.d1" in captured.err
    assert json.loads(out.read_text())["passed"] is False


def test_cache_populate_verify_corrupt_and_clear(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    out = tmp_path / "k.json"
    assert run_cli(["kernel", "--dim", "1", "--n-max", "8",
                    "--cache-dir", str(cache_dir), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert run_cli(["cache", "list", "--cache-dir", str(cache_dir)]) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 9  # free kernels for n = 0..8
    assert run_cli(["cache", "verify", "--cache-dir", str(cache_dir),
                    "--fraction", "1.0"]) == EXIT_OK
    capsys.readouterr()
    # verify's --fraction and --seed have no environment fallback: the
    # default fraction samples one file, and the bad seed is never read
    monkeypatch.setenv("HARNACK_FRACTION", "1.0")
    monkeypatch.setenv("HARNACK_SEED", "-1")
    assert run_cli(["cache", "verify", "--cache-dir", str(cache_dir)]) == EXIT_OK
    assert capsys.readouterr().out == "checked 1 of 9 cache file(s): ok\n"
    victim = sorted(cache_dir.glob("*.zdk"))[0]
    victim.write_bytes(victim.read_bytes()[:-2])
    assert run_cli(["cache", "verify", "--cache-dir", str(cache_dir),
                    "--fraction", "1.0"]) == EXIT_AUDIT_FAILURE
    assert victim.name in capsys.readouterr().err
    assert run_cli(["cache", "clear", "--cache-dir", str(cache_dir)]) == EXIT_OK
    assert list(cache_dir.glob("*.zdk")) == []


@pytest.mark.parametrize("flag,value", [
    ("--fraction", "nan"),
    ("--fraction", "inf"),
    ("--fraction", "0"),
    ("--fraction", "-1"),
    ("--fraction", "1.5"),
    ("--seed", "-1"),
    ("--seed", str(1 << 64)),
])
def test_cache_verify_rejects_bad_fraction_and_seed(tmp_path, capsys, flag, value):
    cache_dir = tmp_path / "cache"
    assert run_cli(["kernel", "--dim", "1", "--n-max", "4", "--cache-dir", str(cache_dir),
                    "--out", str(tmp_path / "k.json")]) == EXIT_OK
    capsys.readouterr()
    assert run_cli(["cache", "verify", "--cache-dir", str(cache_dir), flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("case", ["out_under_a_file", "csv_out_is_a_file", "cache_dir_is_a_file"])
def test_unwritable_report_or_cache_is_an_error_line(tmp_path, capsys, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    args = {
        "out_under_a_file": ["--out", str(blocker / "r.json")],
        "csv_out_is_a_file": ["--format", "csv", "--out", str(blocker)],
        "cache_dir_is_a_file": ["--cache-dir", str(blocker), "--out", str(tmp_path / "r.json")],
    }[case]
    assert run_cli(["kernel", "--dim", "1", "--n-max", "4", *args]) == EXIT_AUDIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker}") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("action", ["list", "verify", "clear"])
def test_unreadable_cache_entry_is_an_error_not_a_traceback(action, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert run_cli(["kernel", "--dim", "1", "--n-max", "4", "--cache-dir", str(cache_dir),
                    "--out", str(tmp_path / "k.json")]) == EXIT_OK
    (cache_dir / "bad.zdk").mkdir()
    capsys.readouterr()
    extra = ["--fraction", "1.0"] if action == "verify" else []
    assert run_cli(["cache", action, "--cache-dir", str(cache_dir), *extra]) == EXIT_AUDIT_FAILURE
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    if action == "verify":
        assert err == "corrupt cache entry: bad.zdk\n"
    else:
        verb = "read" if action == "list" else "remove"
        assert err.startswith(f"error: cannot {verb} {cache_dir / 'bad.zdk'}: ")
    assert (cache_dir / "bad.zdk").is_dir()


@pytest.mark.parametrize("action", ["list", "verify", "clear"])
def test_cache_dir_naming_a_regular_file_is_an_error(action, tmp_path, capsys):
    blocker = tmp_path / "blocker.zdk"
    blocker.write_text("not a directory")
    assert run_cli(["cache", action, "--cache-dir", str(blocker)]) == EXIT_AUDIT_FAILURE
    captured = capsys.readouterr()
    verb = "remove" if action == "clear" else "read"
    assert captured.err == f"error: cannot {verb} {blocker}: Not a directory\n"
    assert captured.out == ""
    assert blocker.read_text() == "not a directory"


def test_missing_cache_dir_is_an_empty_cache(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run_cli(["cache", "verify", "--cache-dir", str(missing)]) == EXIT_OK
    assert capsys.readouterr().out == "checked 0 of 0 cache file(s): ok\n"
    assert run_cli(["cache", "list", "--cache-dir", str(missing)]) == EXIT_OK
    assert capsys.readouterr().out == "[]\n"
    assert not missing.exists()


def test_cache_without_directory_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("HARNACK_CACHE_DIR", raising=False)
    assert run_cli(["cache", "list"]) == EXIT_USAGE
    assert "cache-dir" in capsys.readouterr().err


def test_python_dash_m_harnack_runs_the_cli():
    src = str(Path(harnack.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "harnack", "--help"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "all" in done.stdout
