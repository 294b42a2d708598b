"""Command-line behavior: exit codes, determinism, formats, cache wiring."""

import json

import pytest

from harnack.cli import EXIT_AUDIT_FAILURE, EXIT_OK, EXIT_USAGE, RunConfig, UsageError, main


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
        ["kernel", "--threads", "0"],
        ["exit", "--seed", "-1"],
    ):
        assert run_cli(args + ["--out", str(tmp_path / "r.json")]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


def test_run_config_validation_direct():
    with pytest.raises(UsageError):
        RunConfig(command="kernel", n_max=1).validate()
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


def test_thread_pool_width_does_not_change_audits(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["green", "--dim", "1", "--r-min", "2", "--r-max", "4", "--seed", "3"]
    assert run_cli(base + ["--threads", "1", "--out", str(out_a)]) == EXIT_OK
    assert run_cli(base + ["--threads", "3", "--out", str(out_b)]) == EXIT_OK
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


def test_cache_populate_verify_corrupt_and_clear(tmp_path, capsys):
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


def test_cache_without_directory_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("HARNACK_CACHE_DIR", raising=False)
    assert run_cli(["cache", "list"]) == EXIT_USAGE
    assert "cache-dir" in capsys.readouterr().err
