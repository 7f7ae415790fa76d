"""End-to-end command line tests through cli_main (no subprocesses)."""

import json

import pytest

from hmbo.cli import cli_main


def _lines(text):
    return [ln for ln in text.splitlines() if ln]


def test_oracle_mcf_stdout(capsys):
    rc = cli_main(["oracle", "--mode", "mcf", "--t-end", "0.5", "--samples", "11"])
    out, err = capsys.readouterr()
    assert rc == 0
    lines = _lines(out)
    assert lines[0] == "t,r"
    assert lines[1] == "0,1"
    assert lines[-1] == "0.5,0"
    assert len(lines) == 12
    assert "extinction at t=0.5" in err


def test_oracle_damped_to_file(tmp_path):
    path = tmp_path / "radius.csv"
    rc = cli_main(
        ["oracle", "--mode", "hmcf", "--t-end", "0.3", "--dt", "0.05",
         "--out", str(path)]
    )
    assert rc == 0
    lines = _lines(path.read_text())
    assert lines[0] == "t,r"
    assert len(lines) == 8  # header plus t = 0, 0.05, ..., 0.3
    t_last, r_last = (float(v) for v in lines[-1].split(","))
    assert t_last == pytest.approx(0.3, abs=1e-12)
    assert r_last == pytest.approx(0.958875787327617, abs=1e-6)


def test_oracle_requires_t_end(capsys):
    rc = cli_main(["oracle", "--mode", "mcf"])
    assert rc == 1
    assert "t-end" in capsys.readouterr().err


def test_run_with_config_and_snapshots(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_tau": 10, "grid_sizes": [16]}))
    out = tmp_path / "out"
    rc = cli_main(
        ["run", "--config", str(cfg_path), "--out", str(out),
         "--snapshots", "--max-steps", "3"]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "step 1:" in stdout and "step 3:" in stdout
    assert (out / "run_16.csv").is_file()
    assert (out / "config_echo.json").is_file()
    for k in range(4):
        assert (out / f"interface_step{k}.csv").is_file()
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["max_steps"] == 3
    assert echo["save_interfaces"] is True


def test_run_help_exits_cleanly(capsys):
    rc = cli_main(["run", "--help"])
    assert rc == 0
    assert "usage" in capsys.readouterr().out


def test_convergence_stdout_and_table(tmp_path, capsys):
    out = tmp_path / "study"
    rc = cli_main(
        ["convergence", "--sizes", "16", "--n-tau", "10", "--out", str(out)]
    )
    assert rc == 0
    lines = _lines(capsys.readouterr().out)
    assert lines[0] == "N,ns_tau,err"
    assert lines[1].startswith("16,")
    assert (out / "error_table.csv").read_text().splitlines() == lines[:2]


def test_oracle_stdout_is_the_file(tmp_path, capsys):
    """stdout and --out carry the same t,r CSV bytes."""
    argv = ["oracle", "--mode", "hmcf", "--t-end", "0.3", "--dt", "0.05"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    path = tmp_path / "radius.csv"
    assert cli_main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == out.encode()


def test_damped_study_converges_to_the_damped_law(capsys):
    """The damped study is scored against the RK4 circle law it tracks, so
    its error falls with the grid (it read about 0.53 at both sizes when it
    was scored against the curvature-flow law)."""
    rc = cli_main(["convergence", "--mode", "hmcf", "--sizes", "32,64", "--n-tau", "150"])
    assert rc == 0
    rows = {int(n): float(err) for n, _, err in
            (ln.split(",") for ln in _lines(capsys.readouterr().out)[1:])}
    assert rows[64] < rows[32] / 4
    assert rows[64] < 0.01


def test_convergence_partial_failure_exit_code(capsys):
    rc = cli_main(
        ["convergence", "--sizes", "16,64", "--fixed-dt", "2e-3"]
    )
    out, err = capsys.readouterr()
    assert rc == 2
    assert any(ln.startswith("16,") for ln in _lines(out))
    assert err.count("grid size 64 failed") == 1


def test_validation_errors_exit_one(capsys):
    rc = cli_main(["run", "--r0", "5"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "config_text,extra,key",
    [
        (None, [], None),  # --config names a file that does not exist
        ("{not json", [], None),
        ('{"n_tau": "abc"}', [], "n_tau"),
        ('{"grid_sizes": 16}', [], "grid_sizes"),
        ("{}", ["--sizes", "16,abc"], None),
        ('{"bounds": [-2, 2, "a", 2]}', [], "bounds"),
        ('{"mode": "hmcf", "alpha": "1"}', [], "alpha"),
        ('{"max_steps": "3"}', [], "max_steps"),
        ('{"v0_normal": "0"}', [], "v0_normal"),
        # rejected before any grid job starts, not as a failed grid size
        ("{}", ["--sizes", "16", "--max-steps", "-1"], None),
        ("{}", ["--sizes", "16", "--fixed-dt", "-1"], None),
        ('{"dt_policy": "fixed"}', [], None),  # a key that no longer exists
    ],
    ids=[
        "missing-file", "malformed-json", "n_tau-string", "grid_sizes-scalar", "sizes-flag",
        "bounds-string-entry", "alpha-string", "max_steps-string", "v0_normal-string",
        "max_steps-negative", "fixed_dt-negative", "dt_policy-removed",
    ],
)
def test_bad_config_input_exits_one(tmp_path, capsys, config_text, extra, key):
    cfg_path = tmp_path / "cfg.json"
    if config_text is not None:
        cfg_path.write_text(config_text)
    rc = cli_main(["convergence", "--config", str(cfg_path)] + extra)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(_lines(err)) == 1  # and no "grid size N failed" line
    if key is not None:  # a wrongly typed value is reported with its key
        assert repr(key) in err.splitlines()[0]


def test_bad_config_value_with_out_exits_one(tmp_path, capsys):
    """With --out, too, a wrongly typed value is one error line, no traceback."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"mode": "hmcf", "alpha": "1"}')
    rc = cli_main(["convergence", "--config", str(cfg_path), "--out", str(tmp_path / "study")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _lines(err) == [err.splitlines()[0]] and err.startswith("error:")
    assert "'alpha'" in err


@pytest.mark.parametrize("alpha", ["-1", "0"])
def test_bad_damped_coefficients_exit_one(capsys, alpha):
    """Rejected before any grid job starts, not as a failed grid size."""
    rc = cli_main(["convergence", "--mode", "hmcf", "--alpha", alpha, "--sizes", "16"])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(_lines(err)) == 1 and err.startswith("error:")
    assert "alpha" in err


def test_verify_passes(capsys):
    rc = cli_main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 2


def test_unknown_subcommand(capsys):
    assert cli_main(["frobnicate"]) == 1
