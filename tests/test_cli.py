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


def test_run_n_overrides_the_config_grid_sizes(tmp_path, capsys):
    """--n N stands for grid_sizes=(N,), over the config file's sizes."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_tau": 10, "grid_sizes": [16, 32]}))
    out = tmp_path / "out"
    rc = cli_main(["run", "--config", str(cfg_path), "--n", "12", "--max-steps", "1", "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["config_echo.json", "run_12.csv"]
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["grid_sizes"] == [12]
    assert set(echo["derived"]) == {"tau", "12"}


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
    "command,config_text,extra,key",
    [
        ("convergence", None, [], None),  # --config names a file that does not exist
        ("convergence", "{not json", [], None),
        ("convergence", '{"n_tau": "abc"}', [], "n_tau"),
        ("convergence", '{"grid_sizes": 16}', [], "grid_sizes"),
        ("convergence", "{}", ["--sizes", "16,abc"], None),
        ("convergence", '{"bounds": [-2, 2, "a", 2]}', [], "bounds"),
        ("convergence", '{"mode": "hmcf", "alpha": "1"}', [], "alpha"),
        ("convergence", '{"max_steps": "3"}', [], "max_steps"),
        ("convergence", '{"v0_normal": "0"}', [], "v0_normal"),
        # rejected before any grid job starts, not as a failed grid size
        ("convergence", "{}", ["--sizes", "16", "--max-steps", "-1"], None),
        ("convergence", "{}", ["--sizes", "16", "--fixed-dt", "-1"], None),
        ("convergence", '{"dt_policy": "fixed"}', [], None),  # a key that no longer exists
        ("run", "{}", ["--n", "4"], None),  # the grid-size rule of --sizes
        # a real must be finite, in a flag or in the file
        ("convergence", "{}", ["--sizes", "16", "--r0", "nan"], "r0"),
        ("convergence", '{"mode": "hmcf"}', ["--sizes", "16", "--gamma", "nan"], "gamma"),
        ("convergence", '{"mode": "hmcf"}', ["--sizes", "16", "--alpha", "nan"], "alpha"),
        ("convergence", '{"mode": "hmcf"}', ["--sizes", "16", "--beta", "nan"], "beta"),
        ("convergence", '{"mode": "hmcf"}', ["--sizes", "16", "--v0", "nan"], "v0_normal"),
        ("convergence", '{"mode": "hmcf"}', ["--sizes", "16", "--v0", "inf"], "v0_normal"),
        ("convergence", '{"r0": NaN}', ["--sizes", "16"], "r0"),
        ("convergence", '{"bounds": [-2, 2, -2, Infinity]}', ["--sizes", "16"], "bounds"),
        ("convergence", '{"gamma": 1' + "0" * 400 + "}", ["--sizes", "16"], "gamma"),  # past a double
    ],
    ids=[
        "missing-file", "malformed-json", "n_tau-string", "grid_sizes-scalar", "sizes-flag",
        "bounds-string-entry", "alpha-string", "max_steps-string", "v0_normal-string",
        "max_steps-negative", "fixed_dt-negative", "dt_policy-removed", "run-n-too-small",
        "r0-nan", "gamma-nan", "alpha-nan", "beta-nan", "v0_normal-nan", "v0_normal-inf",
        "config-r0-nan", "config-bounds-inf", "config-gamma-huge-int",
    ],
)
def test_bad_config_input_exits_one(tmp_path, capsys, command, config_text, extra, key):
    cfg_path = tmp_path / "cfg.json"
    if config_text is not None:
        cfg_path.write_text(config_text)
    rc = cli_main([command, "--config", str(cfg_path)] + extra)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "mcf", "--t-end", "0.5", "--r0", "nan"],
        ["--mode", "mcf", "--t-end", "inf"],
        ["--mode", "hmcf", "--t-end", "0.1", "--dt", "0.05", "--alpha", "nan"],
        ["--mode", "hmcf", "--t-end", "0.1", "--dt", "0.05", "--rdot0", "nan"],
        ["--mode", "hmcf", "--t-end", "inf"],
    ],
    ids=["mcf-r0-nan", "mcf-t_end-inf", "hmcf-alpha-nan", "hmcf-rdot0-nan", "hmcf-t_end-inf"],
)
def test_non_finite_oracle_input_exits_one(capsys, argv):
    """A NaN or infinite number is bad input: one error line and exit code 1,
    not a NaN table, a made-up extinction time or a traceback."""
    rc = cli_main(["oracle"] + argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert _lines(err) == [err.splitlines()[0]] and err.startswith("error:")


def test_verify_passes(capsys):
    rc = cli_main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 2


def test_unknown_subcommand(capsys):
    assert cli_main(["frobnicate"]) == 1
