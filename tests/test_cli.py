"""End-to-end command line tests through cli_main (no subprocesses)."""

import json

import pytest

from hmbo import flow, harness, oracles
from hmbo.cli import cli_main
from hmbo.errors import NumericalError
from hmbo.harness import ExperimentConfig, build_run


def _lines(text):
    return [ln for ln in text.splitlines() if ln]


@pytest.fixture
def no_grid_runs(monkeypatch):
    """Fail at once, rather than run or hang, if any grid of the command runs."""

    def ran(*args, **kwargs):
        raise AssertionError("a grid ran")

    monkeypatch.setattr(harness, "run_flow", ran)


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


def test_oracle_mcf_reads_gamma(capsys):
    """The closed form has mobility gamma, r^2 = r0^2 - 2 gamma t, so with
    gamma = 2 the unit circle is extinct at t = 0.25."""
    rc = cli_main(["oracle", "--mode", "mcf", "--t-end", "0.5", "--samples", "3", "--gamma", "2"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert _lines(out) == ["t,r", "0,1", "0.25,0", "0.5,0"]
    assert err == "extinction at t=0.25\n"


@pytest.mark.parametrize("gamma", ["0", "-1"])
def test_oracle_mcf_rejects_nonpositive_gamma(capsys, gamma):
    rc = cli_main(["oracle", "--mode", "mcf", "--t-end", "0.5", "--gamma", gamma])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert _lines(err) == [err.splitlines()[0]] and err.startswith("error: gamma")


@pytest.mark.parametrize(
    "argv,unread",
    [
        (["--mode", "mcf", "--t-end", "0.5", "--samples", "3", "--dt", "0.2", "--alpha", "7"], ["--dt", "--alpha"]),
        (["--mode", "mcf", "--t-end", "0.5", "--rdot0", "5"], ["--rdot0"]),
        (["--mode", "mcf", "--t-end", "0.5", "--beta", "1"], ["--beta"]),  # even at its default
        (["--mode", "hmcf", "--t-end", "0.1", "--samples", "5"], ["--samples"]),
    ],
    ids=["mcf-dt-alpha", "mcf-rdot0", "mcf-beta", "hmcf-samples"],
)
def test_oracle_rejects_flags_its_mode_does_not_read(tmp_path, capsys, argv, unread):
    """A flag the chosen mode does not read is bad input, not silently
    ignored: one error line naming it, exit code 1 and no output file."""
    out = tmp_path / "radius.csv"
    rc = cli_main(["oracle"] + argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert _lines(err) == [err.splitlines()[0]] and err.startswith("error:")
    assert all(flag in err for flag in unread)
    assert not out.exists()


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


@pytest.mark.parametrize("r0", ["1e-150", "1e-200"])
def test_oracle_damped_resolves_a_tiny_circle(capsys, r0):
    """A circle far smaller than the RK4 step vanishes after
    r0*sqrt(pi/2) at unit coefficients; the reference bisects the step that
    crosses zero and reports that time, with exit code 0."""
    rc = cli_main(["oracle", "--mode", "hmcf", "--t-end", "0.1", "--dt", "0.05", "--r0", r0])
    out, err = capsys.readouterr()
    assert rc == 0
    assert _lines(out) == ["t,r", f"0,{float(r0):.17g}"]
    assert err.startswith("extinction at t=1.25") and err.endswith(r0[1:] + "\n")


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


def test_run_snapshots_without_out_exits_one(tmp_path, monkeypatch, capsys):
    """--snapshots without --out would keep every step's curve and write
    none: one error line and exit code 1 before the run, and no files."""
    monkeypatch.chdir(tmp_path)
    rc = cli_main(["run", "--n", "16", "--snapshots"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert _lines(err) == [err.splitlines()[0]] and err.startswith("error: 'save_interfaces'")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_widest_bounds_run(tmp_path, capsys, mode):
    """Bounds of +-4.7e153, a squared diagonal of 1.77e308, just inside the
    largest double: three steps run with exit code 0, and no RuntimeWarning,
    which is an error in the test suite."""
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text('{"bounds": [-4.7e153, 4.7e153, -4.7e153, 4.7e153]}')
    rc = cli_main(["convergence", "--config", str(cfg_path), "--mode", mode,
                   "--sizes", "17", "--n-tau", "5", "--max-steps", "3"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out.startswith("N,ns_tau,err\n17,")
    assert "error" not in err and "failed" not in err


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


@pytest.mark.parametrize("mode", ["mcf", "hmcf"])
def test_a_corner_study_runs_by_the_circles_law(tmp_path, capsys, mode):
    """A quarter circle centred on a corner of the box, whose walls are its
    mirror lines, runs in either mode with exit code 0; in mcf its error
    against the circle's law falls from N = 32 to N = 64."""
    cfg_path = tmp_path / "corner.json"
    cfg_path.write_text('{"bounds": [0, 2, 0, 2]}')
    rc = cli_main(["convergence", "--config", str(cfg_path), "--mode", mode, "--sizes", "32,64", "--n-tau", "20"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "error" not in err and "failed" not in err
    rows = {int(n): float(e) for n, _, e in (ln.split(",") for ln in _lines(out)[1:])}
    assert sorted(rows) == [32, 64]
    if mode == "mcf":
        assert rows[64] < rows[32]


def test_convergence_partial_failure_exit_code(fail_at_64, capsys):
    rc = cli_main(["convergence", "--sizes", "16,64", "--n-tau", "10"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert any(ln.startswith("16,") for ln in _lines(out))
    assert err.count("grid size 64 failed") == 1


def test_a_size_whose_scoring_fails_is_that_sizes_failure(tmp_path, monkeypatch, capsys):
    """A size's run goes to the pool and its scoring to the ordered merge; a
    scoring error is that size's failure, as a failed run is, and the other
    sizes keep their rows and radius logs."""
    radius_history = harness.radius_history

    def flaky(cfg, records, d0):
        if d0.grid.nx == 32:
            raise NumericalError("radius of a broken interface")
        return radius_history(cfg, records, d0)

    monkeypatch.setattr(harness, "radius_history", flaky)
    out = tmp_path / "d"
    rc = cli_main(["convergence", "--sizes", "16,32,64", "--n-tau", "10", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "grid size 32 failed: radius of a broken interface" in err
    table = (out / "error_table.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in table] == ["N", "16", "64"]
    assert (out / "run_16.csv").exists() and (out / "run_64.csv").exists()
    assert not (out / "run_32.csv").exists()


def test_run_reads_no_rk4_reference(capsys):
    """hmbo run computes no RK4 reference, so an alpha/beta below its floor
    runs (the study of the same config exits 1, test_bad_config_input_exits_one)."""
    rc = cli_main(["run", "--mode", "hmcf", "--alpha", "1e-8", "--n", "16", "--n-tau", "20", "--max-steps", "2"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == ""
    assert out.startswith("step 1: t=0.025 ")


def test_non_extinct_row_is_marked_on_stderr(tmp_path, capsys):
    """A row whose circle never went extinct reports ns_tau = max_steps*tau
    (here 40 steps of 0.025); one stderr line says so, and the exit code and
    the table's three columns stay as they are."""
    rc = cli_main(["convergence", "--mode", "hmcf", "--sizes", "16", "--n-tau", "20", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == "grid size 16: no extinction within 40 steps; ns_tau is max_steps*tau\n"
    assert _lines(out)[1].startswith("16,1,")
    assert (tmp_path / "error_table.csv").read_text().splitlines() == _lines(out)[:2]


def test_a_study_builds_each_size_once(tmp_path, monkeypatch, capsys):
    """A command builds the grid and d0 of each size it runs once, and no
    other size's (a study built each size's grid four times and its d0
    twice; hmbo run built all five default sizes to run the first)."""
    calls = {"make_grid": 0, "field_from_function": 0}
    for name in calls:
        def counted(*args, _f=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    rc = cli_main(["convergence", "--mode", "hmcf", "--sizes", "16,32", "--n-tau", "20",
                   "--max-steps", "2", "--out", str(tmp_path / "study")])
    err = capsys.readouterr().err
    assert rc == 0
    assert err.count("no extinction within 2 steps") == 2
    assert calls == {"make_grid": 2, "field_from_function": 2}
    calls.update(make_grid=0, field_from_function=0)
    rc = cli_main(["run", "--n-tau", "10", "--max-steps", "1", "--out", str(tmp_path / "run")])  # default sizes
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out.startswith("step 1:")
    assert calls == {"make_grid": 1, "field_from_function": 1}


def test_run_builds_and_checks_only_the_size_it_runs(capsys):
    """hmbo run checks only the first size: a damped step at alpha = 1e-9
    takes 1581 leapfrog substeps on its 16x16 grid, within the ceiling, but
    13,400 on the 128x128 grid of the default sizes, which it never runs."""
    rc = cli_main(["run", "--mode", "hmcf", "--alpha", "1e-9", "--beta", "0", "--max-steps", "1"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == ""
    assert out.startswith("step 1:")


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["convergence", "--mode", "hmcf", "--sizes", "16,32", "--n-tau", "10", "--max-steps", "2"],
         ExperimentConfig(mode="hmcf", grid_sizes=(16, 32), n_tau=10, max_steps=2)),
        (["run", "--n", "12", "--n-tau", "10"], ExperimentConfig(grid_sizes=(12,), n_tau=10)),
    ],
    ids=["study", "run"],
)
def test_config_echo_derives_each_size_as_build_run(tmp_path, capsys, argv, cfg):
    """The echo's derived block holds tau and, per size, the dx, c2, dt and
    max_steps of that size's run, exactly (JSON keeps a double's repr)."""
    assert cli_main(argv + ["--out", str(tmp_path)]) == 0
    derived = json.loads((tmp_path / "config_echo.json").read_text())["derived"]
    assert set(derived) == {"tau"} | {str(n) for n in cfg.grid_sizes}
    assert derived["tau"] == cfg.tau
    for n in cfg.grid_sizes:
        run = build_run(cfg, n)[0]
        assert derived[str(n)] == {"dx": run.grid.dx, "c2": run.c2, "dt": run.dt, "max_steps": run.max_steps}


@pytest.mark.parametrize(
    "argv, module, name, msg",
    [
        (["oracle", "--mode", "mcf", "--t-end", "0.5"], oracles.np, "linspace",
         "Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and data type float64"),
        (["oracle", "--mode", "hmcf", "--t-end", "0.3", "--dt", "0.05"], oracles.np, "arange",
         "Unable to allocate 72.8 TiB for an array with shape (10000000000001,) and data type int64"),
        (["convergence", "--sizes", "16", "--n-tau", "5"], harness, "field_from_function", ""),
        (["run", "--n", "16", "--n-tau", "5"], harness, "field_from_function", ""),
    ],
    ids=["oracle-mcf", "oracle-hmcf", "convergence", "run"],
)
def test_a_request_too_large_to_allocate_exits_one(tmp_path, monkeypatch, capsys, no_grid_runs,
                                                    argv, module, name, msg):
    """A MemoryError is one error line and exit code 1, not a traceback, and
    the damped oracle allocates its sample lattice at once (it grew a list
    toward the full length).  The allocation fails by a patch: no test asks
    for a really oversized one, which an overcommitting kernel might grant."""
    def no_memory(*args, **kwargs):
        raise MemoryError(msg)

    monkeypatch.setattr(module, name, no_memory)
    monkeypatch.chdir(tmp_path)
    rc = cli_main(argv + ["--out", "out"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"error: {msg or 'out of memory'}\n"
    assert list(tmp_path.iterdir()) == []


def test_mcf_initial_speed_exits_one_before_any_grid_runs(tmp_path, capsys):
    """An mcf run reads no initial speed, so a nonzero --v0 is bad input:
    one error line naming v0_normal, exit code 1 and no output directory,
    not a table equal to the one without --v0."""
    out = tmp_path / "d"
    rc = cli_main(["convergence", "--sizes", "16,64", "--v0", "0.5", "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 1
    assert stdout == ""
    assert _lines(err) == [err.splitlines()[0]] and err.startswith("error: 'v0_normal'")
    assert not out.exists()


def test_removed_fixed_dt_flag_exits_one(capsys):
    """The substep is derived, never set: --fixed-dt is not a flag."""
    rc = cli_main(["convergence", "--sizes", "16", "--fixed-dt", "1e-3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unrecognized arguments: --fixed-dt 1e-3" in err
    assert "Traceback" not in err


def test_validation_errors_exit_one(capsys):
    rc = cli_main(["run", "--r0", "5"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "command,config_text,extra,key",
    [
        ("convergence", None, [], None),  # --config names a file that does not exist
        ("convergence", "{not json", [], None),
        ("run", "[16, 32]", [], None),  # a JSON array, not an object
        ("convergence", '{"n_tau": "abc"}', [], "n_tau"),
        ("convergence", '{"grid_sizes": 16}', [], "grid_sizes"),
        ("convergence", "{}", ["--sizes", "16,abc"], None),
        ("convergence", '{"bounds": [-2, 2, "a", 2]}', [], "bounds"),
        ("convergence", '{"mode": "hmcf", "alpha": "1"}', [], "alpha"),
        ("convergence", '{"max_steps": "3"}', [], "max_steps"),
        ("convergence", '{"v0_normal": "0"}', [], "v0_normal"),
        # rejected before any grid job starts, not as a failed grid size
        ("convergence", "{}", ["--sizes", "16", "--max-steps", "-1"], None),
        ("convergence", '{"dt_policy": "fixed"}', [], None),  # keys that no longer exist
        ("convergence", '{"fixed_dt": 0.001}', [], None),
        # an mcf run reads no initial speed, in a flag or in the file
        ("convergence", "{}", ["--sizes", "16", "--v0", "0.5"], "v0_normal"),
        ("convergence", '{"v0_normal": -0.5}', ["--sizes", "16"], "v0_normal"),
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
        # an integer past a double's range, in the file or a flag
        ("convergence", '{"n_tau": 1' + "0" * 400 + "}", ["--sizes", "16"], "n_tau"),
        ("run", "{}", ["--n", "1" + "0" * 400], "grid_sizes"),
        ("convergence", "{}", ["--sizes", "16,1" + "0" * 400], "grid_sizes"),
        ("convergence", "{}", ["--sizes", "16", "--max-steps", "1" + "0" * 400], "max_steps"),
        # in a double's range, but so fine a grid that its spacing squared underflows
        ("convergence", "{}", ["--sizes", "16,1" + "0" * 200], None),
        # so wide a grid that its squared diagonal overflows, with its spacing
        # squared (1e160) or without it (1e155: dx = 1.25e154 squares finely)
        ("convergence", '{"bounds": [-1e160, 1e160, -1e160, 1e160]}', ["--sizes", "17"], None),
        ("convergence", '{"bounds": [-1e155, 1e155, -1e155, 1e155]}', ["--sizes", "17", "--n-tau", "5"], None),
        # a study writes no interface snapshots
        ("convergence", '{"save_interfaces": true}', ["--sizes", "16", "--n-tau", "20"], "save_interfaces"),
        # per grid size: a circle between the nodes of the N = 16 grid (N = 17
        # has a node at its centre), a damped start whose offset level set is
        # empty, and a size given twice
        ("convergence", "{}", ["--sizes", "16,17", "--r0", "0.01"], 16),
        ("run", "{}", ["--n", "16", "--r0", "0.01"], 16),
        ("convergence", '{"mode": "hmcf"}', ["--sizes", "16,32", "--n-tau", "20", "--v0", "1000"], 16),
        ("convergence", "{}", ["--sizes", "16,16"], "grid_sizes"),
        # a step of 3.75e149 leapfrog substeps at N = 16 (c2 = 2*gamma/alpha
        # = 2e300), past the ceiling; and a circle so large that tau = 1e305
        # overflows the wave data's scalars
        ("convergence", '{"mode": "hmcf"}', ["--alpha", "1e-300", "--sizes", "16", "--n-tau", "20"], None),
        # alpha/beta = 1e-8 is within the substep ceiling (3.8e3 per step at
        # N = 16) but asks the RK4 reference for a step below its floor
        ("convergence", '{"mode": "hmcf"}', ["--alpha", "1e-8", "--sizes", "16", "--n-tau", "20"], None),
        ("convergence", '{"bounds": [-4.7e153, 4.7e153, -4.7e153, 4.7e153], "r0": 1e153}',
         ["--sizes", "17", "--n-tau", "5"], None),
        # a squared wave speed or a tau that underflows to 0 or overflows,
        # reported with the inputs it comes from
        ("run", "{}", ["--n", "16", "--n-tau", "5", "--max-steps", "1", "--gamma", "1e-300"], ("gamma",)),
        ("run", "{}", ["--n", "16", "--n-tau", "5", "--max-steps", "1", "--gamma", "1e200"], ("gamma",)),
        ("run", "{}", ["--n", "16", "--n-tau", "5", "--max-steps", "1", "--mode", "hmcf", "--gamma", "1e-320",
                       "--alpha", "1e10"], ("r0", "gamma", "n_tau")),
        ("run", "{}", ["--n", "16", "--n-tau", "5", "--max-steps", "1", "--mode", "hmcf", "--gamma", "1e-300",
                       "--alpha", "1e30"], ("gamma", "alpha")),
        ("run", "{}", ["--n", "16", "--n-tau", "5", "--max-steps", "1", "--mode", "hmcf", "--alpha", "5e-324"],
         ("gamma", "alpha")),
        ("run", "{}", ["--n", "16", "--n-tau", "5", "--max-steps", "1", "--mode", "hmcf", "--alpha", "1e-310"],
         ("gamma", "alpha")),
        ("run", "{}", ["--n", "16", "--n-tau", "5", "--max-steps", "1", "--gamma", "1e300", "--r0", "1e-100"],
         ("r0", "gamma", "n_tau")),
    ],
    ids=[
        "missing-file", "malformed-json", "config-array", "n_tau-string", "grid_sizes-scalar", "sizes-flag",
        "bounds-string-entry", "alpha-string", "max_steps-string", "v0_normal-string",
        "max_steps-negative", "dt_policy-removed", "fixed_dt-removed",
        "mcf-v0-flag", "mcf-v0_normal-key", "run-n-too-small",
        "r0-nan", "gamma-nan", "alpha-nan", "beta-nan", "v0_normal-nan", "v0_normal-inf",
        "config-r0-nan", "config-bounds-inf", "config-gamma-huge-int",
        "config-n_tau-huge-int", "run-n-huge-int", "sizes-huge-int", "max_steps-huge-int",
        "sizes-spacing-underflow", "bounds-spacing-overflow", "bounds-diagonal-overflow",
        "convergence-save_interfaces",
        "circle-between-nodes", "run-circle-between-nodes", "hmcf-offset-empty", "sizes-repeated",
        "hmcf-substeps-past-ceiling", "hmcf-rk4-below-floor", "wave-data-overflow",
        "mcf-c2-underflow", "mcf-c2-overflow", "hmcf-tau-overflow", "hmcf-c2-underflow", "hmcf-c2-overflow-subnormal-alpha",
        "hmcf-c2-overflow", "tau-underflow",
    ],
)
def test_bad_config_input_exits_one(tmp_path, capsys, no_grid_runs, command, config_text, extra, key):
    cfg_path = tmp_path / "cfg.json"
    if config_text is not None:
        cfg_path.write_text(config_text)
    out = tmp_path / "out"
    rc = cli_main([command, "--config", str(cfg_path), "--out", str(out)] + extra)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(_lines(err)) == 1  # and no "grid size N failed" line
    if isinstance(key, int):  # a bad grid size is reported with the size
        assert f"grid size {key}:" in err
    elif isinstance(key, tuple):  # derived data out of range, reported with its inputs
        assert all(f"{k} = " in err for k in key)
        assert "c2" not in err and "dt" not in err
    elif key is not None:  # a wrongly typed value is reported with its key
        assert repr(key) in err.splitlines()[0]
    assert not out.exists()  # rejected before any output is written


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
    assert "grid" not in err  # the coefficients depend on no grid size


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "mcf", "--t-end", "0.5", "--r0", "nan"],
        ["--mode", "mcf", "--t-end", "inf"],
        ["--mode", "mcf", "--t-end", "0.5", "--gamma", "nan"],
        ["--mode", "hmcf", "--t-end", "0.1", "--dt", "0.05", "--alpha", "nan"],
        ["--mode", "hmcf", "--t-end", "0.1", "--dt", "0.05", "--rdot0", "nan"],
        ["--mode", "hmcf", "--t-end", "inf"],
        ["--mode", "mcf", "--t-end", "1", "--samples", "2", "--r0", "1e200"],
        ["--mode", "mcf", "--t-end", "1", "--samples", "2", "--r0", "1e-200"],
        ["--mode", "mcf", "--t-end", "1", "--samples", "2", "--r0", "1e-100", "--gamma", "1e200"],
        ["--mode", "hmcf", "--t-end", "0.1", "--dt", "0.05", "--r0", "1e-200", "--gamma", "1e300"],
    ],
    ids=["mcf-r0-nan", "mcf-t_end-inf", "mcf-gamma-nan", "hmcf-alpha-nan", "hmcf-rdot0-nan", "hmcf-t_end-inf",
         "mcf-r0-squared-overflows", "mcf-r0-squared-underflows", "mcf-extinction-time-underflows",
         "hmcf-extinction-time-underflows"],
)
def test_non_finite_oracle_input_exits_one(capsys, argv):
    """A NaN or infinite number, an mcf r0 whose square overflows or
    underflows, or a circle whose extinction time underflows (in mcf
    0.5*r0^2/gamma, in the damped mode a time of about 1e-350 that even
    the RK4 reference's step of 5e-324 crosses), is bad input: one error
    line and exit code 1, not a NaN or inf table, a radius of 0 at t = 0,
    an extinction at t = 0 with a positive radius there, a made-up
    extinction time or a traceback."""
    rc = cli_main(["oracle"] + argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert _lines(err) == [err.splitlines()[0]] and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--mode", "hmcf", "--t-end", "0.3", "--dt", "0.05", "--out", "afile/x.csv"],
        ["run", "--n", "16", "--n-tau", "5", "--out", "afile/d"],
        ["convergence", "--sizes", "16,32", "--n-tau", "20", "--out", "afile/d"],
    ],
    ids=["oracle", "run", "convergence"],
)
def test_unwritable_out_exits_one_before_any_grid_runs(tmp_path, monkeypatch, capsys, no_grid_runs, argv):
    """An --out below a regular file is one error line and exit code 1, not a
    traceback; run and convergence find it out before any grid runs."""
    (tmp_path / "afile").write_text("")
    monkeypatch.chdir(tmp_path)
    rc = cli_main(argv)
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert _lines(err) == [err.splitlines()[0]] and err.startswith("error:")
    assert "afile" in err and "Traceback" not in err


def test_verify_passes(capsys):
    rc = cli_main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 2


def test_a_missed_moment_identity_fails_verify(monkeypatch, capsys):
    """A quadrature that misses the moment identities by more than 1e-6
    (here 1e-3 relative on every ut0-only evaluation) turns verify's first
    line into [FAIL], followed by one line for each case it misses, with
    its values; the solver check still passes, and verify exits 2."""
    poisson_eval = harness.poisson_eval

    def off(u0_fn, grad_u0_fn, ut0_fn, *args):
        got = poisson_eval(u0_fn, grad_u0_fn, ut0_fn, *args)
        return got * (1.0 + 1e-3) if u0_fn is None else got

    monkeypatch.setattr(harness, "poisson_eval", off)
    rc = cli_main(["verify"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 2
    assert out[0].startswith("[FAIL] moment identities: worst rel err 1.000e-03")
    assert len(out) > 2 and out[-1].startswith("[PASS] solver vs disk quadrature")
    assert all(line.startswith("       ") and " got " in line and " want " in line for line in out[1:-1])


def test_a_breakdown_under_run_exits_two(monkeypatch, capsys):
    """A NumericalError in the first wave solve of `hmbo run` ends it with
    exit code 2 and one line that names the step and the stage."""
    def broken(*args, **kwargs):
        raise NumericalError("non-finite field values at substep 2")

    monkeypatch.setattr(flow, "wave_solve", broken)
    rc = cli_main(["run", "--n", "16", "--max-steps", "2"])
    assert rc == 2
    assert _lines(capsys.readouterr().err) == ["numerical failure: step 1, propagate: non-finite field values at substep 2"]


def test_unknown_subcommand(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_a_numerical_breakdown_names_the_size_step_and_stage(monkeypatch, capsys):
    """A NumericalError in a study's third wave solve (the 16-node run's
    third step, with one worker) is that size's failure line, naming the
    step and the stage, and the study exits 2."""
    calls, wave_solve = [], flow.wave_solve

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NumericalError("non-finite field values at substep 2")
        return wave_solve(*args, **kwargs)

    monkeypatch.setattr(flow, "wave_solve", flaky)
    monkeypatch.setenv(harness.THREADS_ENV, "1")
    rc = cli_main(["convergence", "--sizes", "16", "--n-tau", "10"])
    err = capsys.readouterr().err
    assert rc == 2
    assert _lines(err) == ["grid size 16 failed: step 3, propagate: non-finite field values at substep 2"]


def test_an_integer_radius_whose_square_overflows_exits_one(tmp_path, capsys, no_grid_runs):
    """An integer r0 of 10^200 fits a double, but r0^2 does not: tau is
    formed in doubles, overflows to inf and is rejected with one error line
    and exit code 1 (squared as an integer, it crashed the division with an
    OverflowError traceback)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bounds": [-1e300, 1e300, -1e300, 1e300], "r0": 10**200}))
    rc = cli_main(["run", "--config", str(cfg_path), "--n", "16", "--max-steps", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(_lines(err)) == 1
    assert err.startswith("error: tau = r0^2/(2*gamma*n_tau) = inf is no positive finite double")


@pytest.mark.parametrize("argv", [["convergence", "--sizes", "16,32", "--n-tau", "10"],
                                  ["run", "--n", "385", "--max-steps", "1"],
                                  ["run", "--n", "16", "--max-steps", "1"]],
                         ids=["study", "run-on-strips", "run-on-one-strip"])
def test_a_bad_thread_count_exits_one(monkeypatch, capsys, argv):
    """HMCF_THREADS is read in one place, which only a solve on strips
    (N = 385, above the strip threshold) uses, and checked as each run is
    built: a value that is no integer exits 1 with one error line, also in
    a study and on a grid whose solves never read it (N = 16)."""
    monkeypatch.setenv(harness.THREADS_ENV, "abc")
    rc = cli_main(argv)
    assert rc == 1
    assert _lines(capsys.readouterr().err) == ["error: HMCF_THREADS must be an integer, got 'abc'"]
