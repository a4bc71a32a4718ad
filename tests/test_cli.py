import contextlib
import io
import json
import math
import os
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from greencell import cli, fixedpoint, optimizer
from greencell.config import config_hash, load_config
from greencell.montecarlo import EPS, window
from greencell.numerics import NumericError
from greencell.qbd import SolverError

from conftest import CONFIG_PATH
from oracles import read_csv

SMALL = {
    "p0_static": 56.0,
    "delta_p": 2.6,
    "p_trans": 6.3,
    "n_channels": 4,
    "t_levels": 3,
    "lambda_b": 1.0,
    "lambda_u1": 5.0,
    "lambda_p": 1.0,
    "lambda_u2": 1.0,
    "hotspot_radius": 2.0,
    "alpha": 4.0,
    "noise_power": 1e-7,
    "tau": 0.1,
    "mu": 2.0,
    "omega": 1.0,
    "nu": 40.0,
    "static_drain_override": 25.0,
}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def run(argv):
    return cli.main(argv)


def run_without_runtime_warnings(argv):
    """Run the CLI, failing if numpy raised a RuntimeWarning, which would print to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return code


def baseline_with(tmp_path, **overrides):
    with open(CONFIG_PATH) as fh:
        cfg = json.load(fh)
    cfg.update(overrides)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestErrorPaths:
    def test_missing_config(self, tmp_path, capsys):
        code = run(["analyze", str(tmp_path / "nope.json"), "--out",
                    str(tmp_path / "o.csv"), "--beta", "1"])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bias_flags_are_exclusive(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "o.csv")
        assert run(["analyze", cfg_path, "--out", out]) == cli.EXIT_CONFIG
        bias_file = tmp_path / "bias.json"
        bias_file.write_text("[1, 2, 3, 4]")
        assert run(["analyze", cfg_path, "--out", out, "--beta", "1",
                    "--bias-file", str(bias_file)]) == cli.EXIT_CONFIG

    def test_bad_bias_file_length(self, cfg_path, tmp_path, capsys):
        # A wrong length, or an entry that is not a number (no coercion).
        bias_file = tmp_path / "bias.json"
        for text in ["[1, 2]", "[1, null, 3, 4]", '[1, "2", 3, 4]', "[1, true, 3, 4]",
                     "[1, [2], 3, 4]"]:
            bias_file.write_text(text)
            code = run(["analyze", cfg_path, "--out", str(tmp_path / "o.csv"),
                        "--bias-file", str(bias_file)])
            assert code == cli.EXIT_CONFIG, text
            assert "array of 4 numbers" in capsys.readouterr().err, text

    def test_overflowing_bias_ratio_is_a_config_error(self, tmp_path, capsys):
        bias_file = tmp_path / "bias.json"
        bias_file.write_text(json.dumps([1.0, 1e300, 1e-300] + [1.0] * 8))
        code = run_without_runtime_warnings(["analyze", str(CONFIG_PATH), "--out",
                                             str(tmp_path / "o.csv"), "--bias-file", str(bias_file)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: bias ratio max/min = 1e+300/1e-300 overflows a float" in err
        assert "RuntimeWarning" not in err

    def test_overflowing_interference_argument_is_a_numeric_failure(self, tmp_path, capsys):
        # max/min = 1e300 passes validation, but tau / (B_j / B_i) overflows.
        bias_file = tmp_path / "bias.json"
        bias_file.write_text(json.dumps([1.0] + [1e-300] * 10))
        code = run_without_runtime_warnings(["analyze", str(CONFIG_PATH), "--out",
                                             str(tmp_path / "o.csv"), "--bias-file", str(bias_file)])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: interference argument tau / bias_ratio overflows a float" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("command", [["analyze", "--beta", "1000"],
                                         ["sweep", "--betas", "0,1000"],
                                         ["validate", "--betas", "1000", "--drops", "1"]])
    def test_overflowing_beta_is_a_config_error(self, cfg_path, tmp_path, capsys, command):
        code = run([command[0], cfg_path, "--out", str(tmp_path / "o.csv"), *command[1:]])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: beta 1000 overflows the bias of level 3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("noise_power_dbm", 3100.0), ("tau_db", 3090.0)])
    def test_overflowing_db_value_is_a_config_error(self, field, value, tmp_path, capsys):
        code = run(["analyze", baseline_with(tmp_path, **{field: value}),
                    "--out", str(tmp_path / "o.csv"), "--beta", "1"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {field} = {value!r} overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["mu", "n_channels", "t_levels", "bias file"])
    def test_integer_past_the_float_range_is_a_config_error(self, field, tmp_path, capsys):
        # Unchecked, a real field raised OverflowError, and a count ran without end.
        huge = 10**400
        out = tmp_path / "out"
        out.mkdir()
        argv = ["analyze", baseline_with(tmp_path, **({} if field == "bias file" else {field: huge})),
                "--out", str(out / "o.csv"), "--beta", "1"]
        if field == "bias file":
            bias_file = tmp_path / "bias.json"
            bias_file.write_text(json.dumps([1, huge] + [1] * 9))
            argv[-2:] = ["--bias-file", str(bias_file)]
        assert run(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, out", [(["analyze", "--beta", "1"], "missing/o.csv"),
                                              (["analyze", "--beta", "1"], "taken"),
                                              (["optimize", "--pop", "4", "--iters", "1"], "missing/ga")])
    def test_unwritable_output_is_a_config_error(self, cfg_path, tmp_path, capsys, monkeypatch, command, out):
        def unreachable(*a, **kw):
            raise AssertionError("the point was computed before the output path was checked")

        # Checked before any work: nothing is computed and nothing is written.
        monkeypatch.setattr(cli, "evaluate_bias", unreachable)
        monkeypatch.setattr(cli, "compare_schemes", unreachable)
        (tmp_path / "taken").mkdir()
        code = run([command[0], cfg_path, "--out", str(tmp_path / out), *command[1:]])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: cannot write {tmp_path / out}" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_output_folder_removed_during_the_run_is_a_config_error(self, cfg_path, tmp_path, monkeypatch,
                                                                     capsys):
        folder = tmp_path / "gone"
        folder.mkdir()
        real = cli.evaluate_bias

        def removing(*a, **kw):
            folder.rmdir()
            return real(*a, **kw)

        monkeypatch.setattr(cli, "evaluate_bias", removing)
        code = run(["analyze", cfg_path, "--out", str(folder / "o.csv"), "--beta", "1"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: cannot write {folder / 'o.csv'}" in err and "Traceback" not in err

    def test_numeric_failure_exit_code(self, cfg_path, tmp_path, monkeypatch, capsys):
        def boom(*a, **kw):
            raise SolverError("synthetic blowup")

        monkeypatch.setattr(cli, "evaluate_bias", boom)
        code = run(["analyze", cfg_path, "--out", str(tmp_path / "o.csv"), "--beta", "1"])
        assert code == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    def test_kernel_failure_exit_code(self, cfg_path, tmp_path, monkeypatch, capsys):
        def boom(*a, **kw):
            raise NumericError("hypergeometric series failed to converge")

        monkeypatch.setattr(cli, "evaluate_bias", boom)
        code = run(["analyze", cfg_path, "--out", str(tmp_path / "o.csv"), "--beta", "1"])
        assert code == cli.EXIT_NUMERIC
        assert "numeric failure: hypergeometric" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("p_trans", 1e-300), ("noise_power_dbm", 3000.0)])
    def test_noise_dominated_point_is_finite_or_typed(self, field, value, tmp_path, capsys):
        out = str(tmp_path / "o.csv")
        code = run_without_runtime_warnings(["analyze", baseline_with(tmp_path, **{field: value}),
                                             "--out", out, "--beta", "1"])
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        if code == cli.EXIT_NUMERIC:
            assert "numeric failure:" in err
            return
        assert code == cli.EXIT_OK
        _, fields, rows = read_csv(out)
        for name in fields:
            if name != "converged":
                assert math.isfinite(float(rows[0][name])), name

    @pytest.mark.parametrize("p_trans", [1e-30, 1e-20])  # theta underflows to 0; drain is inf
    def test_non_finite_static_drain_is_a_config_error(self, p_trans, tmp_path, capsys):
        cfg = baseline_with(tmp_path, static_drain_override=None, delta_t=1e-300, p_trans=p_trans)
        code = run(["analyze", cfg, "--out", str(tmp_path / "o.csv"), "--beta", "1"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: static drain p0_static / theta" in err
        assert "Traceback" not in err

    def test_overflowing_arrival_rates_are_numeric_failures(self, tmp_path, capsys):
        code = run_without_runtime_warnings(["analyze", baseline_with(tmp_path, lambda_u1=1e308),
                                             "--out", str(tmp_path / "o.csv"), "--beta", "1"])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: arrival rates are not finite" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--p-mut", "0.5"), ("--p-cross", "0.5"), ("--b-min", "0.5"),
    ], ids=["p-mut", "p-cross", "b-min"])
    def test_ga_and_window_flags_are_gone(self, cfg_path, tmp_path, capsys, flag, value):
        # The GA's rates and bias box are optimizer constants.
        out = str(tmp_path / "o")
        with pytest.raises(SystemExit) as exc:
            run(["optimize", cfg_path, "--out", out, "--pop", "4", "--iters", "1", flag, value])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no CSV, no manifest

    @pytest.mark.parametrize("command, field", [
        (["optimize", "--pop", "4", "--iters", "1", "--b-max", "nan"], "b_max"),
        (["optimize", "--pop", "4", "--iters", "1", "--b-max", "inf"], "b_max"),
        (["validate", "--drops", "10", "--betas", "1", "--r-sim", "nan"], "r_sim"),
        (["validate", "--drops", "10", "--betas", "1", "--r-sim", "inf"], "r_sim"),
    ])
    def test_non_finite_ga_bound_or_window_is_a_config_error(self, cfg_path, tmp_path, capsys,
                                                             command, field):
        # The bound and the window are no longer flags: argparse refuses them with
        # the config exit code before anything is written.  The bound is a constant and
        # the window is sized from the marginals and the bias; both are finite.
        out = str(tmp_path / "o")
        with pytest.raises(SystemExit) as exc:
            run([command[0], cfg_path, "--out", out, *command[1:]])
        assert exc.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(command[-2:])}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # no CSV, no manifest
        cfg = load_config(cfg_path)
        flat = [1.0] * (cfg.t_levels + 1)
        value = optimizer.B_MAX if field == "b_max" else window(cfg, flat, flat)[0]
        assert math.isfinite(value)

    @pytest.mark.parametrize("flag, value", [("--eps", "1e-9"), ("--max-sweeps", "2")])
    def test_solver_flags_are_gone(self, cfg_path, tmp_path, capsys, flag, value):
        # The fixed point's tolerance and budget are fixedpoint.EPS and MAX_CHAIN_SOLVES.
        with pytest.raises(SystemExit) as exc:
            run(["analyze", cfg_path, "--out", str(tmp_path / "o.csv"), "--beta", "1", flag, value])
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o.csv")

    @pytest.mark.parametrize("noise_power_dbm", [-40.0, -math.inf])
    @pytest.mark.parametrize("alpha", [114.0, 300.0, 1000.0])  # Gamma(1 + 3 alpha / 2) overflows
    @pytest.mark.parametrize("beta", ["0", "1", "3"])
    def test_huge_path_loss_exponent_is_finite(self, tmp_path, capsys, alpha, noise_power_dbm, beta):
        out = str(tmp_path / "o.csv")
        cfg = baseline_with(tmp_path, alpha=alpha, noise_power_dbm=noise_power_dbm)
        assert run_without_runtime_warnings(["analyze", cfg, "--out", out, "--beta", beta]) == cli.EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        _, fields, (row,) = read_csv(out)
        assert row["converged"] == "true"
        for name in fields:
            if name != "converged":
                assert math.isfinite(float(row[name])), name

    def test_workers_env_validation(self, cfg_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GREENCELL_WORKERS", "many")
        code = run(["sweep", cfg_path, "--out", str(tmp_path / "s.csv"), "--betas", "0"])
        assert code == cli.EXIT_CONFIG
        assert "GREENCELL_WORKERS" in capsys.readouterr().err
        monkeypatch.setenv("GREENCELL_WORKERS", "0")
        assert run(["sweep", cfg_path, "--out", str(tmp_path / "s.csv"),
                    "--betas", "0"]) == cli.EXIT_CONFIG


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


def _rate(lo_exp, hi_exp):
    """A rate log-uniform over the decades, or exactly zero."""
    return st.one_of(st.just(0.0), _log_uniform(lo_exp, hi_exp))


_VALID_CONFIGS = st.fixed_dictionaries({
    "p0_static": _log_uniform(-2, 4),
    "delta_p": _log_uniform(-1, 2),
    "p_trans": _log_uniform(-3, 3),
    "n_channels": st.integers(1, 20),
    "t_levels": st.integers(1, 100),
    "lambda_b": _log_uniform(-3, 3),
    "lambda_u1": _rate(-3, 4),
    "lambda_p": _rate(-3, 3),
    "lambda_u2": _rate(-3, 4),
    "hotspot_radius": _log_uniform(-3, 1),
    "alpha": st.floats(2.0, 8.0, exclude_min=True),
    "noise_power_dbm": st.one_of(st.just(-math.inf), st.floats(-250.0, 100.0)),
    "tau_db": st.floats(-60.0, 60.0),
    "mu": _log_uniform(-3, 3),
    "omega": _log_uniform(-3, 3),
    "nu": _log_uniform(-3, 6),
    "delta_t": _log_uniform(-3, 3),
}, optional={"static_drain_override": _rate(-3, 3)})


def _run_on_valid_config(work, raw, argv):
    """Write ``raw`` as the config, run ``argv`` on it serially and return (code, stderr).

    Checks what every command owes a config that passes validation: no
    traceback, no RuntimeWarning, and exit 0 or a typed numeric failure;
    ``optimize`` may also report that no bias vector met the coverage floor.
    """
    (work / "cfg.json").write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"GREENCELL_WORKERS": "1"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_without_runtime_warnings([argv[0], str(work / "cfg.json"), *argv[1:]])
    assert "Traceback" not in err.getvalue()
    allowed = {cli.EXIT_OK, cli.EXIT_NUMERIC}
    if argv[0] == "optimize":
        allowed.add(cli.EXIT_INFEASIBLE)
    assert code in allowed, err.getvalue()
    if code == cli.EXIT_NUMERIC:
        assert err.getvalue().startswith("numeric failure: ")
    if code == cli.EXIT_INFEASIBLE:
        assert "no feasible bias vector found" in err.getvalue()
    return code, err.getvalue()


def _non_finite_rows(path):
    """The rows of a CSV with a value other than a flag that is not finite."""
    _, fields, rows = read_csv(path)
    numbers = [name for name in fields if name not in ("converged", "feasible", "best_feasible")]
    return [row for row in rows if not all(math.isfinite(float(row[name])) for name in numbers)]


@settings(max_examples=40)
@given(raw=_VALID_CONFIGS, beta=st.one_of(st.none(), st.floats(0.0, 6.0)),
       bias_exponents=st.lists(st.floats(-6.0, 6.0), min_size=100, max_size=100))
def test_analyze_on_valid_configs_is_finite_or_typed(tmp_path_factory, raw, beta, bias_exponents):
    """Every config that passes validation gives a finite row (exit 0) or a typed
    numeric failure (exit 3), with no traceback and no RuntimeWarning."""
    work = tmp_path_factory.mktemp("fuzz")
    if beta is None:
        bias = [1.0] + [10.0 ** e for e in bias_exponents[:raw["t_levels"]]]
        (work / "bias.json").write_text(json.dumps(bias))
        bias_args = ["--bias-file", str(work / "bias.json")]
    else:
        bias_args = ["--beta", repr(beta)]
    code, _ = _run_on_valid_config(work, raw, ["analyze", "--out", str(work / "o.csv"), *bias_args])
    if code == cli.EXIT_OK:
        assert _non_finite_rows(str(work / "o.csv")) == []


@settings(max_examples=25, deadline=None)
@given(raw=_VALID_CONFIGS, betas=st.lists(st.floats(0.0, 6.0), min_size=2, max_size=2),
       nus=st.lists(_log_uniform(-3, 6), min_size=2, max_size=2))
def test_sweep_on_valid_configs_is_finite_or_named(tmp_path_factory, raw, betas, nus):
    """A sweep exits 0 with finite rows, except points it names on stderr as failed."""
    work = tmp_path_factory.mktemp("fuzz_sweep")
    code, err = _run_on_valid_config(work, raw, ["sweep", "--out", str(work / "s.csv"),
                                                 "--betas", ",".join(map(repr, betas)),
                                                 "--nus", ",".join(map(repr, nus))])
    if code == cli.EXIT_OK:
        assert len(read_csv(str(work / "s.csv"))[2]) == 4
        for row in _non_finite_rows(str(work / "s.csv")):
            beta, nu = float(row["beta"]), float(row["nu"])
            assert f"warning: sweep point beta={beta:g} nu={nu:g} failed: " in err


@settings(max_examples=25, deadline=None)
@given(raw=_VALID_CONFIGS, drops=st.integers(1, 300))
def test_validate_on_valid_configs_is_finite_or_typed(tmp_path_factory, raw, drops):
    work = tmp_path_factory.mktemp("fuzz_validate")
    code, _ = _run_on_valid_config(work, raw, ["validate", "--out", str(work / "v.csv"),
                                               "--drops", str(drops)])
    if code == cli.EXIT_OK:
        assert len(read_csv(str(work / "v.csv"))[2]) == 3
        assert _non_finite_rows(str(work / "v.csv")) == []


@settings(max_examples=25, deadline=None)
@given(raw=_VALID_CONFIGS)
def test_optimize_on_valid_configs_is_finite_or_typed(tmp_path_factory, raw):
    """Exit 0 with a finite best row, a typed numeric failure, or exit 4 with all
    three tables written."""
    work = tmp_path_factory.mktemp("fuzz_optimize")
    prefix = str(work / "opt")
    code, _ = _run_on_valid_config(work, raw, ["optimize", "--out", prefix,
                                               "--pop", "4", "--iters", "1"])
    if code == cli.EXIT_OK:
        assert _non_finite_rows(prefix + "_best.csv") == []
    if code == cli.EXIT_INFEASIBLE:
        for table in ("_best.csv", "_history.csv", "_comparison.csv"):
            assert os.path.exists(prefix + table), table


def test_absorbed_corner_runs_every_command(tmp_path, capsys):
    """No users and no static drain: the battery is held full, at (T, 0).

    Every command exits 0 with finite rows, except the comparison's shares
    and deltas, which are NaN as for every config without users."""
    path = baseline_with(tmp_path, lambda_u1=0.0, lambda_u2=0.0, static_drain_override=0.0)
    for beta in ("0", "1", "3"):
        out = str(tmp_path / f"point_{beta}.csv")
        assert run_without_runtime_warnings(["analyze", path, "--out", out, "--beta", beta]) == cli.EXIT_OK
        assert _non_finite_rows(out) == []
        (row,) = read_csv(out)[2]
        assert [float(row[name]) for name in ("pi_10", "iterations", "residual", "e_tot", "eta_ce")] == [
            1.0, 1.0, 0.0, 0.0, 0.0]
    prefix = str(tmp_path / "run")
    for argv in (["sweep", "--out", prefix + "_sweep.csv"],
                 ["validate", "--out", prefix + "_validate.csv", "--drops", "500"],
                 ["optimize", "--out", prefix, "--pop", "4", "--iters", "1"]):
        assert run_without_runtime_warnings([argv[0], path, *argv[1:]]) == cli.EXIT_OK
    for table in ("_sweep.csv", "_validate.csv", "_best.csv", "_history.csv"):
        assert _non_finite_rows(prefix + table) == [], table
    _, fields, rows = read_csv(prefix + "_comparison.csv")
    blank = [name for name in fields if name.startswith(("share_", "delta_"))]
    assert all(math.isnan(float(row[name])) for row in rows for name in blank)
    assert all(math.isfinite(float(row[name])) for row in rows for name in fields
               if name not in (*blank, "scheme", "feasible", "converged"))


class TestAnalyze:
    def test_output_layout(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "point.csv")
        assert run(["analyze", cfg_path, "--out", out, "--beta", "1"]) == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert "seed: 0" in printed
        assert f"wrote {out}" in printed

        meta, fields, rows = read_csv(out)
        assert meta["config_hash"] == config_hash(load_config(cfg_path))
        assert meta["seed"] == "0"
        assert meta["command"].startswith("greencell analyze")
        assert len(rows) == 1
        row = rows[0]
        assert [row[f"bias_{i}"] for i in range(4)] == ["1.0", "2.0", "3.0", "4.0"]
        assert row["converged"] == "true"
        assert 0.0 < float(row["p_succ"]) < 1.0
        assert float(row["e_tot"]) > 0.0
        indexed = lambda *stems: [f"{stem}_{i}" for stem in stems for i in range(4)]
        assert fields == [
            *indexed("bias"),
            "p_succ", "area_rate", "p_tot", "p_grid", "e_tot", "eta_ee", "eta_ce",
            "converged", "iterations", "residual",
            *indexed("pi", "users", "p_block", "p_occu", "p_succ_tier", "rate_tier"),
        ]

        manifest = json.loads((tmp_path / "point.manifest.json").read_text())
        assert manifest["config_hash"] == meta["config_hash"]
        assert manifest["tool_version"] == meta["tool_version"]
        assert [os.path.basename(p) for p in manifest["outputs"]] == ["point.csv"]
        assert manifest["wall_clock_s"] >= 0.0

    def test_byte_determinism(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "same.csv")
        argv = ["analyze", cfg_path, "--out", out, "--beta", "2"]
        assert run(argv) == cli.EXIT_OK
        first = open(out, "rb").read()
        assert run(argv) == cli.EXIT_OK
        assert open(out, "rb").read() == first

    def test_bias_file_round_trip(self, cfg_path, tmp_path, capsys):
        bias_file = tmp_path / "bias.json"
        bias_file.write_text("[1.0, 1.5, 2.5, 4.0]")
        out = str(tmp_path / "custom.csv")
        assert run(["analyze", cfg_path, "--out", out,
                    "--bias-file", str(bias_file)]) == cli.EXIT_OK
        _, fields, rows = read_csv(out)
        assert rows[0]["bias_2"] == "2.5"


class TestSweep:
    def test_grid_and_columns(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", cfg_path, "--out", out,
                    "--betas", "0,1", "--nus", "36,40"]) == cli.EXIT_OK
        _, fields, rows = read_csv(out)
        assert fields == ["beta", "nu", "p_succ", "e_tot", "eta_ee", "eta_ce",
                          "p_grid", "converged", "iterations", "residual"]
        assert [(r["beta"], r["nu"]) for r in rows] == [
            ("0.0", "36.0"), ("1.0", "36.0"), ("0.0", "40.0"), ("1.0", "40.0")
        ]
        assert all(r["converged"] == "true" for r in rows)

    def test_default_nu_from_config(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", cfg_path, "--out", out, "--betas", "0.5"]) == cli.EXIT_OK
        _, _, rows = read_csv(out)
        assert rows[0]["nu"] == "40.0"

    def test_parallel_matches_serial(self, cfg_path, tmp_path, monkeypatch, capsys):
        argv_tail = ["--betas", "0,1,2"]
        serial = str(tmp_path / "serial.csv")
        monkeypatch.setenv("GREENCELL_WORKERS", "1")
        assert run(["sweep", cfg_path, "--out", serial] + argv_tail) == cli.EXIT_OK
        parallel = str(tmp_path / "parallel.csv")
        monkeypatch.setenv("GREENCELL_WORKERS", "2")
        assert run(["sweep", cfg_path, "--out", parallel] + argv_tail) == cli.EXIT_OK
        meta_s, fields_s, rows_s = read_csv(serial)
        meta_p, fields_p, rows_p = read_csv(parallel)
        assert fields_s == fields_p
        assert rows_s == rows_p  # identical values, digit for digit

    def test_failed_point_warns(self, cfg_path, tmp_path, monkeypatch, capsys):
        real = optimizer.evaluate_biases

        def flaky(cfg, biases):
            return [NumericError("synthetic blowup") if bias.values[1] == 2.0  # beta = 1
                    else outcome for bias, outcome in zip(biases, real(cfg, biases))]

        monkeypatch.setattr(optimizer, "evaluate_biases", flaky)
        monkeypatch.setenv("GREENCELL_WORKERS", "1")
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", cfg_path, "--out", out, "--betas", "0,1"]) == cli.EXIT_OK
        err = capsys.readouterr().err
        assert err == "warning: sweep point beta=1 nu=40 failed: synthetic blowup\n"
        _, fields, rows = read_csv(out)
        assert fields == ["beta", "nu", "p_succ", "e_tot", "eta_ee", "eta_ce",
                          "p_grid", "converged", "iterations", "residual"]
        assert [r["converged"] for r in rows] == ["true", "false"]
        assert rows[1]["p_succ"] == "nan"


    def test_budget_of_one_chain_solve_is_flagged(self, cfg_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fixedpoint, "MAX_CHAIN_SOLVES", 1)
        monkeypatch.setenv("GREENCELL_WORKERS", "1")  # so the patch reaches the solve
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", cfg_path, "--out", out, "--betas", "0,1,3"]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        _, fields, rows = read_csv(out)
        assert [r["converged"] for r in rows] == ["true", "false", "false"]
        assert all(r["iterations"] == "1" for r in rows)
        for row in rows:
            for name in fields:
                if name != "converged":
                    assert math.isfinite(float(row[name])), name

    def test_fixed_point_columns(self, cfg_path, tmp_path, monkeypatch, capsys):
        # The sweep reports what analyze reports; a failed point has none.
        real = optimizer.evaluate_biases

        def flaky(cfg, biases):
            return [NumericError("synthetic blowup") if bias.values[1] == 2.0  # beta = 1
                    else outcome for bias, outcome in zip(biases, real(cfg, biases))]

        monkeypatch.setattr(optimizer, "evaluate_biases", flaky)
        monkeypatch.setenv("GREENCELL_WORKERS", "1")
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", cfg_path, "--out", out, "--betas", "0,1"]) == cli.EXIT_OK
        _, _, rows = read_csv(out)
        ((_, fp),) = real(load_config(cfg_path), [optimizer.power_law_bias(0.0, 3)])
        assert rows[0]["iterations"] == str(fp.iterations)
        assert float(rows[0]["residual"]) == fp.residual
        assert (rows[1]["iterations"], rows[1]["residual"]) == ("nan", "nan")


class TestValidate:
    def test_layout_and_agreement(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "val.csv")
        assert run(["validate", cfg_path, "--out", out, "--betas", "0,1",
                    "--drops", "400", "--seed", "3"]) == cli.EXIT_OK
        meta, fields, rows = read_csv(out)
        assert fields == ["beta", "analytic", "converged", "mc_mean", "ci_half_width",
                          "omission_bound", "n_drops", "seed"]
        assert meta["seed"] == "3"
        assert len(rows) == 2
        for row in rows:
            assert row["n_drops"] == "400" and row["seed"] == "3"
            assert row["converged"] == "true"
            assert 0.0 <= float(row["mc_mean"]) <= 1.0
            # Loose agreement at 400 drops; the tight check is elsewhere.
            assert abs(float(row["analytic"]) - float(row["mc_mean"])) < 0.1

    def test_baseline_windows_are_certified(self, tmp_path, capsys):
        # At beta 0-2 the window is sized so that a station beyond it serves
        # with probability at most 2^-53; the cap of 225 stations never binds.
        out = str(tmp_path / "val.csv")
        assert run(["validate", CONFIG_PATH, "--out", out, "--betas", "0,1,2",
                    "--drops", "20"]) == cli.EXIT_OK
        _, _, rows = read_csv(out)
        assert len(rows) == 3
        assert all(float(row["omission_bound"]) <= EPS for row in rows)

    def test_unconverged_point_is_flagged(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fixedpoint, "MAX_CHAIN_SOLVES", 1)
        monkeypatch.setenv("GREENCELL_WORKERS", "1")  # so the patch reaches the solve
        out = str(tmp_path / "val.csv")
        assert run(["validate", CONFIG_PATH, "--out", out, "--betas", "1",
                    "--drops", "50"]) == cli.EXIT_OK
        _, _, (row,) = read_csv(out)
        assert row["converged"] == "false"

    def test_seeded_reproducibility(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "val.csv")
        argv = ["validate", cfg_path, "--out", out, "--betas", "1",
                "--drops", "200", "--seed", "7"]
        assert run(argv) == cli.EXIT_OK
        first = open(out, "rb").read()
        assert run(argv) == cli.EXIT_OK
        assert open(out, "rb").read() == first

    def test_parallel_matches_serial(self, cfg_path, tmp_path, monkeypatch, capsys):
        argv_tail = ["--betas", "0,1,2", "--drops", "300", "--seed", "4"]
        serial = str(tmp_path / "serial.csv")
        monkeypatch.setenv("GREENCELL_WORKERS", "1")
        assert run(["validate", cfg_path, "--out", serial] + argv_tail) == cli.EXIT_OK
        parallel = str(tmp_path / "parallel.csv")
        monkeypatch.setenv("GREENCELL_WORKERS", "2")
        assert run(["validate", cfg_path, "--out", parallel] + argv_tail) == cli.EXIT_OK
        _, fields_s, rows_s = read_csv(serial)
        _, fields_p, rows_p = read_csv(parallel)
        assert fields_s == fields_p
        assert rows_s == rows_p  # identical values, digit for digit


class TestOptimize:
    def _write_cfg(self, tmp_path, p_req):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SMALL, "p_req": p_req}))
        return str(path)

    def test_feasible_run_artifacts(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, 0.90)
        prefix = str(tmp_path / "ga")
        code = run(["optimize", cfg_path, "--out", prefix,
                    "--pop", "6", "--iters", "2"])
        assert code == cli.EXIT_OK
        bias = [f"bias_{i}" for i in range(4)]
        _, best_fields, best_rows = read_csv(prefix + "_best.csv")
        assert best_fields == ["feasible", "fitness", "p_succ", "e_tot", "eta_ce",
                               "n_evaluations", *bias]
        best = best_rows[0]
        assert best["feasible"] == "true"
        assert best["bias_0"] == "1.0"
        assert float(best["p_succ"]) > 0.90
        _, hist_fields, hist_rows = read_csv(prefix + "_history.csv")
        assert hist_fields == ["generation", "best_fitness", "mean_fitness",
                               "best_feasible", *bias]
        assert len(hist_rows) == 3  # generations 0..2
        _, comp_fields, comp_rows = read_csv(prefix + "_comparison.csv")
        assert comp_fields == ["scheme", "feasible", "converged", "p_succ", "e_tot", "eta_ce",
                               "share_low", "share_mid", "share_high", "delta_e_tot_pct",
                               "delta_eta_ce_pct", *bias]
        schemes = [r["scheme"] for r in comp_rows]
        assert schemes[0] == "nearest" and schemes[-1] == "ga"
        assert schemes[1].startswith("power_law_beta_")
        manifest = json.loads(open(prefix + "_manifest.json").read())
        assert list(manifest) == ["command", "config_hash", "seed", "outputs",
                                  "wall_clock_s", "tool_version"]
        assert len(manifest["outputs"]) == 3

    def test_infeasible_exit_code_still_writes(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, 0.999999)
        prefix = str(tmp_path / "ga")
        code = run(["optimize", cfg_path, "--out", prefix,
                    "--pop", "4", "--iters", "1"])
        assert code == cli.EXIT_INFEASIBLE
        assert "no feasible bias" in capsys.readouterr().err
        for suffix in ("_best.csv", "_history.csv", "_comparison.csv", "_manifest.json"):
            assert os.path.exists(prefix + suffix)
        _, fields, rows = read_csv(prefix + "_best.csv")
        assert rows[0]["feasible"] == "false"

    def test_bad_ga_flags(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path, 0.9)
        code = run(["optimize", cfg_path, "--out", str(tmp_path / "ga"),
                    "--pop", "1", "--iters", "1"])
        assert code == cli.EXIT_CONFIG
        assert "config error: pop_size must be at least 2" in capsys.readouterr().err


class TestRunContract:
    """File names, manifest listing and stdout shared by every subcommand."""

    @pytest.mark.parametrize("argv, out, csvs, manifest", [
        (["analyze", "--beta", "1"], "point.csv", ["point.csv"], "point.manifest.json"),
        (["sweep", "--betas", "0,1"], "sweep.csv", ["sweep.csv"], "sweep.manifest.json"),
        (["validate", "--betas", "0,1", "--drops", "50"], "val.csv", ["val.csv"],
         "val.manifest.json"),
        (["optimize", "--pop", "4", "--iters", "1"], "ga",
         ["ga_best.csv", "ga_history.csv", "ga_comparison.csv"], "ga_manifest.json"),
        # A prefix keeps its dots: no extension is stripped.
        (["optimize", "--pop", "4", "--iters", "1"], "ga.v2",
         ["ga.v2_best.csv", "ga.v2_history.csv", "ga.v2_comparison.csv"], "ga.v2_manifest.json"),
    ])
    def test_outputs_manifest_and_stdout(self, argv, out, csvs, manifest, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "p_req": 0.9}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run([argv[0], str(cfg), "--out", str(out_dir / out), "--seed", "5", *argv[1:]])
        assert code == cli.EXIT_OK
        paths = [str(out_dir / name) for name in csvs]
        assert capsys.readouterr().out == "".join(
            ["seed: 5\n"] + [f"wrote {p}\n" for p in paths])
        assert sorted(os.listdir(out_dir)) == sorted(csvs + [manifest])
        listed = json.loads((out_dir / manifest).read_text())["outputs"]
        assert listed == [os.path.abspath(p) for p in paths]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
