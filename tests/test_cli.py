"""Command line: summaries, CSV contracts, exit codes, reproducibility."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diffusim
from diffusim import cli
from diffusim.cli import main
from diffusim.config import bundled_config

TINY = """
m = 1
n_total = 20
s0 = 10
a0 = 5
d0 = 5
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    body = np.array([[float(x) if x else np.nan for x in ln.split(",")] for ln in lines[1:]])
    return header, body


# ----------------------------------------------------------------- analysis


def test_r0_prints_value_and_decomposition(capsys):
    assert main(["r0", "--config", "table2"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 1" in out
    assert "R0 = 0.0241666667" in out
    for label in ("F =", "V =", "K ="):
        assert label in out


def test_calibrate_prints_alpha_and_achieved_value(capsys):
    assert main(["calibrate", "--config", "table2", "--target-r0", "1.4"]) == 0
    out = capsys.readouterr().out
    assert "target_r0 = 1.4" in out
    assert "alpha = 57.9310345" in out
    assert "achieved_r0 = 1.4" in out


def test_calibrate_needs_a_target(capsys):
    assert main(["calibrate", "--config", "table2"]) == 2
    assert "target" in capsys.readouterr().err


# -------------------------------------------------------------- trajectories


def test_run_ode_writes_the_documented_csv(tmp_path):
    out = tmp_path / "ode.csv"
    code = main(["run-ode", "--config", "table2", "--out", str(out), "--horizon", "10"])
    assert code == 0
    header, body = read_csv(out)
    assert header == ["time", "S_1", "S_2", "A_1", "A_2", "D_1", "D_2"]
    assert body.shape == (11, 7)
    assert np.all(np.diff(body[:, 0]) > 0)
    assert np.all(body[:, 1:] >= 0.0)


def test_run_ode_streams_to_stdout_without_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY + "horizon = 5\n")
    assert main(["run-ode", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("time,S_1,A_1,D_1\n")
    assert len(out.strip().split("\n")) == 7


def test_run_dtmc_appends_spread_columns(tmp_path):
    out = tmp_path / "mc.csv"
    code = main(["run-dtmc", "--config", "table2", "--out", str(out),
                 "--horizon", "5", "--replicas", "16"])
    assert code == 0
    header, body = read_csv(out)
    assert header == ["time", "S_1", "S_2", "A_1", "A_2", "D_1", "D_2",
                      "sd_S_1", "sd_S_2", "sd_A_1", "sd_A_2", "sd_D_1", "sd_D_2"]
    assert body.shape == (6, 13)
    assert np.all(body[0, 1:7] == [30.0, 42.0, 20.0, 8.0, 0.0, 0.0])


def test_compare_pairs_both_engines_on_one_grid(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--config", "table2", "--out", str(out),
                 "--horizon", "5", "--replicas", "8"])
    assert code == 0
    header, body = read_csv(out)
    assert header[0] == "time"
    assert header[1:7] == [f"ode_{c}_{g}" for c in ("S", "A", "D") for g in ("1", "2")]
    assert header[7:13] == [f"mc_{c}_{g}" for c in ("S", "A", "D") for g in ("1", "2")]
    assert header[13:] == [f"sd_{c}_{g}" for c in ("S", "A", "D") for g in ("1", "2")]
    assert body.shape == (6, 19)


def test_compare_is_the_column_join_of_run_ode_and_run_dtmc(tmp_path, capsys):
    base = ["--config", "table2", "--horizon", "5"]
    chain = ["--seed", "9", "--replicas", "8"]
    ode, mc, cmp = (tmp_path / f"{name}.csv" for name in ("ode", "mc", "cmp"))
    assert main(["run-ode", *base, "--out", str(ode)]) == 0
    assert main(["run-dtmc", *base, *chain, "--out", str(mc)]) == 0
    assert main(["compare", *base, *chain, "--out", str(cmp)]) == 0
    capsys.readouterr()
    ode_lines = ode.read_text(encoding="utf-8").splitlines()
    mc_lines = mc.read_text(encoding="utf-8").splitlines()
    header = (["time"] + [f"ode_{c}" for c in ode_lines[0].split(",")[1:]]
              + [c if c.startswith("sd_") else f"mc_{c}" for c in mc_lines[0].split(",")[1:]])
    rows = [f"{o},{m.split(',', 1)[1]}" for o, m in zip(ode_lines[1:], mc_lines[1:])]
    assert len(rows) == 6
    assert cmp.read_bytes() == ("\n".join([",".join(header), *rows]) + "\n").encode()


def test_horizon_flag_overrides_the_config(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["run-ode", "--config", "table2", "--out", str(a), "--horizon", "5"])
    main(["run-ode", "--config", "table2", "--out", str(b), "--horizon", "10"])
    assert len(a.read_text().splitlines()) == 6 + 1
    assert len(b.read_text().splitlines()) == 11 + 1


# -------------------------------------------------------------------- sweeps


def test_extinction_sweep_emits_one_row_per_target(tmp_path):
    cfg = write_cfg(tmp_path, TINY + "horizon = 200\n")
    out = tmp_path / "ext.csv"
    code = main(["extinction-sweep", "--config", cfg, "--out", str(out),
                 "--r0-grid", "1.2,2.3", "--replicas", "8"])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "r0,alpha,mean_extinction_time,sd_extinction_time,n_extinct,n_censored"
    assert len(lines) == 3
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(r[0]) for r in rows] == [1.2, 2.3]
    assert float(rows[1][1]) > float(rows[0][1])
    for r in rows:
        assert int(r[4]) + int(r[5]) == 8


def test_logistic_sweep_reports_peaks_per_capacity(tmp_path):
    cfg = write_cfg(tmp_path, TINY + "target_r0 = 1.4\nhorizon = 30\nmode = full\n")
    out = tmp_path / "cap.csv"
    code = main(["logistic-sweep", "--config", cfg, "--out", str(out), "--k-grid", "50,100"])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "k,alpha,peak_A_1,t_peak_1"
    assert len(lines) == 3
    small, large = (ln.split(",") for ln in lines[1:])
    assert float(small[0]) == 50.0 and float(large[0]) == 100.0
    assert float(large[2]) >= float(small[2])


# ---------------------------------------------------------------- exit codes


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["r0", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["r0", "--out", "r0.txt"],
    ["calibrate", "--target-r0", "1.4", "--horizon", "5"],
    ["run-ode", "--seed", "1"],
    ["logistic-sweep", "--k-grid", "60", "--dt", "0.01"],
], ids=["r0-out", "calibrate-horizon", "run-ode-seed", "logistic-sweep-dt"])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", "table2", *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, unread, usage", [
    (["r0"], ["--out", "x.txt"], "usage: diffusim r0 [-h] --config CONFIG\n"),
    (["logistic-sweep", "--k-grid", "60"], ["--dt", "0.01"],
     "usage: diffusim logistic-sweep [-h] --config CONFIG [--out OUT]"),
], ids=["r0", "logistic-sweep"])
def test_an_unread_flag_shows_the_subcommand_usage(argv, unread, usage, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", "table2", *unread])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert err.endswith(f"diffusim {argv[0]}: error: unrecognized arguments: {' '.join(unread)}\n")
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_flag_before_the_subcommand_shows_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "r0", "--config", "table2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: diffusim [-h]")
    assert err.endswith("diffusim: error: unrecognized arguments: --bogus\n")


def test_invalid_replica_count_exits_2(capsys):
    assert main(["run-dtmc", "--config", "table2", "--replicas", "0"]) == 2
    assert "replicas" in capsys.readouterr().err


def test_logistic_sweep_refuses_paper_literal_with_exit_2(tmp_path, capsys):
    # parse_config and the chain drivers refuse logistic coupling under
    # paper_literal; the sweep turns the coupling on itself, so it checks too
    cfg = write_cfg(tmp_path, bundled_config() + "mode = paper_literal\n")
    out = tmp_path / "sweep.csv"
    assert main(["logistic-sweep", "--config", cfg, "--k-grid", "60,100", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: logistic coupling needs full mode; paper_literal holds N constant\n"
    assert not out.exists()


def test_an_epoch_count_past_2_to_the_53_exits_2(tmp_path, capsys):
    # the automatic dt makes about 2e302 epochs: the run is refused before any
    # round, where the epoch arithmetic used to raise OverflowError
    cfg = write_cfg(tmp_path, bundled_config() + "horizon = 1e300\nsample_every = 1e300\nstep = 1e300\n")
    out = tmp_path / "x.csv"
    assert main(["run-dtmc", "--config", cfg, "--replicas", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: horizon/dt = ")
    assert "past 2^53" in captured.err and not out.exists()


@pytest.mark.parametrize("command", ["run-dtmc", "run-ode"])
def test_a_sample_table_past_memory_exits_2(tmp_path, capsys, command):
    # 10^13 + 1 samples: both used to exit 1 with numpy's _ArrayMemoryError
    out = tmp_path / "x.csv"
    replicas = ["--replicas", "2"] if command == "run-dtmc" else []
    assert main([command, "--config", "table2", "--horizon", "1e13", *replicas, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("error: 10000000000001 samples x 6 values pass the 67108864-cell budget of a table "
                            "held in memory\n")


def test_oversized_chain_step_exits_3(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["run-dtmc", "--config", "table2", "--out", str(out),
                 "--horizon", "5", "--replicas", "2", "--dt", "0.5"])
    assert code == 3
    assert "decrease dt" in capsys.readouterr().err


OVERFLOW_CFG = """
m = 1
n_total = 10
alpha = {alpha}
b = {b}
d = 0.01
rho = 0.2
delta = 0.03
phi = 0.03
eps = {eps}
gamma = 1
s0 = 5
a0 = 3
d0 = 2
horizon = 1
sample_every = 1
"""


@pytest.mark.parametrize("rates, bound", [(dict(alpha="1e300", b="0", eps="1e10"), "inf"),
                                          (dict(alpha="1", b="1e308", eps="1"), "1e+308")],
                         ids=["zero", "subnormal"])
def test_an_overflowing_stability_bound_exits_3_naming_it(tmp_path, capsys, rates, bound):
    # the automatic dt divides sample_every by the bound: a bound of 0.0 used
    # to raise ZeroDivisionError, and a subnormal one asked for ~1e308 epochs
    cfg = write_cfg(tmp_path, OVERFLOW_CFG.format(**rates))
    assert main(["run-dtmc", "--config", cfg, "--replicas", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: total event rate bound {bound} is too large for a stable epoch length")


def test_an_overflowing_event_coefficient_exits_3_naming_it(tmp_path, capsys):
    # alpha dt eps overflows beside gamma = 0: with --dt given this used to
    # exit 0, its t = 0 row reading 0,2,1 for a chain that starts at (1, 1, 1)
    cfg = write_cfg(tmp_path, "m = 1\nn_total = 3\nalpha = 1e300\nb = 0\nd = 0\nrho = 0.1\ndelta = 0.1\n"
                              "phi = 0.1\neps = 1e10\ngamma = 0\ns0 = 1\na0 = 1\nd0 = 1\nhorizon = 1\n")
    assert main(["run-dtmc", "--config", cfg, "--replicas", "2", "--dt", "0.1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: event coefficient alpha * dt * eps_1 = inf is not finite")


def test_negative_logistic_stage_exits_3(tmp_path, capsys):
    # table2 rates at R0 4.9 with a step of 0.1 and strong logistic turnover:
    # an RK4 stage population goes negative, which is a step-size failure
    cfg = write_cfg(tmp_path, bundled_config() + "mode = full\ntarget_r0 = 4.9\nstep = 0.1\n"
                    "logistic.enabled = true\nlogistic.capacity = 150\n")
    assert main(["run-ode", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert "population must be nonnegative and finite, got -" in err
    assert "at t = 0.5 (step 0.1); decrease the step size" in err


def test_an_underflowing_disease_free_point_exits_3(tmp_path, capsys):
    # table2 with d_2 = 5e-324: d (d + delta + rho) underflows to 0
    cfg = write_cfg(tmp_path, bundled_config().replace("d = 0.01, 0.01", "d = 0.01, 5e-324"))
    with np.errstate(all="ignore"):
        assert main(["r0", "--config", cfg]) == 3
    assert "disease-free equilibrium of group 2 is not finite" in capsys.readouterr().err


def test_an_underflowing_disease_free_point_prints_only_the_error_line(tmp_path):
    # in a fresh interpreter, where numpy's RuntimeWarnings would reach stderr
    cfg = write_cfg(tmp_path, bundled_config().replace("d = 0.01, 0.01", "d = 0.01, 5e-324"))
    src = str(Path(diffusim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "diffusim", "r0", "--config", cfg], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("error: disease-free equilibrium of group 2 is not finite: "
                           "s* = inf, d* = inf\n")


@pytest.mark.parametrize("cmd, edits, error", [
    # table2 with b_1 = 1e306 and eps = gamma = (1e3, 1): calibrate used to print alpha = 0
    (["calibrate", "--target-r0", "2"],
     {"b = 0.01, 0.01": "b = 1e306, 0.01", "eps = 0.4, 0.6": "eps = 1e3, 1", "gamma = 0.4, 0.7": "gamma = 1e3, 1"},
     "R0 term of group 1 is not finite: alpha eps_i gamma_i s*_i / (n_total (d_i + phi_i)) = inf"),
    # table2 with alpha = 1e10 and b_1 = 1e305: r0 used to exit 2, naming no group
    (["r0"], {"alpha = 1.0": "alpha = 1e10", "b = 0.01, 0.01": "b = 1e305, 0.01"},
     "R0 term of group 1 is not finite: alpha eps_i gamma_i s*_i / (n_total (d_i + phi_i)) = inf"),
], ids=["calibrate", "r0"])
def test_an_overflowing_r0_exits_3_with_only_the_error_line(tmp_path, cmd, edits, error):
    text = bundled_config()
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = write_cfg(tmp_path, text)
    src = str(Path(diffusim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "diffusim", cmd[0], "--config", cfg, *cmd[1:]],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {error}\n")


def test_an_overflowing_calibrated_alpha_exits_3_naming_the_overflow(tmp_path):
    # table2 with eps = 1e-300 and gamma = 1e-10: it used to exit 2 from
    # ModelParams.with_alpha, with "alpha must be nonnegative and finite, got inf"
    text = bundled_config().replace("eps = 0.4, 0.6", "eps = 1e-300, 1e-300")
    cfg = write_cfg(tmp_path, text.replace("gamma = 0.4, 0.7", "gamma = 1e-10, 1e-10"))
    src = str(Path(diffusim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "diffusim", "calibrate", "--config", cfg, "--target-r0", "2"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: alpha = target_r0 / r0(alpha=1) = 2.0 / ")
    assert proc.stderr.endswith(" overflows\n")


# ----------------------------------------------------------- reproducibility


def test_the_cached_parser_writes_the_bytes_of_a_fresh_one(tmp_path, monkeypatch, capsys):
    # one process runs a CSV, a usage error, a numeric failure and another
    # CSV on the parser main keeps, then each on a parser built for it alone
    bad = write_cfg(tmp_path, bundled_config() + "mode = full\ntarget_r0 = 4.9\nstep = 0.1\n"
                    "logistic.enabled = true\nlogistic.capacity = 150\n", "bad.cfg")

    def session(tag):
        codes = []
        for argv in (["run-ode", "--config", "table2", "--out", str(tmp_path / f"{tag}-ode.csv")],
                     ["run-ode", "--config", "table2", "--seed", "1"],
                     ["run-ode", "--config", bad, "--out", str(tmp_path / f"{tag}-bad.csv")],
                     ["logistic-sweep", "--config", "table2", "--k-grid", "60,100",
                      "--out", str(tmp_path / f"{tag}-sweep.csv")]):
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        files = [(tmp_path / f"{tag}-{name}.csv").read_bytes() for name in ("ode", "sweep")]
        return codes, capsys.readouterr().err, files

    assert cli._parser() is cli._parser()
    cached = session("cached")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert session("fresh") == cached
    assert cached[0] == [0, 2, 3, 0]
    assert "diffusim run-ode: error: unrecognized arguments: --seed 1\n" in cached[1]
    assert not (tmp_path / "cached-bad.csv").exists()


def test_identical_invocations_write_identical_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["run-dtmc", "--config", "table2", "--horizon", "5",
            "--replicas", "32", "--seed", "2024"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
