from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from ergostep import cli
from ergostep.cli import main
from ergostep.diagnostics import WeakOrderResult
from ergostep.harness import CONFIG_KEYS, ExperimentConfig
from ergostep.innovations import InnovationDist


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "ergostep" in out


def test_missing_config_exit_two_names_path(capsys, tmp_path):
    code, _, err = run_cli(capsys, "clt", "--config", str(tmp_path / "missing.toml"))
    assert code == 2
    assert "missing.toml" in err


def test_unknown_config_key_exit_two(capsys, tmp_path):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("stepkind = power_law\n")
    code, _, err = run_cli(capsys, "clt", "--config", str(cfg))
    assert code == 2
    assert "stepkind" in err


def test_unknown_flag_usage_error(capsys):
    code = main(["clt", "--frobnicate"])
    assert code == 2


def test_simulate_trace_deterministic(capsys, tmp_path):
    args = ["simulate", "--n-steps", "2000", "--seed", "42",
            "--output-dir", str(tmp_path / "a")]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "nu_n(x^2)" in out
    args2 = ["simulate", "--n-steps", "2000", "--seed", "42",
             "--output-dir", str(tmp_path / "b")]
    assert run_cli(capsys, *args2)[0] == 0
    a = (tmp_path / "a" / "simulate.csv").read_bytes()
    b = (tmp_path / "b" / "simulate.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "checkpoint_n,replication,value"


def test_clt_subcommand_runs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "clt", "--n-steps", "1000", "--replications", "4",
                           "--checkpoints", "500,1000", "--seed", "3",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "regime=B_mixed" in out
    lines = (tmp_path / "clt.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 4


@pytest.mark.parametrize("f", ["x", "x^0"])
def test_clt_degenerate_observable(capsys, tmp_path, f):
    # Af and Mf of x and of x^0 do not depend on the state (x^0: all zero)
    cfg = Path(__file__).resolve().parent.parent / "configs" / "euler_clt.cfg"
    code, _, err = run_cli(capsys, "clt", "--config", str(cfg), "--f", f,
                           "--n-steps", "2000", "--checkpoints", "2000",
                           "--replications", "20", "--threads", "1", "--format", "json",
                           "--output-dir", str(tmp_path))
    assert code == 0, err
    payload = json.loads((tmp_path / "clt.json").read_text())
    stats = payload["statistics"]["2000"]
    assert len(stats) == 20
    assert all(math.isfinite(s) for s in stats)


def test_clt_threads_default_is_one(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "clt", "--n-steps", "400", "--replications", "2",
                         "--checkpoints", "400", "--format", "json",
                         "--output-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "clt.json").read_text())
    assert payload["config"]["threads"] == 1
    # the regime is the analytic rule alone, reported beside the ratio span
    assert set(payload["regime_decision"]) == {"regime", "ratio_span", "xi", "q", "threshold"}


def test_clt_without_ks_says_assert_checked_none(capsys, tmp_path):
    # fewer than 50 replications: no KS test runs, and the output says so
    code, out, _ = run_cli(capsys, "clt", "--n-steps", "2000", "--replications", "20",
                           "--assert", "--output-dir", str(tmp_path))
    assert code == 0
    assert "ks=n/a" in out
    assert "nan" not in out
    assert "--assert checked no KS test" in out


def test_rate_defaults_and_assert(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "rate", "--model", "ou1d", "--xi", "0.333",
                           "--assert", "--seed", "20260809",
                           "--n-steps", "30000",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("n,grid", [
    (1002, "100,177,316,563,1002"),
    (5000, "499,889,1581,2811,5000"),
    (10**4, "1000,1778,3162,5623,10000"),
    (10**6, "10000,31622,100000,316227,1000000"),
])
def test_rate_default_grid_spans_a_decade(n, grid):
    got = cli._rate_defaults(ExperimentConfig(n_steps=n))["checkpoints"]
    assert got == grid
    points = [int(p) for p in got.split(",")]
    assert points[-1] == n and points[-1] >= 10 * points[0]


def test_probe_subcommand(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "probe", "--scheme", "talay2", "--assert",
                           "--output-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "probe.json").read_text())
    assert payload["weak_order_pass"]
    assert payload["recursive_control"]["verdict"] == "pass"
    assert payload["moment_match"]["matched_through"] >= 5


def test_probe_ou_nd_passes(capsys, tmp_path):
    # the isotropic ou_nd carries alpha = theta, beta = theta + d sigma^2 for V = 1 + |x|^2
    code, out, _ = run_cli(capsys, "probe", "--model", "ou_nd", "--scheme", "euler",
                           "--f", "x1^2", "--assert", "--output-dir", str(tmp_path))
    assert code == 0
    assert "recursive control pass" in out


@pytest.mark.parametrize("argv", [
    ["--theta", "0.5"],
    ["--sigma", "3"],
    ["--model", "double_well"],
    # at x = 1 the gamma^3 term of the talay2 error vanishes when
    # sigma^2 / (2 theta) = 2, so the ratio is 2^4, above the window
    ["--scheme", "talay2", "--theta", "0.5"],
    ["--scheme", "talay2", "--theta", "0.25", "--sigma", "1"],
])
def test_probe_passes_on_correct_models(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, "probe", *argv, "--assert", "--output-dir", str(tmp_path))
    assert code == 0, out + err
    payload = json.loads((tmp_path / "probe.json").read_text())
    assert min(payload["recursive_control"]["margins"]) >= -1e-8


def test_probe_json_carries_the_model_lyapunov_constants(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "probe", "--theta", "2.5", "--sigma", "0.5",
                         "--output-dir", str(tmp_path))
    assert code == 0
    meta = json.loads((tmp_path / "probe.json").read_text())["recursive_control"]["metadata"]
    assert (meta["alpha"], meta["beta"]) == (2.5, 2.75)


def test_probe_report_keys(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "probe", "--output-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "probe.json").read_text())
    assert set(payload["recursive_control"]["metadata"]) == {
        "gamma", "scheme", "alpha", "beta", "lambda_p_grid_max", "lambda_p_is_grid_max_not_supremum"}
    assert set(payload["moment_match"]) == {"kind", "matched_through", "required", "pass"}


@pytest.mark.parametrize("patched", [None, 4])
def test_clt_warning_and_probe_report_read_one_matching_order(capsys, tmp_path, monkeypatch, patched):
    # rademacher under talay2: the clt warning and the probe's moment_match
    # block both read InnovationDist.matching_order, so moving it moves both
    if patched is not None:
        monkeypatch.setattr(InnovationDist, "matching_order", property(lambda self: patched))
    order = patched or 3
    argv = ["--scheme", "talay2", "--innovation", "rademacher", "--output-dir", str(tmp_path)]
    with pytest.warns(UserWarning, match=f"through order {order}, below the order-2 scheme"):
        code, _, _ = run_cli(capsys, "clt", *argv, "--weight", "trapezoidal",
                             "--n-steps", "200", "--replications", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "probe", *argv)
    assert code == 0
    mm = json.loads((tmp_path / "probe.json").read_text())["moment_match"]
    assert (mm["kind"], mm["matched_through"], mm["required"], mm["pass"]) == (
        "rademacher", order, 5, False)
    assert f"moments through {order} (fail)" in out


def test_probe_ratio_below_the_window_fails(capsys, tmp_path, monkeypatch):
    # the Euler ratio 4 under the talay2 window [6, 10]: the remainder is
    # O(gamma^2), not O(gamma^3)
    def euler_like(scheme, model, f, x, gammas, innovation):
        return WeakOrderResult(scheme, tuple(gammas), (4e-6, 1e-6), (4.0,))

    monkeypatch.setattr(cli, "weak_order_probe", euler_like)
    code, out, _ = run_cli(capsys, "probe", "--scheme", "talay2", "--assert",
                           "--output-dir", str(tmp_path))
    assert code == 1
    assert "ratio=4.000 (fail)" in out


def test_probe_of_a_model_without_lyapunov_constants_exit_two(capsys, tmp_path, monkeypatch):
    model = ExperimentConfig.model
    monkeypatch.setattr(ExperimentConfig, "model", lambda self: replace(model(self), lyapunov=None))
    code, _, err = run_cli(capsys, "probe", "--output-dir", str(tmp_path))
    assert code == 2
    assert "Lyapunov" in err


def test_wasserstein_subcommand(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "wasserstein", "--n-steps", "4000",
                           "--replications", "4", "--seed", "1",
                           "--checkpoints", "1000,4000",
                           "--buffer-capacity", "1000",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "wasserstein" in out
    header = (tmp_path / "wasserstein.csv").read_text().splitlines()[0]
    assert header == "checkpoint_n,replication,value,w1"


def test_experiment_failure_exit_one(capsys, tmp_path):
    # euler with trapezoidal weights violates the order pairing -> config error
    code, _, err = run_cli(capsys, "clt", "--scheme", "euler", "--weight", "trapezoidal",
                           "--n-steps", "200", "--replications", "2",
                           "--checkpoints", "200", "--output-dir", str(tmp_path))
    assert code == 2
    assert "order" in err


def test_divergence_message_names_count_step_and_gamma1(capsys, tmp_path):
    # the catalog double well leaves the stable region at step.gamma1 = 1
    args = ["clt", "--model", "double_well", "--n-steps", "5000", "--replications", "60",
            "--seed", "4", "--output-dir", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, *args)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 1
    assert "51 of 60 replications diverged, the earliest at step 5" in err
    assert "step.gamma1 = 1.0" in err and "try a smaller --gamma1" in err
    assert "[(" not in err
    code, _, err = run_cli(capsys, *args, "--gamma1", "0.1")
    assert code == 0, err


def test_rejected_value_exit_two(capsys, tmp_path):
    # StepSchedule rejects xi outside (0, 1) with a plain ValueError
    code, _, err = run_cli(capsys, "clt", "--xi", "1.5", "--output-dir", str(tmp_path))
    assert code == 2
    assert "xi" in err


def test_internal_error_exit_three(capsys, tmp_path, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_clt", broken)
    code, _, err = run_cli(capsys, "clt", "--output-dir", str(tmp_path))
    assert code == 3
    assert "internal error" in err and "boom" in err
    assert "Traceback" not in err
    code, _, err = run_cli(capsys, "clt", "-v", "--output-dir", str(tmp_path))
    assert code == 3
    assert "Traceback" in err


# ---------------------------------------------------------------------------
# flags and config keys

# a value for each flag's key that differs from its default, except threads,
# whose only value is its default
FLAG_VALUES = {
    "model.id": "double_well", "model.theta": "2.5", "model.sigma": "0.5",
    "scheme": "talay2", "innovation": "rademacher", "f": "x^4",
    "step.gamma1": "0.5", "step.xi": "0.2", "weight.kind": "trapezoidal", "weight.c": "2.0",
    "n_steps": "1e4", "replications": "7", "seed": "11", "checkpoints": "10,100",
    "x0": "-0.5", "buffer_capacity": "64", "burn_in": "3", "threads": "1",
}


def test_every_flag_sets_a_table_key():
    assert set(cli.FLAGS.values()) <= set(CONFIG_KEYS)
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for parser in sub.choices.values():
        fixed = {"help", "config", "output_dir", "format", "assert_check", "verbose"}
        dests = {a.dest for a in parser._actions} - fixed
        assert dests == set(cli.FLAGS.values())


@pytest.mark.parametrize("flag,key", sorted(cli.FLAGS.items()))
def test_flag_resolves_like_config_key(tmp_path, flag, key):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {FLAG_VALUES[key]}\n")
    parser = cli.build_parser()
    from_flag = cli._load_config(parser.parse_args(["clt", flag, FLAG_VALUES[key]]))
    from_file = cli._load_config(parser.parse_args(["clt", "--config", str(cfg)]))
    assert from_flag == from_file
    # the benchmark passes --threads 1 and a mapping with threads = 1
    assert (from_flag == ExperimentConfig()) == (key == "threads")


def test_rate_defaults_follow_config_file_n_steps(capsys, tmp_path):
    # the default checkpoint grid ends at the file's n_steps, not the flag default
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("n_steps = 20000\nreplications = 50\n")
    code, _, err = run_cli(capsys, "rate", "--config", str(cfg), "--format", "json",
                           "--output-dir", str(tmp_path))
    assert code == 0, err
    payload = json.loads((tmp_path / "rate.json").read_text())
    assert payload["points"][-1][0] == 20000
    assert payload["config"]["replications"] == 50


def test_simulate_default_checkpoints_start_past_burn_in(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--n-steps", "2000", "--burn-in", "500",
                           "--format", "json", "--output-dir", str(tmp_path))
    assert code == 0, err
    checkpoints = json.loads((tmp_path / "simulate.json").read_text())["checkpoints"]
    assert checkpoints[0] > 500 and checkpoints[-1] == 2000


def test_rate_default_checkpoints_end_at_small_n_steps(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rate", "--n-steps", "500", "--format", "json",
                           "--output-dir", str(tmp_path))
    assert code == 0, err
    grid = [n for n, _ in json.loads((tmp_path / "rate.json").read_text())["points"]]
    assert len(grid) >= 3 and grid[-1] == 500


@pytest.mark.parametrize("argv,key", [
    (["wasserstein", "--replications", "0"], "replications"),
    (["clt", "--threads", "0"], "threads"),
    (["clt", "--threads", "-3"], "threads"),
    (["clt", "--burn-in", "-5"], "burn_in"),
    (["simulate", "--n-steps", "0"], "n_steps"),
    (["clt", "--n-steps", "2.5"], "n_steps"),
    (["clt", "--buffer-capacity", "-1"], "buffer_capacity"),
    (["clt", "--weight-c", "inf"], "weight.c"),
    (["clt", "--xi", "nan"], "step.xi"),
    (["wasserstein", "--buffer-capacity", "0"], "buffer_capacity"),
    (["clt", "--model", "ou_nd", "--config", "model.dim = 2.5"], "model.dim"),
    (["clt", "--model", "ou_nd", "--config", "model.dim = 0"], "model.dim"),
    (["simulate", "--model", "double_well", "--theta", "2.5", "--gamma1", "0.1"], "model.theta"),
    (["clt", "--config", "model.dim = 3"], "model.dim"),
    (["wasserstein", "--model", "ou_nd"], "invariant law"),
    (["clt", "--threads", "2"], "threads"),
    (["clt", "--config", "threads = 4"], "threads"),
    (["clt", "--x0", "1e300", "--n-steps", "2000", "--replications", "4"], "x0"),
    *(([cmd, "--theta", theta], "model.theta")
      for cmd in ("clt", "simulate", "wasserstein", "probe", "rate") for theta in ("0", "-1")),
    (["clt", "--model", "ou_nd", "--theta", "0"], "model.theta"),
    (["rate", "--sigma", "0", "--n-steps", "500"], "at n = 5"),
    (["rate", "--f", "x^0", "--n-steps", "500"], "at n = 5"),
    # argparse choices guard only the flag; the config key is checked on the config
    *(([cmd, "--config", "scheme = foo"], "unknown scheme 'foo'")
      for cmd in ("clt", "simulate", "wasserstein", "probe", "rate")),
    # the rate target -min(q xi, 1/2 - xi/2) reads xi, which constant steps ignore
    (["rate", "--config", "step.kind = constant", "--gamma1", "0.05", "--n-steps", "500"], "power-law"),
])
def test_out_of_range_value_exit_two_names_key(capsys, tmp_path, argv, key):
    if "--config" in argv:  # the text after --config is the file's content
        at = argv.index("--config") + 1
        cfg = tmp_path / "case.cfg"
        cfg.write_text(argv[at] + "\n")
        argv = [*argv[:at], str(cfg), *argv[at + 1:]]
    code, _, err = run_cli(capsys, *argv, "--output-dir", str(tmp_path))
    assert code == 2
    assert key in err


def test_double_well_below_the_gibbs_floor_refuses_clt_and_still_simulates(capsys, tmp_path):
    model = ["--model", "double_well", "--sigma", "0.005", "--gamma1", "0.25", "--n-steps", "200"]
    code, _, err = run_cli(capsys, "clt", *model, "--replications", "4", "--output-dir", str(tmp_path))
    assert code == 2 and "0.01" in err
    assert run_cli(capsys, "simulate", *model, "--output-dir", str(tmp_path))[0] == 0


def test_wasserstein_sigma_zero_measures_w1_to_the_point_mass(capsys, tmp_path):
    # sigma = 0 from x0 = 0: every state is 0, and so is the law
    code, _, err = run_cli(capsys, "wasserstein", "--sigma", "0", "--n-steps", "400",
                           "--replications", "2", "--buffer-capacity", "100", "--format", "json",
                           "--output-dir", str(tmp_path))
    assert code == 0, err
    text = (tmp_path / "wasserstein.json").read_text()
    assert "NaN" not in text
    assert all(v == 0.0 for v in json.loads(text)["mean_w1"].values())


# tiny sizes per subcommand, and the configurations the parser accepts that
# reach a corner of the models or the statistics
SWEEP_SIZES = {
    "simulate": ["--n-steps", "200"],
    "clt": ["--n-steps", "200", "--replications", "4"],
    "rate": ["--n-steps", "200", "--replications", "50"],
    "probe": [],
    "wasserstein": ["--n-steps", "200", "--replications", "2", "--buffer-capacity", "50"],
}
SWEEP_CONFIGS = [["--theta", "0"], ["--theta", "-1"], ["--theta", "0.5"], ["--sigma", "0"],
                 ["--sigma", "3"], ["--model", "double_well"], ["--model", "ou_nd", "--f", "x1^2"],
                 ["--f", "x^0"]]


def test_no_internal_error_or_nonfinite_report_for_any_accepted_config(capsys, tmp_path):
    for cmd, sizes in SWEEP_SIZES.items():
        for i, argv in enumerate(SWEEP_CONFIGS):
            out_dir = tmp_path / f"{cmd}{i}"
            code, _, err = run_cli(capsys, cmd, *sizes, *argv, "--format", "json",
                                   "--output-dir", str(out_dir))
            case = f"{cmd} {' '.join(argv)}: exit {code} {err}"
            assert code in (0, 1, 2) and "internal error" not in err, case
            for report in out_dir.glob("*.json"):
                text = report.read_text()
                assert "NaN" not in text and "Infinity" not in text, case


def test_benchmark_tracer_patches_and_restores_the_clt_path(capsys, tmp_path, monkeypatch):
    # perfbench/tracing.py patches ergostep names at run time; renaming or
    # removing one of them breaks the benchmark, and this test
    from ergostep import model

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import tracing

    original = model.generator_observable
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        code, _, err = run_cli(capsys, "clt", "--config", str(root / "configs" / "euler_clt.cfg"),
                               "--threads", "1", "--n-steps", "2000", "--checkpoints", "2000",
                               "--replications", "4", "--format", "json",
                               "--output-dir", str(tmp_path))
    finally:
        tracer.uninstall()
    assert code == 0, err
    metrics = tracer.layer_metrics()
    for name in ("catalog.field_calls", "model.operator_states", "innovations.draw_calls"):
        assert metrics[name] > 0, name
    assert model.generator_observable is original


def test_benchmark_selftest_passes():
    # the benchmark's own checks and tracer, at its tiny sizes: a change to
    # src that breaks a workload's check or a traced name fails here
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_importing_the_cli_and_harness_loads_no_scipy(tmp_path):
    # only the W1 distance imports scipy, inside the call, so a run that
    # computes no W1 never pays for loading it: neither the imports nor the
    # benchmarked clt and regime-classification calls load it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, ergostep.cli, ergostep.harness\n"
            "from ergostep.schedules import StepSchedule\n"
            "assert ergostep.cli.main(['clt', '--n-steps', '200', '--replications', '4', "
            f"'--output-dir', {str(tmp_path)!r}]) == 0\n"
            "ergostep.harness.classify_regime(StepSchedule('power_law', 1.0, 0.25), 'proportional', 1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    # the benchmark times exactly this import as its set-up, so only a
    # change to ergostep/__init__.py can move that figure
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, ergostep; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('ergostep', 'numpy')))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout.strip() == "['ergostep']"


def test_probe_refuses_csv(capsys, tmp_path):
    # the probe report is nested and has only a JSON form
    code, _, err = run_cli(capsys, "probe", "--format", "csv", "--output-dir", str(tmp_path))
    assert code == 2 and "--format" in err
    assert not (tmp_path / "probe.json").exists()
    code, _, _ = run_cli(capsys, "probe", "--output-dir", str(tmp_path))
    assert code == 0 and (tmp_path / "probe.json").exists()


def test_clt_refuses_a_model_without_a_unique_invariant_law(capsys, tmp_path):
    code, _, err = run_cli(capsys, "clt", "--model", "double_well", "--sigma", "0",
                           "--n-steps", "200", "--replications", "4", "--output-dir", str(tmp_path))
    assert code == 2 and "invariant law" in err
    assert not (tmp_path / "clt.csv").exists()


def test_clt_refuses_a_quadrature_rule_past_the_cap_before_simulating(capsys, tmp_path, monkeypatch):
    from ergostep import harness

    cfg = tmp_path / "ou8.cfg"
    cfg.write_text("model.id = ou_nd\nmodel.dim = 8\nf = x1^2\n")
    runs = []
    simulate_batch = harness.simulate_batch

    def counted(*args, **kwargs):
        runs.append(args[0])
        return simulate_batch(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate_batch", counted)
    code, _, err = run_cli(capsys, "clt", "--config", str(cfg), "--n-steps", "200",
                           "--replications", "4", "--output-dir", str(tmp_path / "clt"))
    assert code == 2 and "enumeration blow-up" in err
    assert runs == []
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--n-steps", "200",
                           "--output-dir", str(tmp_path / "simulate"))
    assert code == 0, err
    assert runs == ["euler"]
