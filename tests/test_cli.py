from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from ergostep import cli
from ergostep.cli import main


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


def test_env_seed_default(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ERGODIC_SEED", "777")
    code, _, _ = run_cli(capsys, "clt", "--n-steps", "400", "--replications", "2",
                         "--checkpoints", "400", "--format", "json",
                         "--output-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "clt.json").read_text())
    assert payload["config"]["seed"] == 777


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


def test_probe_subcommand(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "probe", "--scheme", "talay2", "--assert",
                           "--output-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "probe.json").read_text())
    assert payload["weak_order_pass"]
    assert payload["recursive_control"]["verdict"] == "pass"
    assert payload["moment_match"]["matched_through"] >= 5


def test_probe_ou_nd_passes(capsys, tmp_path):
    # the Lyapunov constant beta = 2 + 2d tracks AV = 2 + 2d - 2V in d = 2
    code, out, _ = run_cli(capsys, "probe", "--model", "ou_nd", "--scheme", "euler",
                           "--f", "x1^2", "--assert", "--output-dir", str(tmp_path))
    assert code == 0
    assert "recursive control pass" in out


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
    code, _, err = run_cli(capsys, *args)
    assert code == 1
    assert "51 of 60 replications diverged, the earliest at step 6" in err
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
