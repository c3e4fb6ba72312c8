"""Command-line front end: config parsing, catalog wiring, experiment runs.

Subcommands: ``simulate`` (one-trajectory ergodic trace), ``clt``
(normalized-statistic report), ``rate`` (log-log rate regression), ``probe``
(hypothesis diagnostics), ``wasserstein`` (distance trace to the catalog
invariant law).  ``--assert`` turns each report's tolerance into the exit
code so the experiments double as reproduction scripts.

Every override flag sets one config key of ``harness.CONFIG_KEYS`` (the
``FLAGS`` map), and its text is parsed like that key's value in a config
file; flags win over the file.  A subcommand's defaults (the trace
checkpoints of ``simulate`` and ``wasserstein``, the buffer of
``wasserstein``, the replications and checkpoint grid of ``rate``) are
computed from the resolved config and apply only to keys that neither the
file nor a flag set; ``simulate`` always runs one replication.  Exit codes:

  0  success (with ``--assert``: every tolerance met)
  1  the experiment failed: a tolerance missed under ``--assert``, more
     than 5% of the replications diverged, a ``probe`` expectation that
     is not finite, or an experiment error
  2  usage or configuration error: a bad flag or config value, or any
     other value the library rejects with ``ValueError``
  3  internal error (any other exception), a bug in ergostep; ``-v``
     prints the traceback
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import recursive_control_probe, weak_order_probe
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    emit,
    parse_config_file,
    run_clt_experiment,
    run_ergodic_experiment,
    run_rate_experiment,
)
from .innovations import INNOVATION_KINDS
from .schedules import WEIGHT_KINDS
from .schemes import SCHEME_KINDS, DivergenceError

EULER_RATIO_WINDOW = (3.2, 4.8)
TALAY_RATIO_WINDOW = (6.0, 10.0)
SLOPE_TOLERANCE = 0.12


# Each override flag and the config key it sets; the key's parser in
# ExperimentConfig.from_mapping reads the flag's text.
FLAGS = {
    "--model": "model.id", "--theta": "model.theta", "--sigma": "model.sigma",
    "--scheme": "scheme", "--innovation": "innovation", "--f": "f",
    "--gamma1": "step.gamma1", "--xi": "step.xi", "--weight": "weight.kind", "--weight-c": "weight.c",
    "--n-steps": "n_steps", "--replications": "replications", "--seed": "seed",
    "--checkpoints": "checkpoints", "--x0": "x0", "--buffer-capacity": "buffer_capacity",
    "--burn-in": "burn_in", "--threads": "threads",
}
CHOICES = {"scheme": SCHEME_KINDS, "innovation": INNOVATION_KINDS, "weight.kind": WEIGHT_KINDS}


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--config", type=Path, help="flat key=value config file")
    p.add_argument("--output-dir", type=Path, default=Path("."))
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--assert", dest="assert_check", action="store_true",
                   help="fold report tolerances into the exit code")
    p.add_argument("-v", "--verbose", action="count", default=0)
    for flag, key in FLAGS.items():
        p.add_argument(flag, dest=key, choices=CHOICES.get(key), help=f"sets {key}")


def _load_config(args: argparse.Namespace, defaults=None) -> ExperimentConfig:
    """The config file, overridden by the flags; ``defaults(config)`` gives
    {key: text} for keys that neither the file nor a flag set."""
    mapping: dict[str, str] = {}
    if args.config is not None:
        if not args.config.exists():
            raise ConfigError(f"config file not found: {args.config}")
        mapping = parse_config_file(args.config)
    flags = vars(args)
    mapping.update({key: flags[key] for key in FLAGS.values() if flags[key] is not None})
    config = ExperimentConfig.from_mapping(mapping)
    if defaults is None:
        return config
    unset = {key: text for key, text in defaults(config).items() if key not in mapping}
    return ExperimentConfig.from_mapping({**mapping, **unset})


def _log_grid(lo: int, n: int, points: int, burn_in: int) -> str:
    """Checkpoints at ``points`` log-spaced values from ``lo`` to n, rounded
    down, past the burn-in; the last is n itself (10**log10(n) may round
    down to n - 1)."""
    grid = np.logspace(math.log10(max(lo, burn_in + 1)), math.log10(n), points).astype(int)
    grid[-1] = n
    return ",".join(str(int(g)) for g in np.unique(grid) if burn_in < g <= n)


def _trace_defaults(config: ExperimentConfig) -> dict[str, str]:
    return {"checkpoints": _log_grid(10, config.n_steps, 16, config.burn_in)}


def _wasserstein_defaults(config: ExperimentConfig) -> dict[str, str]:
    return {**_trace_defaults(config), "buffer_capacity": "20000"}


def _rate_defaults(config: ExperimentConfig) -> dict[str, str]:
    # from n/100, raised to 1000 when n > 1000 but never past n/10: the grid
    # spans one to two decades up to n
    n = config.n_steps
    lo = min(max(1000, n // 100), n // 10) if n > 1000 else max(1, n // 100)
    return {"replications": "100", "checkpoints": _log_grid(lo, n, 5, config.burn_in)}


def _cmd_simulate(args) -> int:
    config = replace(_load_config(args, _trace_defaults), replications=1)
    report = run_ergodic_experiment(config, want_w1=False)
    out = args.output_dir / f"simulate.{args.format}"
    emit(report, args.format, out)
    final = report.mean_values[report.checkpoints[-1]]
    print(f"simulate: n={config.n_steps} nu_n({config.observable_name}) = {final!r} -> {out}")
    return 0


def _cmd_clt(args) -> int:
    config = _load_config(args)
    report = run_clt_experiment(config)
    out = args.output_dir / f"clt.{args.format}"
    emit(report, args.format, out)
    final = report.checkpoints[-1]
    stats = report.summaries[final]
    ks = report.ks.get(final)
    ks_text = "ks=n/a" if ks is None else f"ks={ks[0]:.4f} ({'pass' if ks[1] else 'fail'})"
    print(f"clt: regime={report.regime} n={final} mean={stats.mean:.4f} "
          f"var={stats.variance:.4f} predicted_var={report.predicted_variance:.4f} "
          f"shift={report.predicted_shift[final]:.4f} {ks_text} -> {out}")
    if args.verbose:
        for c in report.checkpoints:
            s = report.summaries[c]
            print(f"  n={c}: mean={s.mean:.5f} var={s.variance:.5f} "
                  f"skew={s.skewness:.3f} exkurt={s.excess_kurtosis:.3f}")
    if args.assert_check and ks is None:
        print("clt: --assert checked no KS test (KS needs at least 50 kept replications "
              "and a positive predicted variance)")
    return 1 if (args.assert_check and ks is not None and not ks[1]) else 0


def _cmd_rate(args) -> int:
    config = _load_config(args, _rate_defaults)
    report = run_rate_experiment(config)
    out = args.output_dir / f"rate.{args.format}"
    emit(report, args.format, out)
    lo, hi = report.slope_ci
    ok = abs(report.slope - report.theoretical_exponent) <= SLOPE_TOLERANCE
    print(f"rate: slope={report.slope:.4f} ci=({lo:.4f},{hi:.4f}) "
          f"target={report.theoretical_exponent:.4f} "
          f"({'pass' if ok else 'fail'} at +-{SLOPE_TOLERANCE}) -> {out}")
    return 1 if (args.assert_check and not ok) else 0


def _cmd_probe(args) -> int:
    config = _load_config(args)
    model = config.model()
    if model.lyapunov is None:
        raise ConfigError(f"model {model.name!r} has no Lyapunov constants to probe")
    innovation = config.innovation(model)
    f = config.observable(model)
    probe_gamma = min(2.0**-6, config.gamma1)
    gammas = [probe_gamma, probe_gamma / 2.0]
    wo = weak_order_probe(config.scheme, model, f, np.full(model.dim, 1.0), gammas, innovation)
    window = EULER_RATIO_WINDOW if config.scheme == "euler" else TALAY_RATIO_WINDOW
    # a remainder that vanishes faster than gamma^(q+1) passes, so only the
    # window's lower end binds
    ratio = wo.ratios[0]
    wo_ok = wo.errors[0] == 0.0 or (ratio is not None and ratio >= window[0])

    required = 2 * (1 if config.scheme == "euler" else 2) + 1
    matched = min(innovation.matching_order or required, required)
    mm_ok = matched >= required

    rc = recursive_control_probe(config.scheme, model, model.lyapunov, probe_gamma, innovation)
    payload = {
        "weak_order": wo,
        "weak_order_window": list(window),
        "weak_order_pass": wo_ok,
        "moment_match": {
            "kind": innovation.kind,
            "matched_through": matched,
            "required": required,
            "pass": mm_ok,
        },
        "recursive_control": rc,
    }
    out = args.output_dir / "probe.json"
    emit(payload, "json", out)
    ratio_text = "n/a" if ratio is None else f"{ratio:.3f}"
    print(f"probe: weak_order ratio={ratio_text} ({'pass' if wo_ok else 'fail'}), "
          f"moments through {matched} ({'pass' if mm_ok else 'fail'}), "
          f"recursive control {rc.verdict} -> {out}")
    all_ok = wo_ok and mm_ok and rc.verdict == "pass"
    return 1 if (args.assert_check and not all_ok) else 0


def _cmd_wasserstein(args) -> int:
    config = _load_config(args, _wasserstein_defaults)
    report = run_ergodic_experiment(config, want_w1=True)
    out = args.output_dir / f"wasserstein.{args.format}"
    emit(report, args.format, out)
    means = [report.mean_w1[c] for c in report.checkpoints]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    print("wasserstein: " + " ".join(
        f"n={c}:{report.mean_w1[c]:.5f}" for c in report.checkpoints)
        + f" ({'decreasing' if decreasing else 'not decreasing'}) -> {out}")
    return 1 if (args.assert_check and not (decreasing and means[-1] < 0.05)) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergostep",
        description="Invariant-distribution experiments for decreasing-step schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the probe report is nested, so it has no CSV form
    for name, fn, formats, blurb in (
        ("simulate", _cmd_simulate, ("csv", "json"), "one trajectory, ergodic-average trace"),
        ("clt", _cmd_clt, ("csv", "json"), "normalized-statistic distribution at checkpoints"),
        ("rate", _cmd_rate, ("csv", "json"), "log-log convergence-rate regression"),
        ("probe", _cmd_probe, ("json",), "hypothesis diagnostics (weak order, moments, mean reversion)"),
        ("wasserstein", _cmd_wasserstein, ("csv", "json"), "W1 distance trace to the catalog law"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p, formats)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        return args.fn(args)
    except ValueError as err:  # ConfigError, and every value the library rejects
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ExperimentError, DivergenceError) as err:
        print(f"experiment failed: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # anything else is a bug in ergostep
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        if args.verbose:
            traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
