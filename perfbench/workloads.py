"""The benchmark's workloads: inputs made from a seed, the calls into the
program that one round makes, and checks of what they return.

Every check compares the program's output with a computation made here,
apart from the program (sums with ``math.fsum``, a refit with
``numpy.polyfit``, W1 in closed form with ``scipy.special``), or with a
property the method must have.  None compares with stored output.

``FULL`` holds the workloads the benchmark measures; ``TINY`` holds the same
workloads at sizes the self-test runs in seconds.
"""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
CONFIG = ROOT / "configs" / "euler_clt.cfg"


def program_seed(seed: int) -> int:
    """The master seed handed to ergostep for a benchmark seed."""
    return random.Random(f"ergostep-bench:{seed}").randrange(2**32)


def _sum_powers(n: int, exponents, chunk: int = 1 << 20) -> list[float]:
    """sum_{k<=n} k**(-e) for each e, by chunked pairwise sums folded with
    fsum (relative error ~1e-15), without materializing n floats."""
    parts: list[list[float]] = [[] for _ in exponents]
    for lo in range(1, n + 1, chunk):
        ks = np.arange(lo, min(lo + chunk, n + 1), dtype=np.float64)
        for part, e in zip(parts, exponents):
            part.append(float(np.sum(ks ** (-e))))
    return [math.fsum(p) for p in parts]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """One workload.  ``inputs(seed)`` is all the set-up there is;
    ``operations(inputs)`` gives the program calls of one round, each timed
    on its own; ``collect`` turns a call's return value into its result
    outside the timed region; ``check`` takes the results of every round in
    order, each round's aligned with its operations and None where a call
    failed, and returns what is wrong with them (empty: correct)."""

    name = ""

    def inputs(self, seed: int):
        raise NotImplementedError

    def operations(self, inputs) -> list:
        raise NotImplementedError

    def collect(self, returned):
        return returned

    def check(self, inputs, results) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, result):
        """The numbers of a result that must repeat bit for bit."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# clt_euler_cli


@dataclasses.dataclass(frozen=True)
class CltEulerCli(Workload):
    """``ergostep clt --config configs/euler_clt.cfg`` run in-process."""

    name: str = "clt_euler_cli"
    n_steps: int = 100_000

    # as in configs/euler_clt.cfg
    replications = 200
    xi = 0.3333333333333333
    predicted_variance = 8.0   # nu(|sigma' Df|^2) = E[8 X^2], X ~ N(0, 1)
    # Acceptance bands at a false-alarm rate of 1e-5 each for R = 200:
    # chi-square(199) quantiles 5e-6 and 1 - 5e-6 scaled by 8/199, and the
    # upper 1e-5 point of sqrt(R) * (Kolmogorov distance).  The self-test
    # recomputes both from scipy.stats.
    variance_band = (4.9398, 12.0499)
    ks_sqrt_r = 2.4516

    def inputs(self, seed):
        out = OUT_DIR / self.name
        argv = ["clt", "--config", str(CONFIG), "--threads", "1", "--format", "json",
                "--seed", str(program_seed(seed)), "--output-dir", str(out)]
        if self.n_steps != 100_000:
            argv += ["--n-steps", str(self.n_steps), "--checkpoints", str(self.n_steps)]
        return argv

    def operations(self, argv):
        from ergostep import cli

        def run():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"ergostep clt exited {code}")
            return argv[argv.index("--output-dir") + 1]

        return [run]

    def collect(self, out_dir) -> dict:
        import json

        with open(Path(out_dir) / "clt.json") as fh:
            return json.load(fh)

    def expected_shift(self) -> float:
        # -nu(M1 f) H_{gamma^2,n} / sqrt(Gamma_n) with nu(M1 f) = -1 for x^2 on OU
        g = [k ** -self.xi for k in range(1, self.n_steps + 1)]
        return -math.fsum(v * v for v in g) / math.sqrt(math.fsum(g))

    def check(self, argv, results):
        errors = []
        shift = self.expected_shift()
        key = str(self.n_steps)
        for report in filter(None, results):
            stats = np.asarray(report["statistics"].get(key, []), dtype=np.float64)
            if report["excluded"]:
                errors.append(f"excluded replications {report['excluded']}")
            if report["regime"] != "B_mixed":
                errors.append(f"regime {report['regime']}, xi = 1/3 with q = 1 is B_mixed")
            if stats.size != self.replications:
                errors.append(f"{stats.size} statistics at n = {key}, expected {self.replications}")
                continue
            if _rel(report["predicted_shift"][key], shift) > 1e-9:
                errors.append(f"predicted_shift {report['predicted_shift'][key]!r} != {shift!r}")
            var = float(np.var(stats, ddof=1))
            lo, hi = self.variance_band
            if not lo <= var <= hi:
                errors.append(f"sample variance {var:.4f} outside [{lo}, {hi}]")
            d = ks_distance(stats, shift, self.predicted_variance)
            if d * math.sqrt(stats.size) >= self.ks_sqrt_r:
                errors.append(f"KS distance {d:.4f} to N({shift:.4f}, 8) >= {self.ks_sqrt_r}/sqrt(R)")
        return errors

    def fingerprint(self, report):
        return report["statistics"]


def ks_distance(samples, mean: float, variance: float) -> float:
    """One-sample Kolmogorov-Smirnov distance to N(mean, variance)."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = xs.size
    scale = math.sqrt(2.0 * variance)
    cdf = np.array([0.5 * math.erfc(-(x - mean) / scale) for x in xs])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


# ---------------------------------------------------------------------------
# rate_talay2


@dataclasses.dataclass(frozen=True)
class RateTalay2(Workload):
    """``run_rate_experiment`` for talay2 with trapezoidal weights at xi = 1/5."""

    name: str = "rate_talay2"
    n_steps: int = 100_000

    replications = 100
    xi = 0.2
    q = 2
    slope_tolerance = 0.12

    def grid(self) -> list[int]:
        top = math.log10(self.n_steps)
        return [int(round(g)) for g in np.logspace(top - 2, top, 5)]

    def inputs(self, seed):
        from ergostep.harness import ExperimentConfig

        return ExperimentConfig.from_mapping({
            "model.id": "ou1d", "scheme": "talay2", "innovation": "three_point", "f": "x^2",
            "step.kind": "power_law", "step.gamma1": "1.0", "step.xi": repr(self.xi),
            "weight.kind": "trapezoidal", "weight.c": "1.0",
            "n_steps": str(self.n_steps), "replications": str(self.replications),
            "seed": str(program_seed(seed)), "threads": "1",
            "checkpoints": ",".join(map(str, self.grid())),
        })

    def operations(self, config):
        from ergostep import harness

        return [lambda: harness.run_rate_experiment(config)]

    def check(self, config, results):
        errors = []
        target = -min(self.q * self.xi, 0.5 - self.xi / 2.0)
        for report in filter(None, results):
            if report.excluded:
                errors.append(f"excluded replications {report.excluded}")
            ns = [n for n, _ in report.points]
            errs = np.array([e for _, e in report.points])
            if ns != self.grid() or not np.all(np.isfinite(errs) & (errs > 0)):
                errors.append(f"points {report.points} do not cover the grid {self.grid()}")
                continue
            if abs(report.theoretical_exponent - target) > 1e-12:
                errors.append(f"theoretical exponent {report.theoretical_exponent} != {target}")
            if abs(report.slope - target) > self.slope_tolerance:
                errors.append(f"slope {report.slope:.4f} not within {self.slope_tolerance} of {target}")
            refit = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
            if abs(refit - report.slope) > 1e-12:
                errors.append(f"slope {report.slope!r} != polyfit {refit!r}")
        return errors

    def fingerprint(self, report):
        return report.points


# ---------------------------------------------------------------------------
# w1_trace


@dataclasses.dataclass(frozen=True)
class W1Trace(Workload):
    """``run_ergodic_experiment(want_w1=True)``: OU, Euler, buffered atoms."""

    name: str = "w1_trace"
    n_steps: int = 100_000
    replications: int = 20
    buffer_capacity: int = 20_000
    checkpoints: tuple[int, ...] = (1_000, 10_000, 100_000)
    mean_tolerance: float = 0.05     # |mean nu_n(x^2) - 1| at the last checkpoint
    w1_limit: float = 0.05           # mean W1 at the last checkpoint

    def inputs(self, seed):
        from ergostep.harness import ExperimentConfig

        return ExperimentConfig.from_mapping({
            "model.id": "ou1d", "scheme": "euler", "innovation": "three_point", "f": "x^2",
            "step.kind": "power_law", "step.gamma1": "1.0", "step.xi": "0.3333333333333333",
            "weight.kind": "proportional", "weight.c": "1.0",
            "n_steps": str(self.n_steps), "replications": str(self.replications),
            "seed": str(program_seed(seed)), "threads": "1",
            "checkpoints": ",".join(map(str, self.checkpoints)),
            "buffer_capacity": str(self.buffer_capacity),
        })

    def operations(self, config):
        from ergostep import harness

        return [lambda: harness.run_ergodic_experiment(config, want_w1=True)]

    def serial_atoms(self, config):
        """Atoms and weights of replication 0 from a serial ``simulate``."""
        from ergostep.empirical import WeightedEmpiricalMeasure
        from ergostep.schemes import simulate

        model = config.model()
        steps = config.steps()
        measure = WeightedEmpiricalMeasure(weights=config.weights(steps),
                                           buffer_capacity=config.buffer_capacity)
        simulate(config.scheme, model, steps, config.innovation(model), config.n_steps,
                 [config.x0], rng_seed=config.seed, sinks=[measure], replication=0)
        states, weights = measure.buffer()
        return states[:, 0], weights

    def check(self, config, results):
        errors = []
        last = self.checkpoints[-1]
        expected_w1 = None
        for report in filter(None, results):
            if report.excluded:
                errors.append(f"excluded replications {report.excluded}")
                continue
            mean = report.mean_values[last]
            if abs(mean - 1.0) > self.mean_tolerance:
                errors.append(f"mean nu_n(x^2) = {mean:.4f} at n = {last}, not within "
                              f"{self.mean_tolerance} of 1")
            w1 = [report.mean_w1[c] for c in self.checkpoints]
            if not all(b < a for a, b in zip(w1, w1[1:])):
                errors.append(f"mean W1 {w1} does not decrease strictly")
            if not w1[-1] < self.w1_limit:
                errors.append(f"mean W1 {w1[-1]:.4f} at n = {last} is not below {self.w1_limit}")
            if expected_w1 is None:
                expected_w1 = w1_state_space(*self.serial_atoms(config))
            got = float(report.w1[last][0])
            if _rel(got, expected_w1) > 1e-9:
                errors.append(f"W1 of replication 0 is {got!r}, "
                              f"state-space integral gives {expected_w1!r}")
        return errors

    def fingerprint(self, report):
        return ({c: v.tolist() for c, v in report.values.items()},
                {c: v.tolist() for c, v in report.w1.items()})


def w1_state_space(xs, weights) -> float:
    """W1 between weighted atoms and N(0, 1) as int |F_n(x) - Phi(x)| dx.

    F_n is constant at level c on each cell [a, b] between consecutive
    sorted atoms, and G(x) = x Phi(x) + phi(x) is an antiderivative of Phi,
    so the integral over a cell, split at s = Phi^{-1}(c) clipped to [a, b],
    is c (s - a) - (G(s) - G(a)) + (G(b) - G(s)) - c (b - s).  The unbounded
    end cells give G(x_(1)) on the left and G(x_(m)) - x_(m) on the right.
    """
    from scipy.special import ndtr, ndtri

    order = np.argsort(xs, kind="stable")
    x = np.asarray(xs, dtype=np.float64)[order]
    w = np.asarray(weights, dtype=np.float64)[order]

    def big_g(t):
        return t * ndtr(t) + np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    a, b = x[:-1], x[1:]
    level = np.cumsum(w)[:-1] / w.sum()
    s = np.clip(ndtri(level), a, b)
    cells = level * (s - a) - (big_g(s) - big_g(a)) + (big_g(b) - big_g(s)) - level * (b - s)
    return math.fsum(cells) + float(big_g(x[0])) + float(big_g(x[-1]) - x[-1])


# ---------------------------------------------------------------------------
# regime_grid


@dataclasses.dataclass(frozen=True)
class RegimeGrid(Workload):
    """``classify_regime`` over (xi, q) pairs covering regimes A, B and C
    for q = 1 and q = 2, each with a fresh StepSchedule."""

    name: str = "regime_grid"
    n_max: int = 10**7

    def inputs(self, seed):
        rng = random.Random(f"regime_grid:{seed}")
        pairs = []
        for q in (1, 2):
            threshold = 1.0 / (2 * q + 1)
            pairs += [(rng.uniform(threshold + 0.05, 0.9), q),
                      (threshold, q),
                      (rng.uniform(0.05, threshold - 0.05), q)]
        return pairs

    def operations(self, pairs):
        from ergostep import harness
        from ergostep.schedules import StepSchedule

        def call(xi, q):
            return lambda: harness.classify_regime(StepSchedule("power_law", 1.0, xi),
                                                   "proportional", q, n_max=self.n_max)

        return [call(xi, q) for xi, q in pairs]

    def expected_span(self, xi: float, q: int) -> float:
        """sqrt(Gamma_n) / H_{gamma^{q+1},n} at n_max over the same at 1000."""
        lo_g, lo_h = _sum_powers(1000, (xi, (q + 1) * xi))
        hi_g, hi_h = _sum_powers(self.n_max, (xi, (q + 1) * xi))
        return (math.sqrt(hi_g) / hi_h) / (math.sqrt(lo_g) / lo_h)

    def check(self, pairs, results):
        errors = []
        spans = {}
        for i, decision in enumerate(results):
            if decision is None:
                continue
            xi, q = pairs[i % len(pairs)]
            threshold = 1.0 / (2 * q + 1)
            want = ("B_mixed" if abs(xi - threshold) <= 1e-9
                    else "A_centered" if xi > threshold else "C_bias")
            if decision.regime != want or decision.xi != xi or decision.q != q:
                errors.append(f"(xi={xi}, q={q}) classified {decision.regime}, rule gives {want}")
            if (xi, q) not in spans:
                spans[(xi, q)] = self.expected_span(xi, q)
            if _rel(decision.ratio_span, spans[(xi, q)]) > 1e-9:
                errors.append(f"(xi={xi}, q={q}) ratio_span {decision.ratio_span!r} != "
                              f"{spans[(xi, q)]!r}")
        return errors

    def fingerprint(self, decision):
        return (decision.regime, decision.ratio_span)


FULL = {w.name: w for w in (CltEulerCli(), RateTalay2(), W1Trace(), RegimeGrid())}

TINY = {w.name: w for w in (
    CltEulerCli(n_steps=2_000),
    RateTalay2(n_steps=5_000),
    W1Trace(n_steps=10_000, replications=4, buffer_capacity=2_000,
            checkpoints=(100, 1_000, 10_000), mean_tolerance=0.2, w1_limit=0.15),
    RegimeGrid(n_max=10**5),
)}
