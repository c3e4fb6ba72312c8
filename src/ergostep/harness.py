"""Replication experiments for the central-limit regimes of weighted
empirical measures: regime classification, normalized statistics at
checkpoints, rate regression, and report emission.

Replications run as one vectorized batch with independent per-replication
streams, so partitioning the replications never changes a per-replication
result, and aggregation is a deterministic reduction in replication-index
order.  Checkpoint statistics reuse a single trajectory per replication
(nested checkpoints), so values at different checkpoints of one replication
are correlated; rate fits inherit that caveat.  The CLT centres and
scales the statistic by nu(Mf) and nu(Vf), which the model's invariant
law gives by quadrature, so a model without one has no CLT report; W1
reads the law when it is a 1-d normal.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import catalog
from .empirical import SummaryStats, WeightedEmpiricalMeasure, merge_statistics, wasserstein1_atoms
from .innovations import InnovationDist
from .model import DiffusionModel, Observable, generator_observable, m1_euler, m1_talay, m2_talay, vf_operator
from .schedules import STEP_KINDS, WEIGHT_KINDS, StepSchedule, WeightSchedule, power_h
from .schemes import SCHEME_KINDS, simulate_batch


class ConfigError(ValueError):
    """Bad or unknown experiment configuration."""


class ExperimentError(RuntimeError):
    """An experiment failed its own validity conditions."""


KS_CRITICAL_1PCT = 1.628

# Each config key and the ExperimentConfig field it sets; the field's
# default is the key's only default.  model.theta, model.sigma and model.dim
# fill model_params in this order.
CONFIG_KEYS = {
    "model.id": "model_id",
    "model.theta": "model_params", "model.sigma": "model_params", "model.dim": "model_params",
    "scheme": "scheme", "innovation": "innovation_kind", "f": "observable_name",
    "step.kind": "step_kind", "step.gamma1": "gamma1", "step.xi": "xi",
    "weight.kind": "weight_kind", "weight.c": "weight_c",
    "n_steps": "n_steps", "replications": "replications", "seed": "seed",
    "checkpoints": "checkpoints", "x0": "x0", "buffer_capacity": "buffer_capacity",
    "threads": "threads", "burn_in": "burn_in",
}

# lower bounds of the integer keys that have one
_AT_LEAST = {"n_steps": 1, "replications": 1, "seed": 0, "burn_in": 0, "buffer_capacity": 0,
             "model.dim": 1}

# keys that accept one value: every replication owns its stream, so no
# partition of them changes a result, and a constant factor in every eta_k
# cancels from nu_n and the CLT normaliser.  They stay for existing configs
# and the benchmark's mappings.
_ONLY_VALUE = {"threads": 1, "weight.c": 1.0}


def _parse_int(text: str) -> int:
    """An integral literal: ``20000`` or ``1e5``, not ``2.5``."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():
            raise ValueError(f"{text!r} is not an integer") from None
        return int(value)


def _parse_value(key: str, name: str, default, text: str):
    """The value of config ``key``, which sets field ``name``, from its text:
    by the type of the field's default, and for model_params by the key
    (model.dim is an integer, model.theta and model.sigma are floats)."""
    if name == "checkpoints":
        return tuple(_parse_int(tok) for tok in text.split(",") if tok.strip())
    if key == "model.dim" or isinstance(default, int):
        value = _parse_int(text)
        low = _AT_LEAST.get(key)
        if low is not None and value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    if name == "model_params" or isinstance(default, float):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{text!r} is not finite")
        return value
    return text


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment; quotes optional."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value.strip("\"'")
    return out


def parse_config_file(path) -> dict[str, str]:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err


@dataclass(frozen=True)
class ExperimentConfig:
    model_id: str = "ou1d"
    model_params: dict = field(default_factory=dict)
    scheme: str = "euler"
    innovation_kind: str = "three_point"
    observable_name: str = "x^2"
    step_kind: str = "power_law"
    gamma1: float = 1.0
    xi: float = 1.0 / 3.0
    weight_kind: str = "proportional"
    weight_c: float = 1.0
    n_steps: int = 100_000
    replications: int = 2
    seed: int = 0
    checkpoints: tuple[int, ...] = ()
    x0: float = 0.0
    buffer_capacity: int = 0
    threads: int = 1
    burn_in: int = 0

    def __post_init__(self):
        for key, only in _ONLY_VALUE.items():
            value = getattr(self, CONFIG_KEYS[key])
            if value != only:
                raise ConfigError(f"bad value for {key}: must be {only:g}, got {value!r}")
        if self.scheme not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.step_kind not in STEP_KINDS:
            raise ConfigError(f"unknown step kind {self.step_kind!r}")
        if self.weight_kind not in WEIGHT_KINDS:
            raise ConfigError(f"unknown weight kind {self.weight_kind!r}")

    @classmethod
    def from_mapping(cls, cfg: dict[str, str]) -> "ExperimentConfig":
        unknown = sorted(set(cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        kwargs: dict = {"model_params": {}}
        for key, name in CONFIG_KEYS.items():
            if key not in cfg:
                continue
            try:
                value = _parse_value(key, name, defaults[name], str(cfg[key]).strip())
            except ValueError as err:
                raise ConfigError(f"bad value for {key}: {err}") from err
            if name == "model_params":
                kwargs[name][key.split(".", 1)[1]] = value
            else:
                kwargs[name] = value
        return cls(**kwargs)

    # -- builders -------------------------------------------------------------

    def model(self) -> DiffusionModel:
        mapping = {"model.id": self.model_id}
        mapping.update({f"model.{k}": v for k, v in self.model_params.items()})
        try:
            return catalog.model_from_config(mapping)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def steps(self) -> StepSchedule:
        return StepSchedule(kind=self.step_kind, gamma1=self.gamma1, xi=self.xi)

    def weights(self, steps: StepSchedule | None = None) -> WeightSchedule:
        return WeightSchedule(kind=self.weight_kind, reference=steps or self.steps())

    def innovation(self, model: DiffusionModel) -> InnovationDist:
        return InnovationDist(kind=self.innovation_kind, dimension=model.noise_dim)

    def observable(self, model: DiffusionModel) -> Observable:
        try:
            return catalog.observable_from_name(self.observable_name, dim=model.dim)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def scheme_order(self) -> int:
        """The order q that the weight family targets: 1 for proportional,
        2 for trapezoidal weights, which only talay2 reaches."""
        if self.weight_kind == "proportional":
            return 1
        if self.scheme == "euler":
            raise ConfigError("weight family must match scheme order (euler is order one)")
        return 2

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# regime classification


@dataclass(frozen=True)
class RegimeDecision:
    """The analytic regime and, beside it, ``ratio_span``: the ratio
    sqrt(Gamma_n) / H_{gamma^{q+1},n} at n_max over its value at n = 1e3."""

    regime: str            # A_centered | B_mixed | C_bias
    ratio_span: float
    xi: float
    q: int
    threshold: float


def classify_regime(step: StepSchedule, weight_kind: str, q: int,
                    n_max: int = 10**7) -> RegimeDecision:
    """Regime of the normalized statistic by the analytic rule, xi against
    1/(2q+1) (Lamberton & Pages, Bernoulli 2002): A above it, B on it, C
    below it.  ``ratio_span`` is reported beside the regime, from a 9-point
    log grid of n up to ``n_max``; it is not checked against the rule.
    Nothing reads ``weight_kind``; it stays because the benchmark's
    ``regime_grid`` passes it positionally.
    """
    if step.kind != "power_law":
        raise ConfigError("regime classification needs power-law steps")
    if q not in (1, 2):
        raise ConfigError("scheme order q must be 1 or 2")
    threshold = 1.0 / (2 * q + 1)
    if abs(step.xi - threshold) <= 1e-9:
        regime = "B_mixed"
    elif step.xi > threshold:
        regime = "A_centered"
    else:
        regime = "C_bias"

    grid = np.unique(np.logspace(3, math.log10(n_max), 9).astype(int))
    ratios = np.array([math.sqrt(step.big_gamma(int(n))) / power_h(step, q + 1, int(n)) for n in grid])
    return RegimeDecision(regime=regime, ratio_span=float(ratios[-1] / ratios[0]),
                          xi=step.xi, q=q, threshold=threshold)


def _validated_checkpoints(config: ExperimentConfig) -> list[int]:
    checkpoints = list(config.checkpoints) or [config.n_steps]
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ConfigError("checkpoints must be strictly increasing")
    if checkpoints[-1] != config.n_steps:
        raise ConfigError("checkpoints must end at n_steps")
    if checkpoints[0] <= config.burn_in:
        raise ConfigError("checkpoints must lie beyond the burn-in")
    return checkpoints


# ---------------------------------------------------------------------------
# replication driver with checkpoints


class CheckpointRecorder:
    """Feeds pre-step state blocks into a measure of one observable,
    snapshotting its per-replication ``value()`` at checkpoint step counts
    (splitting blocks exactly at checkpoints).  Steps k <= burn_in are
    dropped before they reach the measure; the surviving steps keep their
    original weights eta_k.

    With a ``law``, each checkpoint also stores in ``w1[c]`` the W1 distance
    from every replication's buffered atoms to that law, so no copy of the
    buffer outlives the checkpoint."""

    def __init__(self, measure: WeightedEmpiricalMeasure, checkpoints,
                 law: NormalDist | None = None, burn_in: int = 0):
        self.measure = measure
        self.checkpoints = sorted(int(c) for c in checkpoints)
        self.snapshots: dict[int, np.ndarray] = {}
        self.w1: dict[int, np.ndarray] = {}
        self.law = law
        self.burn_in = int(burn_in)

    def observe_block(self, k0: int, states: np.ndarray) -> None:
        m = states.shape[0]
        start = 0
        for c in self.checkpoints:
            if k0 <= c < k0 + m:
                self._feed(k0 + start, states[start: c - k0 + 1])
                start = c - k0 + 1
                self._snap(c)
        if start < m:
            self._feed(k0 + start, states[start:m])

    def _feed(self, k0: int, seg: np.ndarray) -> None:
        if k0 <= self.burn_in:
            drop = min(self.burn_in - k0 + 1, seg.shape[0])
            k0 += drop
            seg = seg[drop:]
        if seg.shape[0] == 0:
            return
        self.measure.observe_block(k0, seg)

    def _snap(self, c: int) -> None:
        self.snapshots[c] = np.array(self.measure.value(), ndmin=1)
        if self.law is not None:
            states, wts = self.measure.buffer()
            self.w1[c] = np.array([wasserstein1_atoms(states[:, r, 0], wts, self.law)
                                   for r in range(states.shape[1])])


def _run_blocks(config: ExperimentConfig, model: DiffusionModel, fn, checkpoints,
                law: NormalDist | None = None):
    """Run all replications of ``model`` as one vectorized batch, folding
    ``fn`` of the states into each replication's weighted empirical measure;
    with a ``law``, the measure buffers ``config.buffer_capacity`` atoms and
    the recorder takes each replication's W1 to the law at every checkpoint.

    Returns (the recorder, excluded pairs, indices of the kept
    replications); more than 5% excluded raises ``ExperimentError``.
    """
    r_total = config.replications
    measure = WeightedEmpiricalMeasure(weights=config.weights(), batch_shape=(r_total,),
                                       buffer_capacity=config.buffer_capacity if law is not None else 0,
                                       fn=fn)
    recorder = CheckpointRecorder(measure, checkpoints, law=law, burn_in=config.burn_in)
    res = simulate_batch(config.scheme, model, config.steps(), config.innovation(model),
                         config.n_steps, np.full(model.dim, config.x0),
                         master_seed=config.seed, replications=r_total, sinks=[recorder])
    excluded = res.excluded
    if len(excluded) > 0.05 * r_total:
        earliest = min(step for _, step in excluded)
        raise ExperimentError(
            f"{len(excluded)} of {r_total} replications diverged, the earliest at step "
            f"{earliest}, with step.gamma1 = {config.gamma1!r}; try a smaller --gamma1")
    dropped = {rep for rep, _ in excluded}
    keep = np.array([r for r in range(r_total) if r not in dropped], dtype=int)
    return recorder, excluded, keep


# ---------------------------------------------------------------------------
# the CLT experiment


@dataclass
class CltReport:
    regime: str
    scheme_order: int
    checkpoints: list[int]
    statistics: dict[int, np.ndarray]          # per checkpoint, per replication
    normalizers: dict[int, float]
    predicted_variance: float
    predicted_shift: dict[int, float]
    l_hat: dict[int, float]
    summaries: dict[int, SummaryStats]
    ks: dict[int, tuple[float, bool]]
    excluded: list
    config: dict
    replication_ids: list
    regime_decision: RegimeDecision

    def rows(self):
        for c in self.checkpoints:
            for r, s in zip(self.replication_ids, self.statistics[c]):
                yield {"checkpoint_n": c, "replication": int(r), "statistic": float(s)}

    csv_fields = ("checkpoint_n", "replication", "statistic")


def run_clt_experiment(config: ExperimentConfig) -> CltReport:
    """R independent trajectories; at each checkpoint n the normalized
    statistic H_n / (C sqrt(Gamma_n)) * nu_n(Af) per replication, plus the
    variance/shift predictions of the matching limit law, nu(Vf) and
    nu(Mf) by quadrature against the model's invariant law.  With a burn-in
    b every sum runs over k in (b, n]: H_n - H_b, Gamma_n - Gamma_b and the
    auxiliary H_n - H_b replace the full sums."""
    if config.replications < 2:
        raise ConfigError("CLT experiments need at least two replications")
    model = config.model()
    law = model.law
    if law is None:
        raise ConfigError(f"model {model.name!r} has no unique invariant law to centre "
                          f"and scale the CLT statistic")
    steps = config.steps()
    q = config.scheme_order()
    decision = classify_regime(steps, config.weight_kind, q, n_max=max(config.n_steps, 10**4))
    innovation = config.innovation(model)
    required = 2 * q + 1
    if innovation.matching_order is not None and innovation.matching_order < required:
        warnings.warn(
            f"innovation matches normal moments through order {innovation.matching_order}, "
            f"below the order-{q} scheme requirement {required}",
            stacklevel=2,
        )
    if decision.regime == "C_bias" and config.xi <= 1.0 / (2 * q + 3) + 1e-9:
        warnings.warn(
            f"regime C at xi = {config.xi:g} <= 1/{2 * q + 3}: the next bias term, of order "
            f"n^-xi, is not small against the spread l_hat_n, so the KS test can reject "
            f"correct code; use 1/{2 * q + 3} < xi < 1/{2 * q + 1}",
            stacklevel=2,
        )
    f = config.observable(model)
    af = generator_observable(model, f)
    checkpoints = _validated_checkpoints(config)

    nu_m = 0.0
    if decision.regime != "A_centered":
        if innovation.kind == "gaussian":
            raise ConfigError(
                f"regime {decision.regime} enumerates Mf over the innovation's finite support, "
                f"and gaussian innovations have none; use three_point or rademacher "
                f"innovations, or a regime-A xi > 1/{2 * q + 1}")
        operator = {("euler", 1): m1_euler, ("talay2", 1): m1_talay,
                    ("talay2", 2): m2_talay}[config.scheme, q]
        nu_m = law.expect(lambda xs: operator(model, f, xs, innovation))
    predicted_variance = law.expect(lambda xs: vf_operator(model, f, xs))

    recorder, excluded, keep = _run_blocks(config, model, af.fn, checkpoints)

    weights = config.weights(steps)

    statistics: dict[int, np.ndarray] = {}
    normalizers: dict[int, float] = {}
    shifts: dict[int, float] = {}
    l_hats: dict[int, float] = {}
    summaries: dict[int, SummaryStats] = {}
    ks: dict[int, tuple[float, bool]] = {}

    b = config.burn_in
    for c in checkpoints:
        h_n = weights.big_h(c) - weights.big_h(b)
        g_n = steps.big_gamma(c) - steps.big_gamma(b)
        aux_n = power_h(steps, q + 1, c) - power_h(steps, q + 1, b)
        norm = h_n / (aux_n if decision.regime == "C_bias" else math.sqrt(g_n))
        normalizers[c] = norm
        l_hats[c] = math.sqrt(g_n) / aux_n
        statistics[c] = norm * recorder.snapshots[c][keep]
        shifts[c] = nu_m / l_hats[c] if decision.regime == "B_mixed" else nu_m

    for c in checkpoints:
        summaries[c] = merge_statistics(statistics[c])
        if predicted_variance > 0 and len(statistics[c]) >= 50:
            # the regime-C statistic spreads like l_hat_n around nu(Mf)
            spread = l_hats[c] ** 2 if decision.regime == "C_bias" else 1.0
            ks[c] = ks_normality(statistics[c], spread * predicted_variance, shifts[c])

    return CltReport(
        regime=decision.regime,
        scheme_order=q,
        checkpoints=[int(c) for c in checkpoints],
        statistics=statistics,
        normalizers=normalizers,
        predicted_variance=predicted_variance,
        predicted_shift=shifts,
        l_hat=l_hats,
        summaries=summaries,
        ks=ks,
        excluded=excluded,
        config=config.to_dict(),
        replication_ids=[int(r) for r in keep],
        regime_decision=decision,
    )


# ---------------------------------------------------------------------------
# ergodic-average / Wasserstein experiment


@dataclass
class ErgodicReport:
    checkpoints: list[int]
    values: dict[int, np.ndarray]        # nu_n(f) per kept replication
    mean_values: dict[int, float]
    w1: dict[int, np.ndarray] | None     # per kept replication, when a law is known
    mean_w1: dict[int, float] | None
    excluded: list
    config: dict
    replication_ids: list

    def rows(self):
        for c in self.checkpoints:
            for i, (r, v) in enumerate(zip(self.replication_ids, self.values[c])):
                row = {"checkpoint_n": c, "replication": int(r), "value": float(v)}
                if self.w1 is not None:
                    row["w1"] = float(self.w1[c][i])
                yield row

    @property
    def csv_fields(self):
        return ("checkpoint_n", "replication", "value") + (("w1",) if self.w1 is not None else ())


def run_ergodic_experiment(config: ExperimentConfig, want_w1: bool) -> ErgodicReport:
    """Per-replication ergodic averages nu_n(f) at checkpoints, with W1
    distances to the model's invariant law when ``want_w1``."""
    model = config.model()
    f = config.observable(model)
    law = model.law.normal if want_w1 and model.law is not None else None
    if want_w1 and law is None:
        raise ConfigError("Wasserstein trace needs a model whose invariant law is a 1-d normal")
    if want_w1 and config.buffer_capacity <= 0:
        raise ConfigError("Wasserstein trace needs buffer_capacity > 0")
    checkpoints = _validated_checkpoints(config)

    recorder, excluded, keep = _run_blocks(config, model, f.fn, checkpoints, law=law)
    values = {int(c): recorder.snapshots[c][keep] for c in checkpoints}
    w1 = None
    mean_w1 = None
    if want_w1:
        w1 = {int(c): recorder.w1[c][keep] for c in checkpoints}
        mean_w1 = {c: float(np.mean(v)) for c, v in w1.items()}
    return ErgodicReport(
        checkpoints=[int(c) for c in checkpoints],
        values=values,
        mean_values={c: float(np.mean(v)) for c, v in values.items()},
        w1=w1,
        mean_w1=mean_w1,
        excluded=excluded,
        config=config.to_dict(),
        replication_ids=[int(r) for r in keep],
    )


# ---------------------------------------------------------------------------
# the rate experiment


@dataclass
class RateReport:
    points: list[tuple[int, float]]
    slope: float
    slope_ci: tuple[float, float]
    theoretical_exponent: float
    excluded: list
    config: dict

    def rows(self):
        for n, err in self.points:
            yield {"n": n, "rms_error": float(err)}

    csv_fields = ("n", "rms_error")


def fit_loglog(points) -> tuple[float, tuple[float, float]]:
    """Least-squares slope of log(error) against log(n) with a 95% CI; every
    error must be positive and finite."""
    pts = [(float(n), float(e)) for n, e in points]
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a slope")
    for n, e in pts:
        if not 0.0 < e < math.inf:
            raise ValueError(f"a log-log fit needs positive finite errors, got {e!r} at n = {n:g}")
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    xbar = xs.mean()
    sxx = float(np.sum((xs - xbar) ** 2))
    slope = float(np.sum((xs - xbar) * (ys - ys.mean())) / sxx)
    intercept = float(ys.mean() - slope * xbar)
    resid = ys - (intercept + slope * xs)
    if len(pts) > 2:
        se = math.sqrt(float(np.sum(resid**2)) / (len(pts) - 2) / sxx)
    else:
        se = 0.0
    return slope, (slope - 1.96 * se, slope + 1.96 * se)


def run_rate_experiment(config: ExperimentConfig) -> RateReport:
    """RMS over replications of nu_n(Af) on an n-grid, with the fitted
    log-log slope against the theoretical exponent -(q xi ^ (1/2 - xi/2))."""
    if config.step_kind != "power_law":
        raise ConfigError("rate experiments need power-law steps: the target exponent reads step.xi")
    if config.replications < 50:
        raise ConfigError("rate experiments need at least 50 replications")
    if len(config.checkpoints) < 3:
        raise ConfigError("rate experiments need at least 3 grid points")
    q = config.scheme_order()
    model = config.model()
    f = config.observable(model)
    af = generator_observable(model, f)
    checkpoints = _validated_checkpoints(config)

    recorder, excluded, keep = _run_blocks(config, model, af.fn, checkpoints)
    points = []
    for c in checkpoints:
        vals = recorder.snapshots[c][keep]
        points.append((int(c), float(np.sqrt(np.mean(vals**2)))))
    slope, ci = fit_loglog(points)
    theo = -min(q * config.xi, 0.5 - config.xi / 2.0)
    return RateReport(points=points, slope=slope, slope_ci=ci,
                      theoretical_exponent=theo, excluded=excluded,
                      config=config.to_dict())


# ---------------------------------------------------------------------------
# normality test


def ks_normality(samples, variance: float, mean: float = 0.0) -> tuple[float, bool]:
    """One-sample Kolmogorov-Smirnov distance against N(mean, variance);
    passes at the 1% level iff distance < 1.628 / sqrt(R)."""
    if variance <= 0:
        raise ValueError("variance hypothesis must be positive")
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = xs.size
    if n < 50:
        raise ValueError("need at least 50 samples")
    dist = NormalDist(mean, math.sqrt(variance))
    cdf = np.array([dist.cdf(v) for v in xs])
    hi = np.max(np.arange(1, n + 1) / n - cdf)
    lo = np.max(cdf - np.arange(0, n) / n)
    d = float(max(hi, lo))
    return d, d < KS_CRITICAL_1PCT / math.sqrt(n)


# ---------------------------------------------------------------------------
# emission


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _to_jsonable(dataclasses.asdict(obj))
    return obj


def emit(report, format: str, path) -> None:
    """Serialize a report deterministically; floats keep round-trip text."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    if format == "json":
        payload = json.dumps(_to_jsonable(report), indent=2, allow_nan=True)
        with open(path, "w") as fh:
            fh.write(payload)
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.csv_fields)
        for row in report.rows():
            writer.writerow([_csv_cell(row[k]) for k in report.csv_fields])


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v
