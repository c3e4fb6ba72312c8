"""Per-layer timing of ergostep by patching its public functions at run time.

``LayerTracer.install()`` replaces module and class attributes of the
ergostep package with wrappers that time and count each call;
``uninstall()`` puts the originals back.  Nothing under ``src/`` changes,
and every wrapper returns what the wrapped function returns, so a traced run
produces the same numbers as an untraced one.

A span is one wrapped call.  Spans nest on a stack, and each group (one
layer's calls, e.g. ``catalog.field``) accumulates

    calls    the number of its spans;
    self_s   span time minus the time of the spans nested directly in it;
    total_s  span time of its outermost spans (a span nested in a span of
             the same group is not counted twice);
    states   states passed to its outermost spans, where counted;
    peak_mb  tracemalloc peak of its first call, where measured.

tracemalloc traces every Python object, and ``classify_regime`` makes ~1e7
of them for ``n_max = 1e7``, which slows it tenfold.  So the peak is not
taken on the timed call: after it returns, the same call is made once more
from fresh arguments under tracemalloc with accounting paused, and that
re-run's time is kept apart in ``excluded_s``.

Spans are aggregated as they close rather than stored: a traced round of
the talay2 workload makes about 700 000 of them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# coefficient and derivative fields of a catalog DiffusionModel
MODEL_FIELDS = ("b", "sigma", "db", "d2b", "dsigma", "d2sigma", "db_higher", "dsigma_higher")


@dataclasses.dataclass
class GroupStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    states: int = 0
    peak_mb: float = 0.0


def _states_in(args) -> int:
    """Number of states in the ``x`` argument of ``op(model, f, x, ...)``."""
    return int(np.prod(np.shape(args[2])[:-1], dtype=np.int64))


class LayerTracer:
    def __init__(self):
        self.groups: dict[str, GroupStats] = defaultdict(GroupStats)
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self._paused = False
        self.excluded_s = 0.0

    # -- spans -----------------------------------------------------------------

    def span(self, group: str, fn, count_states: bool = False, fresh_args=None):
        """``fn`` wrapped so that each call is one span of ``group``.
        ``fresh_args(args, kwargs)`` turns on the peak measurement: it gives
        arguments for the untimed re-run that shares no state with the call."""
        stats = self.groups[group]
        stack, open_ = self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            outer = open_[group] == 0
            if outer and count_states:
                stats.states += _states_in(args)
            frame = [0.0]
            stack.append(frame)
            open_[group] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_[group] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.self_s += dt - frame[0]
                if outer:
                    stats.total_s += dt
                if fresh_args is not None and stats.calls == 1:
                    self._measure_peak(stats, fn, *fresh_args(args, kwargs))

        return traced

    def _measure_peak(self, stats: GroupStats, fn, args, kwargs) -> None:
        t0 = time.perf_counter()
        self._paused = True
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            stats.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            self._paused = False
            rerun_s = time.perf_counter() - t0
            self.excluded_s += rerun_s
            if self._stack:
                self._stack[-1][0] += rerun_s

    # -- patching --------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every ergostep module attribute that is ``original``, so
        names imported with ``from .x import y`` are patched too."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "ergostep" or name.startswith("ergostep.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_function(self, original, group: str, **span_opts) -> None:
        self._replace_everywhere(original, self.span(group, original, **span_opts))

    def _patch_method(self, cls, name: str, group: str, **span_opts) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, self.span(group, original, **span_opts))

    def install(self) -> None:
        from ergostep import catalog, cli, empirical, harness, innovations, model, schedules, schemes

        if self._undo:
            raise RuntimeError("tracer already installed")
        self._patch_function(cli.main, "cli.main")

        def fresh_schedule(args, kwargs):
            step = args[0]
            return (schedules.StepSchedule(step.kind, step.gamma1, step.xi), *args[1:]), kwargs

        self._patch_function(harness.classify_regime, "harness.classify", fresh_args=fresh_schedule)
        for fn in (harness.ks_normality, empirical.merge_statistics, harness.fit_loglog):
            self._patch_function(fn, "harness.stats")
        self._patch_function(harness.emit, "harness.emit")
        self._patch_method(harness.CheckpointRecorder, "observe_block", "harness.recorder")
        self._patch_function(schemes.simulate_batch, "schemes.loop")
        self._patch_method(innovations.InnovationDist, "sample", "innovations.draw")
        self._patch_function(innovations.sample_kappa, "innovations.draw")
        self._patch_method(empirical.WeightedEmpiricalMeasure, "observe_block", "empirical.observe")
        self._patch_function(empirical.wasserstein1_atoms, "empirical.w1")
        for fn in (model.m1_euler, model.m1_talay, model.m2_talay, model.vf_operator):
            self._patch_function(fn, "model.operator", count_states=True)
        self._patch_method(schedules.StepSchedule, "gamma_block", "schedules.block")
        self._patch_method(schedules.WeightSchedule, "eta_block", "schedules.block")
        self._patch_method(schedules.StepSchedule, "big_gamma", "schedules.partial_sum")
        self._patch_method(schedules.WeightSchedule, "big_h", "schedules.partial_sum")

        # factories: trace what they return
        make_stepper = schemes.make_stepper

        def traced_make_stepper(scheme, mdl):
            return self.span("schemes.kernel", make_stepper(scheme, mdl))

        model_from_config = catalog.model_from_config

        def traced_model_from_config(cfg):
            built = model_from_config(cfg)
            fields = {f: self.span("catalog.field", getattr(built, f))
                      for f in MODEL_FIELDS if getattr(built, f) is not None}
            return dataclasses.replace(built, **fields)

        generator_observable = model.generator_observable

        def traced_generator_observable(mdl, f):
            af = generator_observable(mdl, f)
            return dataclasses.replace(af, fn=self.span("model.operator", af.fn))

        self._replace_everywhere(make_stepper, traced_make_stepper)
        self._replace_everywhere(model_from_config, traced_model_from_config)
        self._replace_everywhere(generator_observable, traced_generator_observable)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- readout ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The benchmark's per-layer metrics from the accumulated groups."""
        g = self.groups
        kernel = g["schemes.kernel"]
        return {
            "cli.self_s": g["cli.main"].self_s,
            "harness.classify_s": g["harness.classify"].total_s,
            "harness.classify_peak_mb": g["harness.classify"].peak_mb,
            "harness.stats_s": g["harness.stats"].total_s,
            "harness.emit_s": g["harness.emit"].total_s,
            "harness.recorder_self_s": g["harness.recorder"].self_s,
            "schemes.loop_self_s": g["schemes.loop"].self_s,
            "schemes.kernel_s": kernel.total_s,
            "schemes.kernel_us_per_step": 1e6 * kernel.total_s / kernel.calls if kernel.calls else 0.0,
            "catalog.field_calls": g["catalog.field"].calls,
            "catalog.field_s": g["catalog.field"].total_s,
            "innovations.draw_s": g["innovations.draw"].total_s,
            "innovations.draw_calls": g["innovations.draw"].calls,
            "empirical.observe_s": g["empirical.observe"].self_s,
            "empirical.w1_s": g["empirical.w1"].total_s,
            "model.operator_s": g["model.operator"].total_s,
            "model.operator_states": g["model.operator"].states,
            "schedules.block_s": g["schedules.block"].total_s,
            "schedules.partial_sum_s": g["schedules.partial_sum"].total_s,
        }

    def group_table(self) -> dict[str, dict]:
        return {name: dataclasses.asdict(stats) for name, stats in sorted(self.groups.items())}
