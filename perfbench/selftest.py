"""Self-test of the benchmark's checks and tracer; runs in seconds.

    python3 perfbench/selftest.py

For each workload it runs one round at the ``TINY`` sizes, untraced and
traced, and asserts that

  * the check accepts the result;
  * the traced result is bit-identical to the untraced one, and the tracer
    reports every per-layer metric that BENCHMARK.json names;
  * the check rejects the result once it is corrupted the way a fault
    would corrupt it:
      clt_euler_cli  statistics scaled by 1.66, the burn-in inflation
                     H_n / (H_n - H_burn) at n = 2e4 with burn-in 5e3
      rate_talay2    slope moved by +0.2 and by -0.2
      w1_trace       W1 of the rechecked replication off by 1e-6
      regime_grid    one regime flipped

It also recomputes the CLT acceptance bands from ``scipy.stats``.  Exits 0
when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import time

from worker import run_round  # noqa: E402  (puts src/ on sys.path)

from tracing import LayerTracer
from workloads import ROOT, TINY, CltEulerCli

SEED = 11


def corrupt(name: str, result):
    """Wrong versions of one result of workload ``name``."""
    if name == "clt_euler_cli":
        bad = copy.deepcopy(result)
        for key, stats in bad["statistics"].items():
            bad["statistics"][key] = [1.66 * s for s in stats]
        return [bad]
    if name == "rate_talay2":
        return [dataclasses.replace(result, slope=result.slope + d) for d in (0.2, -0.2)]
    if name == "w1_trace":
        bad = copy.deepcopy(result)
        last = max(bad.w1)
        bad.w1[last][0] += 1e-6
        return [bad]
    if name == "regime_grid":
        flip = {"A_centered": "C_bias", "B_mixed": "A_centered", "C_bias": "B_mixed"}
        return [dataclasses.replace(result, regime=flip[result.regime])]
    raise KeyError(name)


def check_bands() -> list[str]:
    from scipy import stats

    w = CltEulerCli()
    r = w.replications
    alpha = 1e-5
    want = (stats.chi2.ppf(alpha / 2, r - 1) * 8 / (r - 1),
            stats.chi2.isf(alpha / 2, r - 1) * 8 / (r - 1),
            stats.kstwo(r).isf(alpha) * r**0.5)
    got = (*w.variance_band, w.ks_sqrt_r)
    if any(abs(a - b) > 1e-4 for a, b in zip(got, want)):
        return [f"CLT bands {got} differ from scipy.stats {want}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        layer_names = {m["name"] for m in json.load(fh)["per_layer"]} - {"trace.overhead_s"}
    problems = check_bands()
    for name, workload in TINY.items():
        t0 = time.perf_counter()
        inputs = workload.inputs(SEED)
        operations = workload.operations(inputs)
        _, plain, failed = run_round(workload, operations)
        tracer = LayerTracer()
        _, traced, failed_traced = run_round(workload, operations, tracer)
        found = []
        if failed or failed_traced:
            found.append(f"operations failed: {failed + failed_traced}")
        else:
            found += [f"rejects a correct result: {e}" for e in workload.check(inputs, plain)]
            if [workload.fingerprint(r) for r in plain] != [workload.fingerprint(r) for r in traced]:
                found.append("traced result differs from the untraced one")
            missing = layer_names - set(tracer.layer_metrics())
            if missing:
                found.append(f"tracer lacks per-layer metrics {sorted(missing)}")
            for i, result in enumerate(plain):
                for bad in corrupt(name, result):
                    wrong = plain[:i] + [bad] + plain[i + 1:]
                    if not workload.check(inputs, wrong):
                        found.append(f"accepts a corrupted result of operation {i}")
        status = "ok" if not found else "FAIL"
        print(f"{name}: {status} ({time.perf_counter() - t0:.1f} s)")
        problems += [f"{name}: {msg}" for msg in found]
    for msg in problems:
        print(msg, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
