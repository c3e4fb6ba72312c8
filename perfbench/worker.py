"""One benchmark process: set a workload up, run its rounds, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The process prints ``ready`` once ergostep is imported and the workload's
inputs are built; ``--setup-only`` exits there, which is what ``run.py``
times as set-up.  Otherwise it runs whole rounds of the workload's calls
until about ``--seconds`` have passed, checks every result, and prints one
JSON line.  With ``--trace 1`` each round is run twice, untraced and then
traced, and the line carries the per-layer metrics of the traced rounds and
the tracing overhead (median traced minus median untraced round time).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def run_round(workload, operations, tracer=None):
    """Run each operation once; returns (seconds in program calls, results,
    failure messages)."""
    if tracer is not None:
        tracer.install()
    try:
        spent, results, failures = 0.0, [], []
        for op in operations:
            t0 = time.perf_counter()
            try:
                returned = op()
            except Exception as err:  # a failed operation is counted, not fatal
                spent += time.perf_counter() - t0
                failures.append(f"{type(err).__name__}: {err}")
                results.append(None)
                continue
            spent += time.perf_counter() - t0
            results.append(workload.collect(returned))
        return spent, results, failures
    finally:
        if tracer is not None:
            tracer.uninstall()


def repeat_errors(workload, rounds) -> list[str]:
    """Rounds run the same inputs, so their results must agree bit for bit."""
    first = rounds[0]
    errors = []
    for i, results in enumerate(rounds[1:], 1):
        for j, (a, b) in enumerate(zip(first, results)):
            if a is not None and b is not None and workload.fingerprint(a) != workload.fingerprint(b):
                errors.append(f"round {i} operation {j} differs from round 0")
    return errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import ergostep  # noqa: F401  (the import is part of set-up)
    from workloads import FULL, OUT_DIR

    workload = FULL[args.workload]
    inputs = workload.inputs(args.seed)
    operations = workload.operations(inputs)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from tracing import LayerTracer

    plain_s, traced_s, layers, tables = [], [], [], []
    rounds, failures = [], []
    start = time.perf_counter()
    while True:
        spent, results, failed = run_round(workload, operations)
        plain_s.append(spent)
        rounds.append(results)
        failures += failed
        if args.trace:
            tracer = LayerTracer()
            spent, results, failed = run_round(workload, operations, tracer)
            traced_s.append(spent - tracer.excluded_s)
            rounds.append(results)
            failures += failed
            layers.append(tracer.layer_metrics())
            tables.append(tracer.group_table())
        # stop once less than half a round is left, so a run measures about
        # --seconds of whole rounds
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(plain_s) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check(inputs, [r for results in rounds for r in results])
    errors += repeat_errors(workload, rounds)
    counts = [k for k in layers[0] if "_calls" in k or "_states" in k] if layers else []
    for k in counts:
        if any(layer[k] != layers[0][k] for layer in layers):
            errors.append(f"count {k} differs between traced rounds")
    out = {
        "attempted": sum(len(results) for results in rounds),
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "round_s": plain_s,
        "run_s": statistics.median(plain_s),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        out["layers"] = {k: layers[0][k] if k in counts else statistics.median(layer[k] for layer in layers)
                         for k in layers[0]}
        out["layers"]["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        out["traced_round_s"] = traced_s
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"rounds": tables, "traced_round_s": traced_s,
                                          "untraced_round_s": plain_s}, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
