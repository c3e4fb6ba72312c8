"""Benchmark of ergostep: one workload per call, in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The same object, with the details behind it,
is written to ``.bench_out/result-<workload>-seed<n>-trace<t>.json``.

End-to-end metrics:
    setup_s      median over fresh interpreters of the time from process
                 start through ``import ergostep`` to the inputs being built
    run_s        median over rounds of the wall time of the round's calls
                 into the program, tracing off
    peak_rss_mb  peak resident memory of the process that ran the rounds,
                 read before the checks run
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("clt_euler_cli", "rate_talay2", "w1_trace", "regime_grid")
SETUP_STARTS = 7
TIME_LIMIT_S = 170.0
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def time_setup(args, deadline: float) -> float:
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {err.strip()}")
    return elapsed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [f for f in ("src/ergostep/__init__.py", "configs/euler_clt.cfg", "BENCHMARK.json")
               if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not in a checkout of ergostep, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        setups = [time_setup(args, deadline) for _ in range(SETUP_STARTS)]
        proc = subprocess.run(worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    for msg in worker["errors"] + worker["failures"]:
        print(f"{args.workload}: {msg}", file=sys.stderr)

    if args.trace:
        units = per_layer_units()
        values = worker["layers"]
    else:
        units = UNITS
        values = {"setup_s": statistics.median(setups), "run_s": worker["run_s"],
                  "peak_rss_mb": worker["peak_rss_mb"]}
    result = {
        "correct": not worker["errors"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    details = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "setup_starts_s": setups, "worker": worker}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
