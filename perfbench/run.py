"""The unitlift benchmark.

    python3 perfbench/run.py --workload corpus|queries-tabulated|queries-untabulated
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It measures set-up time in several
fresh processes, before and after it runs the workload in one more fresh
process with single-threaded numpy.  It prints the machine record, the
run's details, and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced pass, plus the tracing overhead.  The exit
code is nonzero, and no result is printed, when the checkout has no unitlift
sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads as wl

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src" / "unitlift"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 9
REFERENCE_RUNS = 5  # reference timings before each set-up sample
DEADLINE_S = 170.0  # the whole run, set-up samples included

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

def machine() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        caches[f"L{level} {kind}"] = read(index / "size")
    import numpy  # only for its version; the measured work runs in workers

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "python": platform.python_version(),
            "numpy": numpy.__version__, "env": PINNED_ENV}


def worker_command(args, *extra) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def spawn(command: list[str], timeout: float) -> tuple[float, str]:
    """Run a worker; (seconds until it printed "ready", its last stdout line)."""
    env = {**os.environ, **PINNED_ENV}
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            if ready.strip() != "ready":
                raise RuntimeError(f"worker did not get ready: {ready!r}")
            out, _ = proc.communicate(timeout=max(1.0, timeout - setup))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (lines[-1] if lines else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="unitlift benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCES / "__init__.py").is_file():
        print(f"error: no unitlift sources at {SOURCES}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    setups, scaled = [], []

    def sample_setup(count):
        for _ in range(0 if args.trace else count):
            factor = reference.scale([reference.timed() for _ in range(REFERENCE_RUNS)])
            seconds, _ = spawn(worker_command(args, "--setup-only"),
                               deadline - time.perf_counter())
            setups.append(seconds)
            scaled.append(seconds * factor)

    # half of the set-up samples before the measurement and half after it,
    # so their median spans the run rather than its first seconds; each is
    # scaled to reference speed by the reference timings just before it
    sample_setup(SETUP_SAMPLES // 2)
    _, line = spawn(worker_command(args), deadline - time.perf_counter())
    sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    out = json.loads(line)
    if setups:
        out["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        out["detail"]["setup_samples_s"] = setups
        out["detail"]["as_timed"]["setup_s"] = statistics.median(setups)
    print(json.dumps({"machine": machine(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({"detail": out.pop("detail")}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
