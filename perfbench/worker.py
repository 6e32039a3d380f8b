"""One workload run in a fresh process, started by run.py.

Prints "ready" once unitlift is imported and the inputs are generated and
parsed, then (unless --setup-only) measures and prints one JSON line with
the operations attempted and failed, whether every output was correct, the
metrics, and details.  Load is one client in a closed loop on one thread.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402


class CapExceeded(BaseException):
    """Raised by the interval timer.  A BaseException, so the CLI's own
    exception handlers cannot turn it into an exit code."""


def _on_alarm(signum, frame):
    raise CapExceeded


def arm_caps():
    """Make the interval timer raise CapExceeded; run_query then sets it."""
    signal.signal(signal.SIGALRM, _on_alarm)


# reference timings on each side of an operation that set its scale
REF_WINDOW = 8
# points per order statistic in the Harrell-Davis weights
HD_POINTS = 64


class Op(NamedTuple):
    """One attempted operation: a CLI query or a corpus criterion."""

    key: str
    seconds: float  # a timed-out operation counts at the cap
    reason: str | None  # None when it passed, else why it failed


class GateSelfCheckFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int) -> dict:
    """Import unitlift, load the expectations, generate and parse the inputs.

    Returns the expectations; each pass regenerates its own query list."""
    import numpy  # noqa: F401
    import unitlift.cli  # noqa: F401
    from unitlift.specs import parse_ring_spec
    from unitlift.verify import corpus_specs

    if workload == wl.CORPUS:
        specs = corpus_specs()
    else:
        specs = [q.spec for q in wl.pass_order(workload, seed, 0)]
    for spec in specs:
        parse_ring_spec(spec)
    return gate.load_expected()


# ---------------------------------------------------------------------------
# operations


def run_query(query: wl.Query, cap: float) -> tuple[int | None, str, float]:
    """(exit code or None on timeout, stdout, seconds) of one cli.main call."""
    import unitlift.cli as cli

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        sys.stdout, sys.stderr = out, err
        code = cli.main(list(query.argv))
    except CapExceeded:
        code = None
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # escaped the CLI's own handlers: a defect
        code = gate.DEFECT
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = saved
    seconds = time.perf_counter() - start
    return code, out.getvalue(), (cap if code is None else seconds)


def query_op(query: wl.Query, expected: dict, cap: float, self_check: bool) -> Op:
    """Run and judge one query; with self_check, also make sure the gate
    would have failed it against an altered expectation."""
    code, stdout, seconds = run_query(query, cap)
    out_digest = gate.envelope_digest(stdout) if code is not None else None
    want = expected["queries"].get(query.key)
    reason = gate.judge_query(code, out_digest, want)
    if self_check and reason is None \
            and not gate.gate_rejects_altered(code, out_digest, want):
        raise GateSelfCheckFailed(query.key)
    return Op(query.key, seconds, reason)


def query_pass(order: list[wl.Query], expected: dict, cap: float,
               self_check: bool) -> tuple[list[Op], list[float]]:
    """Run a pass; the self-check applies to its first passing query.

    Returns the operations and the reference timings, one before each query."""
    ops, refs = [], []
    for query in order:
        refs.append(reference.timed())
        ops.append(query_op(query, expected, cap, self_check))
        self_check = self_check and ops[-1].reason is not None
    return ops, refs


def corpus_pass(corpus_seed: int, expected: dict, cap: float,
                self_check: bool) -> tuple[list[Op], list[float]]:
    """Run one run_corpus call; the operations are its criteria.  The
    reference runs after each criterion, off the criteria's clocks."""
    from unitlift.verify import report_to_dict, run_corpus

    refs = [reference.timed()]
    gc.collect()
    starts, ends = [time.perf_counter()], []

    def progress(result):
        ends.append(time.perf_counter())
        refs.append(reference.timed())
        starts.append(time.perf_counter())

    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        report = run_corpus(seed=corpus_seed, progress=progress)
    except CapExceeded:
        report = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    # the first criterion's time includes building the corpus rings
    seconds = [b - a for a, b in zip(starts, ends)]
    wanted = expected["corpus"][str(corpus_seed)]
    if report is None:
        seconds += [cap] * (len(wanted) - len(seconds))
        return [Op(f"criterion {i}", s, "timeout") for i, s in enumerate(seconds)], refs
    entries = report_to_dict(report)["criteria"]
    if len(entries) != len(wanted):
        raise ValueError(f"{len(entries)} criteria, {len(wanted)} expected")
    if self_check and not gate.gate_rejects_altered_entry(entries[0], wanted[0]):
        raise GateSelfCheckFailed(entries[0]["key"])
    return [Op(e["key"], s, gate.judge_criterion(e, w))
            for e, s, w in zip(entries, seconds, wanted)], refs


def run_pass(workload: str, seed: int, pass_index: int, expected: dict,
             cap: float, self_check: bool) -> tuple[list[Op], list[float]]:
    if workload == wl.CORPUS:
        return corpus_pass(wl.corpus_seed(seed), expected, cap, self_check)
    return query_pass(wl.pass_order(workload, seed, pass_index), expected, cap, self_check)


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], percentile: int) -> float:
    """Harrell-Davis estimate of a percentile: the mean of all order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density.  A pool has
    gaps between query costs; one order statistic jumps across a gap when
    two queries swap places, this estimate moves smoothly.  The 100th
    percentile is the largest value."""
    ordered = numpy.sort(values)
    if percentile >= 100:
        return float(ordered[-1])
    n, q = len(ordered), percentile / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # the Beta mass over each order statistic's cell [i/n, (i+1)/n]
    x = (numpy.arange(n * HD_POINTS) + 0.5) / (n * HD_POINTS)
    log_density = (a - 1) * numpy.log(x) + (b - 1) * numpy.log1p(-x)
    weights = numpy.exp(log_density - log_density.max()).reshape(n, HD_POINTS).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def throughput(queries: list[Op]) -> float:
    """Queries that did not time out per second of query time."""
    return sum(q.reason != "timeout" for q in queries) / sum(q.seconds for q in queries)


def latency_passes(workload: str, passes: list[list[Op]]) -> list[list[Op]]:
    """The latency samples of each pass.  On corpus the query is a whole
    run_corpus call (its 15 criteria are the operations that can fail).  On
    the query workloads the probes run in pass 0 only, and their latencies
    stand for every pass, so each pass samples the whole pool."""
    if workload == wl.CORPUS:
        return [[Op("corpus run", sum(op.seconds for op in ops),
                    "timeout" if any(op.reason == "timeout" for op in ops) else None)]
                for ops in passes]
    probe_keys = {q.key for q in wl.pool(workload) if q.probe}
    probes = [op for op in passes[0] if op.key in probe_keys]
    return [passes[0]] + [ops + probes for ops in passes[1:]]


def end_to_end(workload: str, passes: list[list[Op]]) -> tuple[dict, dict]:
    ops = [op for p in passes for op in p]
    samples = latency_passes(workload, passes)
    pass_seconds = [sum(q.seconds for q in p) for p in samples]
    seconds = [q.seconds for p in samples for q in p]
    tail = wl.tail_percentile(len(samples[0]))
    metrics = {
        "corpus_s": (statistics.median(pass_seconds), "s"),
        "query_p50_ms": (1000 * quantile(seconds, 50), "ms"),
        "query_tail_ms": (1000 * quantile(seconds, tail), "ms"),
        "queries_per_s": (statistics.median(throughput(p) for p in samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (sum(op.reason is not None for op in ops) / len(ops), "ratio"),
    }
    detail = {"passes": len(passes), "latency_samples": len(seconds),
              "tail_percentile": tail, "pass_seconds": pass_seconds}
    return metrics, detail


def properties(workload: str, expected: dict) -> dict:
    """The workload's input properties, for one pass."""
    if workload == wl.CORPUS:
        from unitlift.verify import corpus_specs
        specs = corpus_specs()
        return {"ring_kinds": dict(Counter(wl.ring_kind(s) for s in specs)),
                "repeated_spec_share": 0.0, "untabulated_share": 0.0, "probes": 0}
    from unitlift.config import DEFAULT_GUARDS

    queries = wl.pool(workload)
    specs = [q.spec for q in queries]
    carriers = [expected["queries"][q.key]["carrier"] for q in queries]
    return {
        "ring_kinds": dict(Counter(wl.ring_kind(s) for s in specs)),
        # a pass repeats a spec whenever it runs a second command on it
        "repeated_spec_share": 1 - len(set(specs)) / len(specs),
        "untabulated_share": sum(c > DEFAULT_GUARDS.table_limit for c in carriers)
        / len(queries),
        "probes": sum(q.probe for q in queries),
    }


# ---------------------------------------------------------------------------
# runs


def at_reference_speed(ops: list[Op], refs: list[float]) -> list[Op]:
    """The operations with each time scaled to reference speed by the
    reference timings nearest to it (refs[i] ran just before ops[i]).
    A timeout keeps the cap as its time."""
    scaled = []
    for i, op in enumerate(ops):
        if op.reason != "timeout":
            nearest = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
            op = op._replace(seconds=op.seconds * reference.scale(nearest))
        scaled.append(op)
    return scaled


def measure(workload: str, seed: int, seconds: float, expected: dict) -> dict:
    """Run the workload's passes; the time metrics are at reference speed."""
    cap = wl.CAP_S[workload]
    passes: list[list[Op]] = []
    scaled: list[list[Op]] = []
    for index in range(wl.passes(workload, seconds)):
        ops, refs = run_pass(workload, seed, index, expected, cap, self_check=not passes)
        passes.append(ops)
        scaled.append(at_reference_speed(ops, refs))
    metrics, detail = end_to_end(workload, scaled)
    as_timed, _ = end_to_end(workload, passes)
    detail["as_timed"] = {name: value for name, (value, _) in as_timed.items()}
    return result([op for p in passes for op in p], metrics, detail)


def measure_traced(workload: str, seed: int, expected: dict) -> dict:
    """One pass untraced and once traced; per-layer metrics.

    Each query runs untraced and then traced, back to back, so both see
    the same machine speed.  A corpus pass cannot be split like that, so the
    untraced pass runs first and the traced one after it."""
    from tracing import Tracer, unit_of

    cap = wl.CAP_S[workload]
    traced_cap = cap * wl.TRACED_CAP_FACTOR
    tracer = Tracer()

    def traced_run(run):
        tracer.install()
        try:
            return run()
        finally:
            tracer.uninstall()

    if workload == wl.CORPUS:
        untraced, _ = run_pass(workload, seed, 0, expected, cap, self_check=True)
        traced, _ = traced_run(lambda: run_pass(workload, seed, 0, expected, traced_cap,
                                                self_check=False))
    else:
        untraced, traced = [], []
        self_check = True
        for query in wl.pass_order(workload, seed, 0):
            untraced.append(query_op(query, expected, cap, self_check))
            self_check = self_check and untraced[-1].reason is not None
            state = tracer.checkpoint()
            traced.append(traced_run(lambda: query_op(query, expected, traced_cap, False)))
            if traced[-1].reason == "timeout":
                # keep the counts exact: drop the partial work of a probe
                tracer.rollback(state)
    finished = [(a.seconds, b.seconds) for a, b in zip(untraced, traced)
                if a.reason != "timeout" and b.reason != "timeout"]
    base = sum(a for a, _ in finished)
    overhead = sum(b for _, b in finished) - base
    timeouts = sum(op.reason == "timeout" for op in traced)
    values = tracer.metrics(timeouts, base, overhead)
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    return result(untraced + traced, metrics, {"traced_cap_factor": wl.TRACED_CAP_FACTOR})


def result(ops: list[Op], metrics: dict, detail: dict) -> dict:
    reasons = Counter(op.reason for op in ops if op.reason is not None)
    return {
        "correct": not any(r in gate.WRONG for r in reasons),
        "attempted": len(ops),
        "failed": sum(reasons.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {**detail, "failures": dict(reasons),
                   "failed_keys": sorted({op.key for op in ops
                                          if op.reason not in (None, "timeout")})[:20]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    expected = setup(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    arm_caps()
    if args.trace:
        out = measure_traced(args.workload, args.seed, expected)
    else:
        out = measure(args.workload, args.seed, args.seconds, expected)
    out["detail"]["properties"] = properties(args.workload, expected)
    out["detail"]["corpus_seed"] = wl.corpus_seed(args.seed)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
