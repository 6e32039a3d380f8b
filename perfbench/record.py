"""Record the expectations the output gate checks (perfbench/expected.json).

    python3 perfbench/record.py

For every query of both pools: its exit code, the digest of its stable
envelope, its ring's carrier size and how long it took.  Queries run without
the workload cap, up to PROBE_LIMIT_S seconds; a probe that needs longer is
recorded with code and digest null.  For every corpus seed 0..15: the digest
of each criterion's report_to_dict entry.  Run it only on a commit whose
outputs are known good; every later run is compared with what it writes.
It also prints whether each pool still splits cleanly around its cap.
"""

from __future__ import annotations

import json
import sys

import gate
import worker
import workloads as wl

PROBE_LIMIT_S = 900.0


def carrier(spec: str) -> int:
    from unitlift.config import Guards
    from unitlift.rings import build_ring

    # scalar path: quot specs would otherwise build their parent's tables
    return build_ring(spec, Guards(table_limit=1)).carrier_size


def record_queries() -> dict:
    out = {}
    for workload in (wl.TABULATED, wl.UNTABULATED):
        cap = wl.CAP_S[workload]
        for query in wl.pool(workload):
            code, stdout, seconds = worker.run_query(query, PROBE_LIMIT_S)
            entry = {"code": code,
                     "digest": gate.envelope_digest(stdout) if code is not None else None,
                     "carrier": carrier(query.spec),
                     "seconds": round(seconds, 3)}
            clean = seconds > 2 * cap if query.probe else seconds < cap / 2
            print(f"{seconds:9.3f}s exit {code} {'probe ' if query.probe else ''}"
                  f"{'ok' if clean else 'INSIDE THE CAP MARGIN'}  {query.key}", flush=True)
            out[query.key] = entry
    return out


def record_corpus() -> dict:
    from unitlift.verify import report_to_dict, run_corpus

    out = {}
    for seed in range(wl.CORPUS_SEEDS):
        entries = report_to_dict(run_corpus(seed=seed))["criteria"]
        out[str(seed)] = [gate.digest(e) for e in entries]
        print(f"corpus seed {seed}: {[e['key'] for e in entries if not e['passed']]} fail",
              flush=True)
    return out


def main() -> int:
    worker.arm_caps()
    expected = {"queries": record_queries(), "corpus": record_corpus()}
    gate.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
