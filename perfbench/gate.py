"""Output gate: outputs are compared with expectations recorded by record.py.

A query is expected to give an exit code and the SHA-256 of its stable
envelope keys (command, spec, result, version; elapsedMs is dropped).  A
corpus criterion is expected to give the SHA-256 of its report_to_dict entry.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

DEFECT = 70  # the CLI's exit code for an internal defect

# failure reasons that mean a wrong output, not only a failed operation
WRONG = ("exit code differs", "digest differs", "internal defect")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def envelope_digest(stdout: str) -> str | None:
    """Digest of the stable envelope keys, or None when nothing was printed.

    Output that is not one JSON object gets a digest no expectation has."""
    if not stdout.strip():
        return None
    try:
        envelope = json.loads(stdout)
        envelope.pop("elapsedMs", None)
    except (ValueError, AttributeError):
        return "unparsable output"
    return digest(envelope)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def judge_query(code: int | None, out_digest: str | None, expected: dict | None) -> str | None:
    """None when the query passed, else why it failed.  code None is a timeout."""
    if code is None:
        return "timeout"
    if code == DEFECT:
        return "internal defect"
    if expected is None or expected.get("code") is None:
        return "no expectation recorded"
    if code != expected["code"]:
        return "exit code differs"
    if out_digest != expected["digest"]:
        return "digest differs"
    return None


def judge_criterion(entry: dict, expected_digest: str) -> str | None:
    """None when the criterion passed and matched, else why it failed.

    A criterion whose verdict is FAIL is a failed operation even when that
    verdict is the recorded one (saturation-closure-laws is a pinned failure).
    """
    if entry["defects"]:
        return "internal defect"
    if digest(entry) != expected_digest:
        return "digest differs"
    if not entry["passed"]:
        return "criterion fails"
    return None


def gate_rejects_altered(code: int | None, out_digest: str | None, expected: dict) -> bool:
    """Self-check: the gate must fail this output against an expectation
    whose exit code, or whose digest, was altered."""
    wrong_code = {**expected, "code": expected["code"] + 1}
    wrong_digest = {**expected, "digest": digest(["altered", expected["digest"]])}
    return all(judge_query(code, out_digest, bad) in WRONG
               for bad in (wrong_code, wrong_digest))


def gate_rejects_altered_entry(entry: dict, expected_digest: str) -> bool:
    return judge_criterion(entry, digest(["altered", expected_digest])) in WRONG
