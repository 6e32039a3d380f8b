"""End-to-end command line tests.

Each invocation goes through a real subprocess so argument parsing, exit
codes, and the JSON envelope are all exercised exactly as a user sees them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitlift

CLI = [sys.executable, "-m", "unitlift.cli"]
# the subprocess imports the same unitlift as the tests, installed or not
_SRC = str(Path(unitlift.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=ENV)


def run_json(*args, expect_code=0):
    proc = run_cli(*args)
    assert proc.returncode == expect_code, proc.stderr
    envelope = json.loads(proc.stdout)
    assert set(envelope) == {"command", "spec", "result", "version",
                             "elapsedMs"}
    # stdout is the sorted, indented dump of the envelope
    assert proc.stdout == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    return envelope


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_ring_info_z12():
    envelope = run_json("ring", "info", "Z/12")
    assert envelope["command"] == "ring info"
    assert envelope["spec"] == "Z/12"
    result = envelope["result"]
    assert result["units"] == [1, 5, 7, 11]
    assert result["rad"] == [0, 6]
    assert result["idempotents"] == [0, 1, 4, 9]
    assert result["maximalIdeals"] == 2
    assert result["kind"] == "modular"
    assert result["isSemifield"] is True
    assert result["connectedModRadical"] is False


def test_ring_info_quotient_spec():
    envelope = run_json("ring", "info", "quot(Z/12;4)")
    assert envelope["result"]["carrier"] == 4
    assert envelope["result"]["unitCount"] == 2


def test_ring_ideals_z12():
    result = run_json("ring", "ideals", "Z/12")["result"]
    assert result["count"] == 6
    maximal = [i for i in result["ideals"] if i["isMaximal"]]
    assert len(maximal) == 2
    assert all(i["isProper"] or not i["isMaximal"] for i in result["ideals"])


def test_ring_ideals_of_a_product_of_ten_fields():
    # the lattice of a product is the product of the factors' lattices
    result = run_json("ring", "ideals",
                      "prod(Z/2,Z/2,Z/2,Z/2,Z/2,Z/2,Z/2,Z/2,Z/2,Z/2)")["result"]
    assert result["count"] == len(result["ideals"]) == 2 ** 10


def test_rho_table_z12():
    result = run_json("rho", "table", "Z/12")["result"]
    assert result["counts"] == {"0": 2, "1": 10, "inf": 0}
    zeros = [row["element"] for row in result["table"] if row["rho"] == 0]
    assert zeros == [0, 6]


def test_decompose_z10():
    result = run_json("decompose", "Z/10", "2")["result"]
    assert (result["u"], result["e"], result["t"]) == (7, 6, 0)
    assert result["rho"] == 1
    assert result["semiInverseCount"] == 2
    assert result["minimalSemiInverse"] == 3


def test_decompose_radical_element():
    result = run_json("decompose", "Z/12", "6")["result"]
    assert result["rho"] == 0
    assert result["u"] is None


def test_star_check_z12():
    result = run_json("star", "check", "Z/12", "--ideal", "4")["result"]
    assert result["ring"] == "Z/12"
    assert result["holds"] is True
    assert result["methods"] == {"direct": True, "saturatedSum": True,
                                 "satEquality": True, "witness": True}
    assert result["witnesses"] == []
    assert {"unit": 3, "lift": 7} in result["lifts"]


def test_star_presented_true_and_false():
    result = run_json("star", "presented", "Z", "2")["result"]
    assert result["hasStar"] is True
    assert result["witness"] is None

    result = run_json("star", "presented", "Z", "5")["result"]
    assert result["hasStar"] is False
    assert result["witness"] == 2
    assert result["quotient"] == "Z/5"


def test_star_presented_fail_on_false_exit_code():
    proc = run_cli("star", "presented", "Z", "5", "--fail-on-false")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["result"]["hasStar"] is False


def test_star_presented_polynomial():
    result = run_json("star", "presented", "GF(2)[x]", "x^2")["result"]
    assert result["hasStar"] is False
    assert result["witness"] == "x+1"
    result = run_json("star", "presented", "GF(2)[x]", "x")["result"]
    assert result["hasStar"] is True


def test_star_ring_z12():
    result = run_json("star", "ring", "Z/12")["result"]
    assert result["holds"] is True
    assert result["properIdeals"] == 5


def test_star_ring_above_the_table_guard():
    # a finite ring is semilocal, so by the paper's theorem every proper
    # ideal lifts units; the 2048 elements are past the table guard
    result = run_json("star", "ring", "GF(2)[x]/(x^11)")["result"]
    assert result["holds"] is True
    assert result["properIdeals"] == 11
    assert [i["size"] for i in result["ideals"]] == [2**k for k in range(11)]
    assert all(i["holds"] is True for i in result["ideals"])


def test_gl_lift():
    result = run_json("gl", "lift", "Z/4", "2", "--matrix", "1,1;0,1")["result"]
    assert result["lift"] == "1,1;0,1"
    assert result["liftDeterminant"] == 1
    assert result["verified"] is True


def test_usage_errors_exit_64():
    assert run_cli("ring", "info", "Z/1").returncode == 64
    assert run_cli("ring", "info").returncode == 64
    assert run_cli("bogus").returncode == 64
    assert run_cli("star", "presented", "Q", "5").returncode == 64


@pytest.mark.parametrize("args, message", [
    (("ring", "info", "Z/\u00b2"), "expected an integer (at position 2)"),
    (("ring", "info", "GF(2)[x]/(x^\u00b2+1)"), "expected an integer (at position 12)"),
    (("decompose", "Z/12", "1\u00b2"), "unexpected trailing input (at position 1)"),
])
def test_digits_that_int_refuses_exit_64_with_a_position(args, message):
    # a superscript two once reached int(), whose error named no position
    proc = run_cli(*args)
    assert proc.returncode == 64
    assert message in proc.stderr


def test_element_error_positions_count_from_the_start_of_the_argument():
    # the position was once counted within the failing generator: 3, not 9
    proc = run_cli("star", "check", "prod(Z/4,Z/9)", "--ideal", "(2,0),(0,x)")
    assert proc.returncode == 64
    assert "expected an integer (at position 9)" in proc.stderr


def test_matrix_error_positions_count_from_the_start_of_the_argument():
    # the position was once counted within the failing row: 2, not 6
    proc = run_cli("gl", "lift", "Z/4", "2", "--matrix", "1,1;0,q")
    assert proc.returncode == 64
    assert "expected an integer (at position 6)" in proc.stderr
    proc = run_cli("gl", "lift", "prod(Z/4,Z/9)", "(2,0)",
                   "--matrix", "(1,1),(1,0);(0,0),(1,y)")
    assert proc.returncode == 64
    assert "expected an integer (at position 21)" in proc.stderr


def test_corpus_run_rejects_negative_gl_samples():
    proc = run_cli("corpus", "run", "--gl-samples", "-1")
    assert proc.returncode == 64
    assert "--gl-samples" in proc.stderr
    assert proc.stdout == ""


def test_corpus_run_rejects_max_carrier_below_two():
    proc = run_cli("corpus", "run", "--max-carrier", "1")
    assert proc.returncode == 64
    assert "--max-carrier" in proc.stderr
    assert proc.stdout == ""


def test_guard_errors_exit_65():
    proc = run_cli("ring", "ideals", "Z/8192")
    assert proc.returncode == 65
    assert "guard" in proc.stderr.lower() or "exceeds" in proc.stderr.lower()


def test_improper_ideal_is_a_usage_error():
    assert run_cli("star", "check", "Z/12", "--ideal", "1").returncode == 64


@pytest.mark.slow
def test_corpus_determinism_and_expected_failure():
    args = ["corpus", "run", "--max-carrier", "16", "--gl-samples", "50"]
    first = run_cli(*args)
    second = run_cli(*args)
    # false criteria alone do not change the exit status
    assert first.returncode == 0
    assert second.returncode == 0

    def stable(proc):
        envelope = json.loads(proc.stdout)
        del envelope["elapsedMs"]
        return envelope

    assert stable(first) == stable(second)

    report = stable(first)["result"]
    assert report["passed"] is False
    failing = [c["key"] for c in report["criteria"] if not c["passed"]]
    assert failing == ["saturation-closure-laws"]
    assert all(c["defects"] == 0 for c in report["criteria"])

    flagged = run_cli(*args, "--fail-on-false")
    assert flagged.returncode == 2
