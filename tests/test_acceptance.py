"""Acceptance suite: every verification criterion over the full corpus.

One test per criterion, in contract order, each printing its
[PASS]/[FAIL] line to the live terminal.  Criterion 14 is a strict
expected failure: the two-sided saturation operator on matrix spaces is
genuinely not idempotent (see test_matrices for the minimal
counterexample, and the two_sided_saturate docstring), so the criterion's
idempotence clause cannot hold.  A separate test pins the failure to
exactly that clause so any other regression still surfaces.
"""

import os
import random
import time

import numpy as np
import pytest

from unitlift import verify
from unitlift.errors import InternalDefectError
from unitlift.verify import (
    RunContext,
    corpus_rings,
    corpus_specs,
    criterion_decomposition,
    criterion_dedekind,
    criterion_determinism,
    criterion_field_product_adjustment,
    criterion_integer_unit_images,
    criterion_matrix_lifts,
    criterion_polynomial_unit_images,
    criterion_product_radical,
    criterion_radical_reduction,
    criterion_rho_laws,
    criterion_rings_lift_units,
    criterion_saturation_laws,
    criterion_semi_inverse_coset,
    criterion_star_agreement,
    criterion_unit_lifting,
    report_to_dict,
    run_corpus,
)


@pytest.fixture(scope="module")
def corpus():
    return corpus_rings()


@pytest.fixture(scope="module")
def ctx():
    return RunContext()


def _run(criterion, corpus, ctx, capfd):
    result = criterion(corpus, ctx)
    with capfd.disabled():
        print(result.line(), flush=True)
    assert result.defects == 0, result.failures
    return result


def test_00_corpus_composition():
    specs = corpus_specs()
    assert len(specs) == 112
    assert "Z/2" in specs and "Z/40" in specs
    assert sum(1 for s in specs if s.startswith("Z/")) == 39
    assert sum(1 for s in specs if s.startswith("GF(")) == 53
    assert sum(1 for s in specs if s.startswith("prod(")) == 20


def test_01_star_methods_agree(corpus, ctx, capfd):
    start = time.perf_counter()
    result = _run(criterion_star_agreement, corpus, ctx, capfd)
    assert result.passed, result.failures
    assert time.perf_counter() - start < 120


def test_02_every_finite_ring_lifts_units(corpus, ctx, capfd):
    result = _run(criterion_rings_lift_units, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_03_integer_unit_images(corpus, ctx, capfd):
    result = _run(criterion_integer_unit_images, corpus, ctx, capfd)
    assert result.passed, result.failures
    assert result.info.get("trueModuli") == [2, 3, 4, 6]


def test_04_polynomial_unit_images(corpus, ctx, capfd):
    # the criterion itself checks that the missed unit renders as x+1
    result = _run(criterion_polynomial_unit_images, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_05_product_radical_splits(corpus, ctx, capfd):
    result = _run(criterion_product_radical, corpus, ctx, capfd)
    assert result.passed, result.failures
    assert result.checks == 20


def test_06_radical_reduction_stable(corpus, ctx, capfd):
    result = _run(criterion_radical_reduction, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_07_rho_laws(corpus, ctx, capfd):
    result = _run(criterion_rho_laws, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_08_semi_inverse_coset(corpus, ctx, capfd):
    result = _run(criterion_semi_inverse_coset, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_09_decomposition_certificates(corpus, ctx, capfd):
    result = _run(criterion_decomposition, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_10_quotient_unit_lifting(corpus, ctx, capfd):
    result = _run(criterion_unit_lifting, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_11_field_product_adjustment(corpus, ctx, capfd):
    result = _run(criterion_field_product_adjustment, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_12_matrix_entrywise_lifts(corpus, ctx, capfd):
    result = _run(criterion_matrix_lifts, corpus, ctx, capfd)
    assert result.passed, result.failures


def test_13_dedekind_finiteness(corpus, ctx, capfd):
    result = _run(criterion_dedekind, corpus, ctx, capfd)
    assert result.passed, result.failures


@pytest.fixture(scope="module")
def saturation_result(corpus, ctx):
    return criterion_saturation_laws(corpus, ctx)


@pytest.mark.xfail(
    strict=True,
    reason="two-sided saturation is not idempotent, so the idempotence "
           "clause of this criterion is mathematically unattainable; "
           "minimal counterexample in test_matrices.py"
)
def test_14_saturation_closure_laws(saturation_result, capfd):
    result = saturation_result
    with capfd.disabled():
        print(result.line(), flush=True)
    assert result.defects == 0, result.failures
    assert result.passed, result.failures


def test_14_failure_is_exactly_the_idempotence_clause(saturation_result):
    result = saturation_result
    assert not result.passed
    assert result.defects == 0
    real = [f for f in result.failures if not f.startswith("... and")]
    assert real, "expected at least one recorded failure"
    for failure in real:
        assert failure.startswith("two-sided saturation is not idempotent"), failure
    # the commutative operator and the other two-sided laws stay clean
    assert not any("extensive" in f or "monotone" in f or "unit" in f
                   for f in result.failures)


def test_15_deterministic_reports(corpus, ctx, capfd):
    result = _run(criterion_determinism, corpus, ctx, capfd)
    assert result.passed, result.failures


# The two replicas of criterion 15 run at once, one in a forked child.  Each
# case below also asserts that the call leaves this process no child.


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_15_replicas_that_differ_fail_the_criterion(corpus, ctx, monkeypatch):
    # the two replicas run in two processes, so a report that names its
    # process differs between them
    monkeypatch.setattr(verify, "report_to_dict",
                        lambda report: {**report_to_dict(report), "pid": os.getpid()})
    result = criterion_determinism(corpus, ctx)
    _assert_no_child_left()
    assert not result.passed
    assert result.failures == ["stable report sections differ"]
    assert result.checks == 2
    assert result.defects == 0


@pytest.mark.parametrize("draw", [random.random, lambda: float(np.random.random())],
                         ids=["random", "numpy"])
def test_15_unseeded_global_randomness_fails_the_criterion(corpus, ctx, monkeypatch,
                                                           draw):
    # the forked child starts from a copy of this process's generators; a
    # report that reads one must still differ, as between two invocations
    draw()
    monkeypatch.setattr(verify, "report_to_dict",
                        lambda report: {**report_to_dict(report), "draw": draw()})
    result = criterion_determinism(corpus, ctx)
    _assert_no_child_left()
    assert not result.passed
    assert result.failures == ["stable report sections differ"]


def _replica(in_child):
    """A stand-in for the reduced run_corpus call of the two replicas: a tiny
    corpus in this process, in_child() in the forked child."""
    parent = os.getpid()

    def run(**kwargs):
        if os.getpid() != parent:
            in_child()
        return run_corpus(max_carrier=3, seed=0, gl_samples=2, with_determinism=False)
    return run


def test_15_an_exception_of_the_child_replica_is_raised_in_the_caller(corpus, ctx,
                                                                       monkeypatch):
    def fail():
        raise InternalDefectError("raised in the child replica only")

    monkeypatch.setattr(verify, "run_corpus", _replica(fail))
    with pytest.raises(InternalDefectError) as raised:
        criterion_determinism(corpus, ctx)
    assert type(raised.value) is InternalDefectError
    assert str(raised.value) == "raised in the child replica only"
    _assert_no_child_left()


def test_15_a_child_replica_that_ends_without_a_result_is_a_runtime_error(corpus, ctx,
                                                                            monkeypatch):
    monkeypatch.setattr(verify, "run_corpus", _replica(lambda: os._exit(3)))
    with pytest.raises(RuntimeError, match="without a result, wait status") as raised:
        criterion_determinism(corpus, ctx)
    assert not isinstance(raised.value, InternalDefectError)
    _assert_no_child_left()


class _Interrupted(BaseException):
    pass


def test_15_a_base_exception_of_the_caller_replica_kills_the_child(corpus, ctx,
                                                                   monkeypatch):
    parent = os.getpid()

    def run(**kwargs):
        if os.getpid() == parent:
            raise _Interrupted
        time.sleep(60)  # killed long before it wakes

    monkeypatch.setattr(verify, "run_corpus", run)
    start = time.perf_counter()
    with pytest.raises(_Interrupted):
        criterion_determinism(corpus, ctx)
    _assert_no_child_left()
    assert time.perf_counter() - start < 30
