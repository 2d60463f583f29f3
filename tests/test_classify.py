import pytest

from lmax import (
    APPARENTLY_CONVERGENT,
    APPARENTLY_DIVERGENT,
    ConstantWalk,
    Justification,
    PerturbedWalk,
    RangeError,
    Recurrence,
    build,
    classify,
    is_recurrent,
    return_prob,
    series_diagnostic,
)


def test_constant_trichotomy():
    assert classify(ConstantWalk(0.7)).label is Recurrence.TRANSIENT
    assert classify(ConstantWalk(0.5)).label is Recurrence.NULL_RECURRENT
    assert classify(ConstantWalk(0.3)).label is Recurrence.POSITIVE_RECURRENT


@pytest.mark.parametrize(
    "sign, b, want",
    [
        ("plus", 2.0, Recurrence.TRANSIENT),
        ("plus", 1.0, Recurrence.NULL_RECURRENT),
        ("plus", 0.0, Recurrence.NULL_RECURRENT),
        ("plus", -1.0, Recurrence.NULL_RECURRENT),
        ("plus", -2.0, Recurrence.POSITIVE_RECURRENT),
        ("minus", 2.0, Recurrence.POSITIVE_RECURRENT),
        ("minus", 1.0, Recurrence.NULL_RECURRENT),
        ("minus", -1.0, Recurrence.NULL_RECURRENT),
        ("minus", -2.0, Recurrence.TRANSIENT),
    ],
)
def test_depth_one_plane(sign, b, want):
    got = classify(PerturbedWalk(1, b, sign))
    assert got.label is want
    assert got.justification is Justification.CRITERION


def test_spec_examples():
    assert classify(PerturbedWalk(1, 2.0, "plus")).label is Recurrence.TRANSIENT
    assert classify(PerturbedWalk(2, 3.0, "minus")).label is Recurrence.POSITIVE_RECURRENT
    got = classify(ConstantWalk(0.5))
    assert got.label is Recurrence.NULL_RECURRENT


@pytest.mark.parametrize("k", [2, 3])
def test_deeper_plus(k):
    assert classify(PerturbedWalk(k, 1.5, "plus")).label is Recurrence.TRANSIENT
    for b in (1.0, 0.0, -5.0):
        got = classify(PerturbedWalk(k, b, "plus"))
        assert got.label is Recurrence.NULL_RECURRENT
        assert got.justification is Justification.ADJOINT


@pytest.mark.parametrize("k", [2, 3])
def test_deeper_minus(k):
    assert classify(PerturbedWalk(k, 1.5, "minus")).label is Recurrence.POSITIVE_RECURRENT
    for b in (1.0, 0.0, -5.0):
        got = classify(PerturbedWalk(k, b, "minus"))
        assert got.label is Recurrence.NULL_RECURRENT
        assert got.justification is Justification.CRITERION


# Expected labels over the duality grid.  Each entry maps (k, b) to the
# (plus, minus) pair of labels; swapping the sign must swap
# transient <-> positive recurrent and fix null recurrent.
_T = Recurrence.TRANSIENT
_N = Recurrence.NULL_RECURRENT
_P = Recurrence.POSITIVE_RECURRENT

DUALITY_GRID = {
    (1, -2.0): (_P, _T),
    (1, -1.0): (_N, _N),
    (1, 0.0): (_N, _N),
    (1, 1.0): (_N, _N),
    (1, 2.0): (_T, _P),
    (2, -2.0): (_N, _N),
    (2, 0.0): (_N, _N),
    (2, 1.0): (_N, _N),
    (2, 2.0): (_T, _P),
    (3, -2.0): (_N, _N),
    (3, 0.0): (_N, _N),
    (3, 1.0): (_N, _N),
    (3, 2.0): (_T, _P),
}


@pytest.mark.parametrize("k,b", sorted(DUALITY_GRID), ids=str)
def test_adjoint_duality(k, b):
    want_plus, want_minus = DUALITY_GRID[(k, b)]
    plus = classify(PerturbedWalk(k, b, "plus")).label
    minus = classify(PerturbedWalk(k, b, "minus")).label
    assert plus is want_plus
    assert minus is want_minus
    # Duality biconditionals between a walk and its adjoint.
    assert (plus is _T) == (minus is _P)
    assert (plus is _P) == (minus is _T)
    assert (plus is _N) == (minus is _N)


def test_is_recurrent():
    assert is_recurrent(ConstantWalk(0.5))
    assert is_recurrent(ConstantWalk(0.2))
    assert not is_recurrent(ConstantWalk(0.8))
    assert not is_recurrent(PerturbedWalk(2, 1.25, "plus"))
    assert is_recurrent(PerturbedWalk(2, 1.25, "minus"))


def test_classify_agrees_with_return_prob():
    # Recurrent labels mean the excursion max is finite with probability 1.
    for spec in (ConstantWalk(0.5), ConstantWalk(0.4), PerturbedWalk(1, 1.0, "plus")):
        rp = return_prob(build(spec, 100_000))
        assert rp.value == 1.0
    rp = return_prob(build(ConstantWalk(2 / 3), 100_000))
    assert rp.value < 1.0


def test_diagnostic_positive_recurrent_stalls():
    d = series_diagnostic(build(ConstantWalk(2 / 3), 200))
    assert d.verdict == APPARENTLY_CONVERGENT
    assert d.growth_exponent == pytest.approx(0.0, abs=1e-9)


def test_diagnostic_symmetric_grows_linearly():
    d = series_diagnostic(build(ConstantWalk(0.5), 1_000_000))
    assert d.verdict == APPARENTLY_DIVERGENT
    assert d.growth_exponent == pytest.approx(1.0, abs=1e-2)


def test_diagnostic_slow_divergence_still_visible():
    # b < 1 at depth 1 diverges like n^(1-b); the finite-n exponent is close.
    d = series_diagnostic(build(PerturbedWalk(1, 0.5, "plus"), 1_000_000))
    assert d.verdict == APPARENTLY_DIVERGENT
    assert d.growth_exponent == pytest.approx(0.5, abs=5e-2)


def test_diagnostic_down_perturbation_quadratic():
    d = series_diagnostic(build(PerturbedWalk(1, -1.0, "plus"), 100_000))
    assert d.verdict == APPARENTLY_DIVERGENT
    assert d.growth_exponent == pytest.approx(2.0, abs=5e-2)


def test_diagnostic_checkpoints_recorded():
    series = build(ConstantWalk(0.5), 1000)
    d = series_diagnostic(series)
    assert (d.n_half, d.n_max) == (500, 1000)
    assert (d.log_sum_half, d.log_sum_max) == tuple(series.log_prefix_sum[[500, 1000]])
    assert d.log_sum_half < d.log_sum_max


def test_diagnostic_needs_a_table_past_one():
    # At n_max = 1 the last half (n_max // 2, n_max] holds no term to judge.
    with pytest.raises(RangeError, match="n_max = 1"):
        series_diagnostic(build(ConstantWalk(0.5), 1))
    d = series_diagnostic(build(ConstantWalk(0.5), 2))
    assert (d.n_half, d.n_max, d.verdict) == (1, 2, APPARENTLY_DIVERGENT)


def test_diagnostic_never_overrides_label():
    # The closed-form label stands even when the finite table looks flat.
    spec = PerturbedWalk(3, 1.0, "plus")
    assert classify(spec).label is Recurrence.NULL_RECURRENT
    d = series_diagnostic(build(spec, 10_000))
    assert d.verdict in (APPARENTLY_CONVERGENT, APPARENTLY_DIVERGENT)
