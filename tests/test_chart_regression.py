"""Pinned verdicts of the figure-1 chart and parabolic suites.

The statuses and residuals below were recorded before the chart-layer
kernel was reworked to do fewer mpmath operations per call.  Every status
must match; a residual of at least NOISE_FLOOR must match to 12
significant digits.  Residuals below NOISE_FLOOR are rounding noise at the
working precision (about 122 digits for k = 4), so they are only checked
against their bound.
"""

import math

import pytest

import surfauto as sa
from surfauto.verify import chart_suite, parabolic_suite

NOISE_FLOOR = 1e-100

# id -> (status, residual, bound)
CHARTS_N_XI_2 = {
    "orbit-closure": ("pass", 4.267139802262548e-124, 1e-09),
    "orbit-pairing": ("pass", 0.0, None),
    "series-low-orders": ("pass", 0.0, None),
    "series-odd-vanish": ("pass", 0.0, None),
    "series-defining-identity": ("pass", 3.4263464960506838, None),
    "fiber-transitions": ("pass", 1.8750912729250636e-12, 1e-06),
    "contracted-line-entry": ("pass", 0.0, 1e-06),
    "center-propagation": ("pass", 0.0, 1e-12),
    "center-cycle-closure": ("pass", 0.0, 1e-08),
    "cycle-identity": ("pass", 2.2887833992611187e-16, 1e-08),
}

PARABOLIC_POINTS_2 = {
    "invariant-line-fixed": ("pass", 3.02546243347603e-123, 1e-08),
    "invariant-line-tangent": ("pass", 9.07638730042809e-123, 1e-06),
    "invariant-line-half-diagonal": ("pass", 0.0, None),
    "fibers-fixed": ("pass", 5.5076510483810955e-11, 1e-08),
    "fibers-tangent": ("pass", 3.4160727861004894e-09, 1e-06),
    "top-fiber-outside-configuration": ("report", 1.9954015229556314, None),
    "level-2-transverse-multiplier": ("report", 1.9245599999694214, None),
}


@pytest.mark.parametrize("suite, pinned", [
    (lambda p: chart_suite(p, n_xi=2), CHARTS_N_XI_2),
    (lambda p: parabolic_suite(p, points_per_fiber=2), PARABOLIC_POINTS_2),
], ids=["chart_suite", "parabolic_suite"])
def test_figure1_verdicts_pinned(suite, pinned):
    rep = suite(sa.figure1_params())
    assert [c.id for c in rep.checks] == list(pinned)
    for check in rep.checks:
        status, residual, bound = pinned[check.id]
        assert check.status == status, check.id
        assert check.bound == bound, check.id
        got = float(check.residual)
        if residual >= NOISE_FLOOR:
            assert math.isclose(got, residual, rel_tol=1e-12), (check.id, got, residual)
        elif bound is not None:
            assert got < bound, (check.id, got, bound)


# The (3,4) desk instance: the only desk case with a middle limb (so the
# reversor check runs) and a complex w.  Recorded with the same kernel as
# the figure-1 pins above, under the same rule.
DESK34_CHARTS_N_XI_2 = {
    "orbit-closure": ("pass", 2.2690968251070224e-123, 1e-09),
    "orbit-pairing": ("pass", 0.0, None),
    "series-low-orders": ("pass", 0.0, None),
    "series-odd-vanish": ("pass", 0.0, None),
    "series-defining-identity": ("pass", 1.0957394961131586, None),
    "fiber-transitions": ("pass", 7.11267480557696e-14, 1e-06),
    "contracted-line-entry": ("pass", 7.771561172376096e-16, 1e-06),
    "center-propagation": ("pass", 0.0, 1e-12),
    "center-cycle-closure": ("pass", 0.0, 1e-08),
    "cycle-identity": ("pass", 2.2887833992611187e-16, 1e-08),
    "reversor-fiber-action": ("pass", 1.8695394253863585e-15, 1e-06),
}

DESK34_PARABOLIC_POINTS_2 = {
    "invariant-line-fixed": ("pass", 2.647279629291526e-123, 1e-08),
    "invariant-line-tangent": ("pass", 1.512731216738015e-122, 1e-06),
    "invariant-line-half-diagonal": ("pass", 0.0, None),
    "fibers-fixed": ("pass", 3.762054035773719e-11, 1e-08),
    "fibers-tangent": ("pass", 5.096138525343169e-09, 1e-06),
    "top-fiber-outside-configuration": ("report", 19.83364593922804, None),
    "level-2-transverse-multiplier": ("report", 0.5832000000198606, None),
}


@pytest.mark.parametrize("suite, pinned", [
    (lambda p: chart_suite(p, n_xi=2), DESK34_CHARTS_N_XI_2),
    (lambda p: parabolic_suite(p, points_per_fiber=2), DESK34_PARABOLIC_POINTS_2),
], ids=["chart_suite", "parabolic_suite"])
def test_desk34_verdicts_pinned(suite, pinned):
    rep = suite(sa.MapParams(n=3, k=4, c_spec=(1, 1), a={2: 0.4}))
    assert [c.id for c in rep.checks] == list(pinned)
    for check in rep.checks:
        status, residual, bound = pinned[check.id]
        assert check.status == status, check.id
        assert check.bound == bound, check.id
        got = float(check.residual)
        if residual >= NOISE_FLOOR:
            assert math.isclose(got, residual, rel_tol=1e-12), (check.id, got, residual)
        elif bound is not None:
            assert got < bound, (check.id, got, bound)
