import numpy as np
import pytest

from microreserve.chainladder import (
    DelayScaling,
    cl_ultimates,
    delay_profile,
    fit_delay_scaling,
    ibnr_strip,
    rbns_ocl,
)
from microreserve.claims import build_triangle
from microreserve.errors import DataError

from conftest import build_claim, build_dataset


def three_by_three():
    """Six claims over accident periods 1-3, valued at the end of period 3.

    Paid triangle       Count triangle
      AP1: 10 30 50       AP1: 1 2 3
      AP2: 20 40          AP2: 1 2
      AP3: 30             AP3: 1

    Claim "a" settles in period 3 with ultimate 40; the rest are open, with
    paid at the valuation 10 + 0 (AP 1), 40 + 0 (AP 2) and 30 (AP 3).
    """
    claims = [
        build_claim("a", 1, [(0.5, "P", 10.0, 30.0), (1.5, "P", 30.0, 10.0), (2.5, "PMa", 40.0, 0.0)]),
        build_claim("b", 1, [(1.5, "Ma", 0.0, 20.0), (2.5, "P", 10.0, 10.0)]),
        build_claim("f", 1, [(2.5, "Ma", 0.0, 5.0)]),
        build_claim("c", 2, [(1.5, "P", 20.0, 20.0), (2.5, "P", 40.0, 10.0)]),
        build_claim("d", 2, [(2.5, "Ma", 0.0, 30.0)]),
        build_claim("e", 3, [(2.5, "P", 30.0, 30.0)]),
    ]
    return build_dataset(claims, max_t=3)


# Paid factors 70/30 and 50/30, count factors 2 and 3/2.
ULT_PAID = [50.0, 40.0 * 5.0 / 3.0, 30.0 * 7.0 / 3.0 * 5.0 / 3.0]
ULT_COUNT = [3.0, 3.0, 3.0]
# s(0) = 1, s(1) = 0.5 and s(d) = 0.5 for every later delay.
HALF = DelayScaling(values=np.array([1.0, 0.5]))
# AP 2 gains one claim at delay 2, AP 3 one at delay 1 and one at delay 2.
IBNR = [0.0, ULT_PAID[1] / 3.0 * 0.5, 2.0 * ULT_PAID[2] / 3.0 * 0.5]


class TestProjection:
    def test_triangles_match_the_hand_count(self):
        paid, count = build_triangle(three_by_three(), valuation=3)
        nan = np.nan
        np.testing.assert_array_equal(
            paid.values, [[10.0, 30.0, 50.0], [20.0, 40.0, nan], [30.0, nan, nan]]
        )
        np.testing.assert_array_equal(
            count.values, [[1.0, 2.0, 3.0], [1.0, 2.0, nan], [1.0, nan, nan]]
        )

    def test_ultimates(self):
        paid, count = build_triangle(three_by_three(), valuation=3)
        ult_paid, ult_count, mu = cl_ultimates(paid, count)
        np.testing.assert_allclose(ult_paid, ULT_PAID, rtol=1e-12)
        np.testing.assert_allclose(ult_count, ULT_COUNT, rtol=1e-12)
        np.testing.assert_allclose(mu, np.array(ULT_PAID) / 3.0, rtol=1e-12)

    def test_ibnr_strip(self):
        paid, count = build_triangle(three_by_three(), valuation=3)
        _, ult_count, mu = cl_ultimates(paid, count)
        np.testing.assert_allclose(ibnr_strip(count, ult_count, mu, HALF), IBNR, rtol=1e-12)

    def test_rbns_ocl(self):
        result = rbns_ocl(three_by_three(), scaling=HALF)
        settled = [40.0, 0.0, 0.0]
        open_paid = [10.0, 40.0, 30.0]
        expected = [u - i - s - p for u, i, s, p in zip(ULT_PAID, IBNR, settled, open_paid)]
        np.testing.assert_allclose(result.rbns_ocl, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(result.observed_count, [3.0, 2.0, 1.0])
        assert list(result.stable) == [True, True, False]
        assert result.n_clamped == 0

    def test_negative_periods_are_clamped_and_counted(self):
        # Ten times the severity past delay 0 strips more than AP 2 and 3 hold.
        result = rbns_ocl(three_by_three(), scaling=DelayScaling(values=np.array([1.0, 10.0])))
        assert result.n_clamped == 2
        assert list(result.rbns_ocl[1:]) == [0.0, 0.0]


class TestDelayScaling:
    def test_normalised_at_delay_zero_and_flat_past_last_bucket(self):
        scaling = fit_delay_scaling([10.0, 12.0, 20.0, 22.0, 30.0], [0, 0, 1, 1, 2])
        assert scaling(0) == 1.0
        assert scaling(7) == scaling(2) == float(scaling.values[-1])

    def test_negative_delay_rejected(self):
        with pytest.raises(DataError):
            HALF(-1)

    def test_delay_profile_reads_incurred_at_the_valuation(self):
        # build_claim records incurred = paid + case on every row.
        amounts, delays = delay_profile(three_by_three(), 3)
        assert list(amounts) == [40.0, 20.0, 5.0, 50.0, 30.0, 60.0]
        assert list(delays) == [0, 1, 2, 0, 1, 0]
