import numpy as np
import pytest

from robustprice.dispersion import custom_measure, power_moment, variance_measure
from robustprice.errors import RobustPriceError


class TestValue:
    def test_square(self):
        assert power_moment(2.0).value(0.6) == pytest.approx(0.36, abs=1e-15)

    def test_zero(self):
        assert power_moment(1.5).value(0.0) == 0.0

    def test_fractional(self):
        # 0.81**1.5 = 0.9**3
        assert power_moment(1.5).value(0.81) == pytest.approx(0.729, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(RobustPriceError):
            power_moment(2.0).value(-0.1)

    def test_bad_exponent_rejected(self):
        for q in (1.0, 0.5, -1.0, np.inf, np.nan):
            with pytest.raises(RobustPriceError):
                power_moment(q)

    def test_array_input(self):
        x = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(power_moment(2.0).value(x), x ** 2)


class TestDerivative:
    def test_square(self):
        assert power_moment(2.0).derivative(0.5) == pytest.approx(1.0)

    def test_fractional_at_one(self):
        assert power_moment(1.5).derivative(1.0) == pytest.approx(1.5)

    def test_fractional(self):
        assert power_moment(1.5).derivative(0.25) == pytest.approx(0.75)

    def test_zero_limit_for_small_q(self):
        # Right-limit convention keeps certificates evaluable at x = 0.
        assert power_moment(1.5).derivative(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(RobustPriceError):
            power_moment(1.5).derivative(-1.0)

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(0)
        for q in (1.2, 1.5, 2.0, 3.0):
            m = power_moment(q)
            for x in rng.uniform(1e-3, 5.0, size=250):
                h = 1e-6 * max(1.0, x)
                fd = (m.value(x + h) - m.value(x - h)) / (2 * h)
                assert m.derivative(x) == pytest.approx(fd, rel=1e-6)


class TestFamilies:
    def test_variance_alias_identical(self):
        x = np.linspace(0.0, 2.0, 101)
        v, p2 = variance_measure(), power_moment(2.0)
        assert np.array_equal(v.value(x), p2.value(x))
        assert np.array_equal(v.derivative(x), p2.derivative(x))
        assert v.is_variance and v.is_power

    def test_custom_roundtrip(self):
        m = custom_measure(lambda x: np.exp(x) - 1.0, lambda x: np.exp(x))
        assert m.value(0.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("measure", [
        *(power_moment(q) for q in (1.05, 1.5, 2.0, 2.5, 3.0, 5.7, 8.0)),
        custom_measure(lambda x: np.exp(x / 0.7), lambda x: np.exp(x / 0.7) / 0.7)],
        ids=lambda m: f"q={m.q}" if m.is_power else "exp")
    def test_point_alone_equals_point_in_array(self, measure):
        # One evaluation path: a scalar is evaluated as the array's entries are.
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 3.0, 2000) * 10.0 ** rng.uniform(-6.0, 6.0, 2000)
        if not measure.is_power:
            x = x[x < 400.0]   # exp(x / 0.7) stays finite
        for f in (measure.value, measure.derivative):
            assert [f(v) for v in x.tolist()] == [f(np.array([v]))[0] for v in x.tolist()]

    def test_custom_needs_both_callables(self):
        with pytest.raises(RobustPriceError):
            custom_measure(None, None)
