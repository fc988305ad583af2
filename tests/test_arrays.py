import numpy as np
import pytest

from crbeam.arrays import (
    ArrayGeometry,
    ExtendedTarget,
    PointTarget,
    point_terms,
    response_point,
    steering,
    steering_deriv,
    steering_deriv_norm_sq,
    target_response,
)
from crbeam.errors import DimensionMismatch


class TestSteering:
    def test_broadside_all_ones(self):
        assert np.allclose(steering(0.0, 4), np.ones(4))

    def test_two_element_30deg(self):
        a = steering(np.pi / 6, 2)
        expected = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        assert np.allclose(a, expected, atol=1e-14)

    @pytest.mark.parametrize("theta", [-1.2, -0.3, 0.0, 0.7, 1.4])
    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_norm_squared_is_n(self, theta, n):
        a = steering(theta, n)
        assert np.abs(a.conj() @ a - n) <= 1e-12 * n
        assert np.allclose(np.abs(a), 1.0)

    @pytest.mark.parametrize("center_deg", [0.0, 10.0])
    @pytest.mark.parametrize("n", [4, 16, 20])
    def test_angle_array_stacks_scalar_columns(self, center_deg, n):
        angles = np.deg2rad(center_deg + 0.05 * np.arange(-200, 201))
        # three or four angles against n = 4 would broadcast instead of stacking
        for some in (angles, angles[:3], angles[:4]):
            for fn in (steering, steering_deriv):
                grid = fn(some, n)
                assert grid.shape == (n, some.size)
                assert np.array_equal(grid, np.column_stack([fn(t, n) for t in some]))


class TestSteeringDeriv:
    def test_broadside_four_elements(self):
        d = steering_deriv(0.0, 4)
        expected = 1j * np.pi * np.array([-1.5, -0.5, 0.5, 1.5])
        assert np.allclose(d, expected, atol=1e-14)

    @pytest.mark.parametrize("theta", [-1.0, -0.2, 0.0, 0.4, 1.3])
    @pytest.mark.parametrize("n", [2, 5, 16, 20])
    def test_orthogonal_to_steering(self, theta, n):
        a = steering(theta, n)
        d = steering_deriv(theta, n)
        assert abs(a.conj() @ d) <= 1e-10

    @pytest.mark.parametrize("theta", [-0.8, 0.05, 0.9])
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_central_difference(self, theta, n):
        # truncation is h^2 ||a'''|| / 6 <= h^2 (pi m_max)^2 / 6 * ||da|| ~ 4e-8
        # relative at n=32, so 5e-8 is the attainable relative tolerance here
        h = 1e-5
        fd = (steering(theta + h, n) - steering(theta - h, n)) / (2 * h)
        assert np.linalg.norm(fd - steering_deriv(theta, n)) <= 5e-8 * max(1, np.linalg.norm(fd))

    def test_central_difference_is_second_order(self):
        n, theta = 16, 0.4
        errs = []
        for h in (1e-4, 5e-5, 2.5e-5):
            fd = (steering(theta + h, n) - steering(theta - h, n)) / (2 * h)
            errs.append(np.linalg.norm(fd - steering_deriv(theta, n)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_norm_closed_form(self, theta, n):
        d = steering_deriv(theta, n)
        m = np.arange(n) - (n - 1) / 2
        direct = np.cos(theta) ** 2 * np.pi**2 * np.sum(m**2)
        assert np.real(d.conj() @ d) == pytest.approx(direct, rel=1e-12)
        assert steering_deriv_norm_sq(theta, n) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    def test_point_terms(self, theta):
        a, ad, nb2, nbd2 = point_terms(theta, ArrayGeometry(16, 20))
        assert np.array_equal(a, steering(theta, 16))
        assert np.array_equal(ad, steering_deriv(theta, 16))
        assert nb2 == 20.0
        assert nbd2 == pytest.approx(steering_deriv_norm_sq(theta, 20), rel=1e-12)


class TestResponses:
    def test_zero_reflection(self):
        g = response_point(PointTarget(0.3, 0.0), ArrayGeometry(4, 6))
        assert np.count_nonzero(g) == 0

    def test_broadside_all_ones(self):
        g = response_point(PointTarget(0.0, 1.0), ArrayGeometry(2, 2))
        assert np.allclose(g, np.ones((2, 2)))

    def test_frobenius_norm(self):
        alpha = 2.0 * np.exp(1j * np.pi / 3)
        g = response_point(PointTarget(0.2, alpha), ArrayGeometry(4, 6))
        assert np.linalg.norm(g) == pytest.approx(abs(alpha) * np.sqrt(4 * 6), rel=1e-12)

    def test_random_target_shape_and_scale(self, rng):
        geom = ArrayGeometry(8, 10)
        t = ExtendedTarget.random(geom, rng)
        assert t.response.shape == (10, 8)
        # unit variance per entry in the large-sample sense
        assert np.var(t.response.real) + np.var(t.response.imag) == pytest.approx(1.0, rel=0.3)


class TestValidation:
    def test_geometry_minimum(self):
        with pytest.raises(ValueError):
            ArrayGeometry(1, 6)

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            PointTarget(2.0, 1.0)


@pytest.mark.parametrize("call, exc, match", [
    (lambda: steering_deriv(0.0, 1), ValueError, "derivative needs n >= 2"),
    (lambda: target_response(ExtendedTarget(np.ones((4, 4))), ArrayGeometry(4, 6)), DimensionMismatch,
     r"response shape \(4, 4\) != \(6, 4\)"),
    (lambda: target_response(0.3, ArrayGeometry(4, 6)), TypeError, "unsupported target type"),
    (lambda: PointTarget(0.3, np.nan), ValueError, "alpha must be finite"),
    (lambda: PointTarget(0.3, complex(0.0, np.inf)), ValueError, "alpha must be finite"),
], ids=["steering_deriv", "response_shape", "target_type", "alpha_nan", "alpha_inf"])
def test_input_checks(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
