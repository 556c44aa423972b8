import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baroflow.errors import DomainError
from baroflow.pressure import PressureModel, polytropic
from oracles import (
    LambdaModel,
    from_catalog,
    linearization_coefficient,
    potential_density,
    pressure,
)

RHO = np.geomspace(0.1, 10.0, 20)


def lambda_model(A, gamma):
    """The general-lambda model of p = A rho^gamma, from the closures
    lambda = C rho^(2-gamma) and lambda' = C (2-gamma) rho^(1-gamma),
    C = (gamma-1)/(2A)."""
    C = (gamma - 1.0) / (2.0 * A)
    return LambdaModel(lambda rho: C * rho ** (2.0 - gamma),
                       lambda rho: C * (2.0 - gamma) * rho ** (1.0 - gamma))


class TestPhi:
    def test_lambda_rho_gives_zero(self):
        m = from_catalog("rho")
        assert np.max(np.abs(m.phi(RHO))) < 1e-14

    def test_lambda_const(self):
        c = 2.0
        m = from_catalog("const", c=c)
        assert np.allclose(m.phi(RHO), 1 / (2 * c**2), atol=1e-14)

    def test_lambda_3_over_rho(self):
        m = from_catalog("3/rho")
        assert np.allclose(m.phi(RHO), 3.0 / RHO, rtol=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            from_catalog("rho").phi(-1.0)


class TestDensityGuard:
    @pytest.mark.parametrize("method", ["lam", "phi", "pressure", "sound_speed"])
    @pytest.mark.parametrize("rho", [np.nan, [1.0, np.nan], [np.nan, 0.5]])
    def test_nan_density_is_rejected(self, method, rho):
        model = polytropic(1 / 3, 3.0)
        fn = (lambda r: pressure(model, r)) if method == "pressure" else getattr(model, method)
        with pytest.raises(DomainError, match="working range"):
            fn(rho)

    @pytest.mark.parametrize("rho, message", [
        ([1.0, 0.0], "must be positive"), ([1.0, -2.0, np.nan], "must be positive"),
        ([1.0, 1e-7], "working range"), ([1.0, 1e7], "working range"),
        ([1.0, np.inf], "working range"), ([-np.inf, 1.0], "must be positive"),
        # a (trials x n) block
        ([[1.0, 2.0], [1.0, 0.0]], "must be positive"),
        ([[1.0, 2.0], [1e7, 1.0]], "working range"),
        ([[1.0, np.nan], [1.0, 1.0]], "working range"),
    ])
    def test_messages_name_the_violation(self, rho, message):
        with pytest.raises(DomainError, match=message):
            polytropic(1 / 3, 3.0).lam(rho)

    def test_range_ends_are_accepted(self):
        m = polytropic(1 / 3, 3.0)
        assert np.all(np.isfinite(m.lam([1e-6, 1e6])))
        assert np.all(np.isfinite(m.lam([[1e-6, 1.0], [2.0, 1e6]])))
        assert m.lam(np.empty(0)).shape == (0,)


class TestPressure:
    def test_gamma3(self):
        m = from_catalog("3/rho")
        assert np.allclose(pressure(m, RHO), RHO**3 / 3, rtol=1e-13)

    def test_gamma2(self):
        c = 1.3
        m = from_catalog("const", c=c)
        assert np.allclose(pressure(m, RHO), c**2 * RHO**2 / 2, rtol=1e-13)

    def test_lambda_rho_zero_pressure(self):
        assert np.max(np.abs(pressure(from_catalog("rho"), RHO))) < 1e-14


class TestPolytropic:
    def test_special_cases(self):
        m = polytropic(1 / 3, 3.0)
        assert np.allclose(m.lam(RHO), 3.0 / RHO, rtol=1e-13)
        c = 1.7
        m2 = polytropic(c**2 / 2, 2.0)
        assert np.allclose(m2.lam(RHO), 1 / c**2, rtol=1e-13)

    def test_gamma_14_identity(self):
        m = polytropic(1.0, 1.4)
        assert np.allclose(pressure(m, RHO), RHO**1.4, rtol=1e-12)

    @given(st.floats(0.2, 5.0), st.floats(1.05, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_pressure_roundtrip_property(self, A, gamma):
        m = polytropic(A, gamma)
        assert np.allclose(pressure(m, RHO), A * RHO**gamma, rtol=1e-10)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            polytropic(1.0, 1.0)
        with pytest.raises(DomainError):
            polytropic(-1.0, 2.0)
        for A, gamma in ((0.0, 2.0), (-1.0, 2.0), (1.0, 1.0), (1.0, 0.5)):
            with pytest.raises(DomainError):
                PressureModel(A, gamma)

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    def test_closed_forms_equal_the_lambda_closures_bitwise(self, gamma):
        m, ref = polytropic(0.7, gamma), lambda_model(0.7, gamma)
        lam = ref.lam(RHO)
        assert np.array_equal(m.lam(RHO), lam)
        assert np.array_equal(m.phi(RHO), ref.phi(RHO))
        assert np.array_equal(m._phi(RHO, lam), ref._phi(RHO, lam))


class TestCurvatureCoefficient:
    def test_gamma3_critical(self):
        m = from_catalog("3/rho")
        assert np.max(np.abs(m.curvature_coefficient(RHO))) < 1e-12

    def test_gamma2_value(self):
        c = 2.0
        m = polytropic(c**2 / 2, 2.0)
        # lambda const: x*phi' + phi^2/lambda = (1/(2c^2))^2 * c^2 = 1/(4c^2)
        assert m.curvature_coefficient(1.0) == pytest.approx(1 / (4 * c**2), rel=1e-12)

    def test_gamma4_negative(self):
        m = polytropic(1.0, 4.0)
        assert np.all(m.curvature_coefficient(RHO) < 0)

    @pytest.mark.parametrize("gamma", [1.1, 1.4, 2.0, 3.0, 3.5, 4.0])
    def test_sign_matches_three_minus_gamma(self, gamma):
        m = polytropic(0.8, gamma)
        coef = m.curvature_coefficient(RHO)
        if gamma == 3.0:
            assert np.max(np.abs(coef)) < 1e-12
        else:
            assert np.all(np.sign(coef) == np.sign(3.0 - gamma))

    def test_finite_difference_dphi_matches_analytic(self):
        for gamma in (1.4, 2.0, 3.0):
            m = polytropic(1.0, gamma)
            generic = lambda_model(1.0, gamma)
            assert np.allclose(generic.dphi(RHO), m._dphi(RHO), rtol=1e-6)


class TestDerivedCoefficients:
    def test_hprime_gamma2(self):
        c = 1.5
        m = polytropic(c**2 / 2, 2.0)
        assert np.allclose(linearization_coefficient(m, RHO), c**2, rtol=1e-13)

    def test_hprime_gamma3(self):
        m = polytropic(1 / 3, 3.0)
        assert np.allclose(linearization_coefficient(m, RHO), RHO, rtol=1e-13)

    def test_finite_difference_hprime_matches_analytic(self):
        for gamma in (1.4, 2.0, 3.0):
            m = polytropic(1.0, gamma)
            generic = lambda_model(1.0, gamma)
            assert np.allclose(linearization_coefficient(generic, RHO),
                               linearization_coefficient(m, RHO), rtol=1e-6)

    def test_psi_gamma2(self):
        c = 1.5
        m = polytropic(c**2 / 2, 2.0)
        assert np.allclose(potential_density(m, RHO), c**2 * RHO / 2, rtol=1e-13)

    def test_numeric_psi_matches_analytic(self):
        m = polytropic(1.0, 1.4)
        generic = lambda_model(1.0, 1.4)
        assert np.allclose(
            potential_density(generic, RHO), potential_density(m, RHO) - potential_density(m, 1.0),
            atol=1e-3,
        )
