import math

import pytest

from penalty_stab import (
    AdmissibilityError,
    ModelParams,
    ParameterDomainError,
    R_MAX_DIRICHLET,
    X_WEIGHT_NORM_PRODUCT,
    check_admissibility,
    dirichlet_rate_bounds,
    energy_constant,
    max_decay_rate,
    rate_report,
)

EXAMPLE_ONE = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.1, epsilon=0.01)


@pytest.mark.parametrize("field", ["nu", "alpha"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_strictly_positive_coefficients_enforced(field, bad):
    kwargs = dict(nu=0.1, alpha=0.1, delta=0.1, r=0.0, epsilon=0.01)
    kwargs[field] = bad
    with pytest.raises(ParameterDomainError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("field", ["delta", "r", "epsilon"])
@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_non_negative_coefficients_enforced(field, bad):
    kwargs = dict(nu=0.1, alpha=0.1, delta=0.1, r=0.1, epsilon=0.01)
    assert getattr(ModelParams(**{**kwargs, field: 0.0}), field) == 0.0
    kwargs[field] = bad
    with pytest.raises(ParameterDomainError):
        ModelParams(**kwargs)


def test_zero_epsilon_has_only_the_dirichlet_bounds():
    # epsilon = 0 is the Dirichlet feedback problem: the penalized conditions
    # and rates do not apply, and nothing divides by zero
    p = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.1, epsilon=0.0)
    ok, detail = check_admissibility(p)
    assert not ok and "epsilon = 0" in detail
    with pytest.raises(AdmissibilityError, match="epsilon = 0"):
        max_decay_rate(p)
    with pytest.raises(AdmissibilityError, match="epsilon = 0"):
        energy_constant(p, 0.01)
    report = rate_report(p)
    assert not report.admissible and report.detail == detail
    assert report.gamma_max is None and report.gamma is None and report.beta is None
    bounds = dirichlet_rate_bounds(p)
    assert bounds == dirichlet_rate_bounds(EXAMPLE_ONE)  # they do not depend on epsilon
    assert (report.gamma_dirichlet_max, report.beta_star) == (bounds.gamma_max, bounds.beta_star)


def test_gain_and_cubic_coefficient_may_be_zero():
    p = ModelParams(nu=0.1, alpha=0.1, delta=0.0, r=0.0, epsilon=0.01)
    assert p.delta == 0.0 and p.r == 0.0
    with pytest.raises(ParameterDomainError):
        ModelParams(nu=0.1, alpha=0.1, delta=-0.1, r=0.0, epsilon=0.01)
    with pytest.raises(ParameterDomainError):
        ModelParams(nu=0.1, alpha=0.1, delta=0.1, r=-0.2, epsilon=0.01)


def test_admissibility_holds_for_reference_setup():
    ok, detail = check_admissibility(EXAMPLE_ONE)
    assert ok
    # r^2 = 0.01 < 0.03 and alpha/nu = 1.3 <= 4/3
    assert "ok" in detail and "FAILED" not in detail


def test_admissibility_fails_on_ratio_condition():
    p = ModelParams(nu=0.01, alpha=0.1, delta=0.1, r=math.sqrt(0.002), epsilon=0.001)
    ok, detail = check_admissibility(p)
    assert not ok
    assert "FAILED" in detail
    assert "alpha/nu" in detail


def test_admissibility_zero_gain_reduces_to_ratio_two():
    assert check_admissibility(ModelParams(nu=1.0, alpha=2.0, delta=1.0, r=0.0, epsilon=0.5))[0]
    assert not check_admissibility(ModelParams(nu=1.0, alpha=2.0001, delta=1.0, r=0.0, epsilon=0.5))[0]


def test_admissibility_ratio_equality_is_admissible():
    # engineered so alpha/nu and the bound are the same float (both 1.5)
    p = ModelParams(nu=2.0, alpha=3.0, delta=0.1, r=0.5, epsilon=1.0 / 3.0)
    assert p.alpha / p.nu == 2.0 * (3.0 * p.epsilon - p.r ** 2) / (3.0 * p.epsilon)
    assert check_admissibility(p)[0]


def test_admissibility_gain_equality_is_inadmissible():
    # r^2 == 3*epsilon exactly: the gain condition is strict
    p = ModelParams(nu=1.0, alpha=0.1, delta=0.1, r=1.0, epsilon=1.0 / 3.0)
    assert p.r ** 2 >= 3.0 * p.epsilon
    assert not check_admissibility(p)[0]


def test_max_decay_rate_reference_value():
    assert max_decay_rate(EXAMPLE_ONE) == pytest.approx(1.0 / 300.0, rel=1e-12, abs=0)


def test_max_decay_rate_zero_gain():
    p = ModelParams(nu=0.1, alpha=0.1, delta=0.1, r=0.0, epsilon=0.01)
    assert max_decay_rate(p) == pytest.approx(0.1, rel=1e-14, abs=0)


def test_max_decay_rate_rejects_nonpositive():
    p = ModelParams(nu=0.1, alpha=0.2, delta=0.1, r=0.1, epsilon=0.01)
    with pytest.raises(AdmissibilityError):
        max_decay_rate(p)


def test_energy_constant_values():
    assert energy_constant(EXAMPLE_ONE, 0.001) == pytest.approx(0.0023333333333333, rel=1e-10,
                                                                abs=0)
    p = ModelParams(nu=1.0, alpha=0.5, delta=1.0, r=0.0, epsilon=1.0)
    assert energy_constant(p, 0.5) == pytest.approx(1.0, rel=1e-14, abs=0)


def test_energy_constant_vanishes_at_maximal_rate():
    gamma_max = max_decay_rate(EXAMPLE_ONE)
    assert energy_constant(EXAMPLE_ONE, gamma_max) == pytest.approx(0.0, abs=1e-15)


def test_energy_constant_domain_checks():
    gamma_max = max_decay_rate(EXAMPLE_ONE)
    for gamma in (0.0, -0.1, gamma_max * 1.0001):
        with pytest.raises(AdmissibilityError):
            energy_constant(EXAMPLE_ONE, gamma)


def test_energy_constant_non_increasing_in_gamma():
    gamma_max = max_decay_rate(EXAMPLE_ONE)
    gammas = [gamma_max * f for f in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
    betas = [energy_constant(EXAMPLE_ONE, g) for g in gammas]
    assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))


def test_admissibility_monotone_in_epsilon():
    base = dict(nu=0.1, alpha=0.13, delta=0.13, r=0.1)
    eps0 = 0.01
    assert check_admissibility(ModelParams(epsilon=eps0, **base))[0]
    for factor in (1.5, 2.0, 10.0, 1e3):
        assert check_admissibility(ModelParams(epsilon=eps0 * factor, **base))[0]


def test_max_decay_rate_linear_in_alpha_with_slope_minus_one():
    p1 = ModelParams(nu=0.1, alpha=0.05, delta=0.1, r=0.1, epsilon=0.01)
    p2 = ModelParams(nu=0.1, alpha=0.11, delta=0.1, r=0.1, epsilon=0.01)
    slope = (max_decay_rate(p2) - max_decay_rate(p1)) / (p2.alpha - p1.alpha)
    assert slope == pytest.approx(-1.0, rel=1e-10)


def test_weight_norm_product_constant():
    assert X_WEIGHT_NORM_PRODUCT == pytest.approx(0.2 ** 0.25 * (3.0 / 7.0) ** 0.75,
                                                  rel=1e-15, abs=0)
    assert X_WEIGHT_NORM_PRODUCT == pytest.approx(0.3542, abs=5e-5)


def test_dirichlet_gain_bound_is_sqrt_six():
    assert R_MAX_DIRICHLET == pytest.approx(math.sqrt(6.0), rel=1e-15, abs=0)
    assert 1.0 / X_WEIGHT_NORM_PRODUCT > math.sqrt(6.0)
    assert R_MAX_DIRICHLET == pytest.approx(2.4495, abs=1e-4)


def test_dirichlet_rate_zero_gain():
    p = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0, epsilon=0.01)
    bounds = dirichlet_rate_bounds(p)
    assert bounds.gamma_max == pytest.approx(0.07, rel=1e-12, abs=0)


def test_dirichlet_rate_reference_setup():
    bounds = dirichlet_rate_bounds(EXAMPLE_ONE)
    coupling = (0.1 * 0.13 + 0.01 * 0.1) / 3.0
    expected = 3.0 * (0.2 - 0.13 - coupling) / 3.1
    assert bounds.gamma_max == pytest.approx(expected, rel=1e-12, abs=0)
    assert bounds.beta_star > 0.0
    # the cubic-side argument of the min at this gamma
    assert bounds.beta_star <= 0.13 * (1.0 - 0.1 * X_WEIGHT_NORM_PRODUCT)


def test_dirichlet_rejects_large_gain():
    p = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=3.0, epsilon=0.01)
    with pytest.raises(AdmissibilityError):
        dirichlet_rate_bounds(p)


def test_dirichlet_rejects_bad_ratio():
    p = ModelParams(nu=0.1, alpha=0.25, delta=0.13, r=0.0, epsilon=0.01)
    with pytest.raises(AdmissibilityError):
        dirichlet_rate_bounds(p)


def test_rate_report_admissible_case():
    report = rate_report(EXAMPLE_ONE)
    assert report.admissible
    assert report.gamma_max == pytest.approx(1.0 / 300.0, rel=1e-12, abs=0)
    assert report.gamma == pytest.approx(report.gamma_max / 2.0, rel=1e-14, abs=0)
    assert report.beta is not None and report.beta > 0.0
    assert report.gamma_dirichlet_max is not None
    data = report.as_dict()
    assert data["admissible"] is True


def test_rate_report_inadmissible_case_has_none_fields():
    p = ModelParams(nu=0.01, alpha=0.1, delta=0.1, r=math.sqrt(0.002), epsilon=0.001)
    report = rate_report(p)
    assert not report.admissible
    assert report.gamma_max is None and report.beta is None
    assert report.gamma_dirichlet_max is None  # alpha/nu = 10 > 2 fails there too
    assert report.r_max_dirichlet == pytest.approx(math.sqrt(6.0))
