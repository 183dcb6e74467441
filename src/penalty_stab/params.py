"""Model coefficients, admissibility checks, and decay-rate bounds.

The continuous model is the cubic reaction-diffusion equation

    y_t = nu * y_xx + alpha * y - delta * y**3      on (0, 1),

with ``y(t, 0) = 0`` and boundary feedback ``u(t) = -r * integral(x * y(t, x))``
applied at ``x = 1`` through the Robin penalization
``epsilon * y_x(t, 1) + y(t, 1) = u(t)``.

At ``epsilon = 0`` it is ``y(t, 1) = u(t)``, the Dirichlet feedback problem,
the limit of the penalized solutions as epsilon -> 0.

Everything in this module is closed-form arithmetic on the coefficients:
the admissibility conditions that guarantee exponential stabilization of the
penalized problem, the maximal certified decay rate, the associated energy
constant, and the analogous bounds for the Dirichlet feedback problem, which
do not depend on epsilon.  The penalized ones do not apply at ``epsilon =
0``.  All types are immutable values, safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import AdmissibilityError, ParameterDomainError

#: Product of the L^4 and L^{4/3} norms of the weight function x on (0, 1):
#: (1/5)**(1/4) * (3/7)**(3/4), about 0.3542.  Enters the gain bound of the
#: Dirichlet feedback stability analysis; kept at full precision rather than
#: the usual rounded value.
X_WEIGHT_NORM_PRODUCT = 0.2 ** 0.25 * (3.0 / 7.0) ** 0.75

#: Largest feedback gain for which the Dirichlet feedback analysis applies:
#: min{1 / X_WEIGHT_NORM_PRODUCT, sqrt(6)}; sqrt(6) is the smaller of the two.
R_MAX_DIRICHLET = min(1.0 / X_WEIGHT_NORM_PRODUCT, math.sqrt(6.0))

_NOT_PENALIZED = ("the penalized conditions do not apply at epsilon = 0, the Dirichlet "
                  "feedback problem (see dirichlet_rate_bounds)")


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients, feedback gain, and penalty parameter.

    Parameters
    ----------
    nu:
        Diffusion coefficient, > 0.
    alpha:
        Linear reaction coefficient, > 0.
    delta:
        Cubic reaction coefficient, >= 0.  ``delta = 0`` makes the model
        linear, which several solver diagnostics rely on.
    r:
        Feedback gain, >= 0.  ``r = 0`` disables the control.
    epsilon:
        Penalty parameter of the Robin boundary condition, >= 0.
        ``epsilon = 0`` is the Dirichlet feedback problem.
    """

    nu: float
    alpha: float
    delta: float
    r: float
    epsilon: float

    def __post_init__(self) -> None:
        for name in ("nu", "alpha"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ParameterDomainError(f"{name} must be positive and finite, got {value!r}")
        for name in ("delta", "r", "epsilon"):
            value = getattr(self, name)
            if not (value >= 0.0) or not math.isfinite(value):
                raise ParameterDomainError(f"{name} must be non-negative and finite, got {value!r}")


def check_admissibility(params: ModelParams) -> tuple[bool, str]:
    """Evaluate the stabilization conditions for the penalized problem.

    The penalized feedback system is certified to decay exponentially when

        r**2 < 3 * epsilon        (gain condition, strict)
        alpha / nu <= 2 * (3 * epsilon - r**2) / (3 * epsilon)   (ratio condition)

    Returns
    -------
    (admissible, detail):
        ``admissible`` is True iff both conditions hold; ``detail`` spells out
        each condition with both sides evaluated, marking any failure.  At
        ``epsilon = 0``, the Dirichlet feedback problem, neither condition
        applies: the result is False, and ``detail`` says so.
    """
    if params.epsilon == 0.0:
        return False, _NOT_PENALIZED
    three_eps = 3.0 * params.epsilon
    r_sq = params.r * params.r  # a product overflows to inf; ``** 2`` raises
    gain_ok = r_sq < three_eps
    ratio = params.alpha / params.nu
    ratio_bound = 2.0 * (three_eps - r_sq) / three_eps
    ratio_ok = ratio <= ratio_bound

    parts = [
        f"gain condition r^2 < 3*epsilon: {r_sq:.6g} {'<' if gain_ok else '>='} {three_eps:.6g}"
        f" ({'ok' if gain_ok else 'FAILED'})",
        f"ratio condition alpha/nu <= 2*(3*epsilon - r^2)/(3*epsilon): "
        f"{ratio:.6g} {'<=' if ratio_ok else '>'} {ratio_bound:.6g}"
        f" ({'ok' if ratio_ok else 'FAILED'})",
    ]
    return gain_ok and ratio_ok, "; ".join(parts)


def max_decay_rate(params: ModelParams) -> float:
    """Largest certified exponential decay rate of the penalized problem.

    Returns ``2*nu - 2*nu*r**2/(3*epsilon) - alpha``, which is positive
    whenever :func:`check_admissibility` holds with a strict ratio condition.

    Raises
    ------
    AdmissibilityError
        If the value is not positive (no admissible decay rate), or at
        ``epsilon = 0``, where the penalized rate is not defined.
    """
    if params.epsilon == 0.0:
        raise AdmissibilityError(_NOT_PENALIZED)
    r_sq = params.r * params.r
    value = 2.0 * params.nu - 2.0 * params.nu * r_sq / (3.0 * params.epsilon) - params.alpha
    if value <= 0.0:
        raise AdmissibilityError(
            f"no admissible decay rate: 2*nu - 2*nu*r^2/(3*epsilon) - alpha = {value:.6g} <= 0"
        )
    return value


def energy_constant(params: ModelParams, gamma: float) -> float:
    """Energy constant of the penalized decay estimate at rate ``gamma``.

    For an admissible ``0 < gamma <= max_decay_rate(params)`` this returns

        min{2*nu - gamma - 2*nu*r**2/(3*epsilon) - alpha,  nu/epsilon}

    which is positive for ``gamma`` strictly below the maximal rate and
    exactly zero at the boundary ``gamma == max_decay_rate(params)``.
    """
    gamma_max = max_decay_rate(params)
    if not (0.0 < gamma <= gamma_max):
        raise AdmissibilityError(
            f"gamma must lie in (0, {gamma_max:.6g}], got {gamma!r}"
        )
    r_sq = params.r * params.r
    first = 2.0 * params.nu - gamma - 2.0 * params.nu * r_sq / (3.0 * params.epsilon) - params.alpha
    return min(first, params.nu / params.epsilon)


@dataclass(frozen=True)
class DirichletRateBounds:
    """Decay-rate data for the Dirichlet feedback (epsilon = 0) problem."""

    gamma_max: float
    beta_star: float
    r_max: float
    gamma: float  # rate at which beta_star was evaluated


def dirichlet_rate_bounds(params: ModelParams, gamma: float | None = None) -> DirichletRateBounds:
    """Decay bounds for the problem with the boundary value imposed exactly.

    Requires ``r < sqrt(6)`` (the binding part of the gain bound) and
    ``alpha/nu <= (6 - r**2) / (r + 3)``.  The maximal rate is

        gamma_max = 3 * (2*nu - alpha - (r*alpha + r**2*nu)/3) / (r + 3)

    and the energy constant at rate ``gamma`` (default ``gamma_max / 2``) is

        beta_star = min{2*nu - alpha - gamma*(r + 3)/3 - (r*alpha + r**2*nu)/3,
                        delta * (1 - r * X_WEIGHT_NORM_PRODUCT)}.

    Raises
    ------
    AdmissibilityError
        If the (r, alpha/nu) combination is inadmissible.
    """
    if params.r >= R_MAX_DIRICHLET:
        raise AdmissibilityError(
            f"gain r = {params.r:.6g} exceeds the admissible bound {R_MAX_DIRICHLET:.6g}"
        )
    ratio_bound = (6.0 - params.r ** 2) / (params.r + 3.0)
    ratio = params.alpha / params.nu
    if ratio > ratio_bound:
        raise AdmissibilityError(
            f"inadmissible combination: alpha/nu = {ratio:.6g} > (6 - r^2)/(r + 3) = {ratio_bound:.6g}"
        )
    coupling = (params.r * params.alpha + params.r ** 2 * params.nu) / 3.0
    gamma_max = 3.0 * (2.0 * params.nu - params.alpha - coupling) / (params.r + 3.0)
    if gamma is None:
        gamma = 0.5 * gamma_max
    elif not (0.0 <= gamma <= gamma_max):
        raise AdmissibilityError(f"gamma must lie in [0, {gamma_max:.6g}], got {gamma!r}")
    first = 2.0 * params.nu - params.alpha - gamma * (params.r + 3.0) / 3.0 - coupling
    second = params.delta * (1.0 - params.r * X_WEIGHT_NORM_PRODUCT)
    return DirichletRateBounds(
        gamma_max=gamma_max,
        beta_star=min(first, second),
        r_max=R_MAX_DIRICHLET,
        gamma=gamma,
    )


@dataclass(frozen=True)
class RateReport:
    """Eagerly computed admissibility verdict and rate bounds for logging.

    ``gamma`` is the rate at which ``beta`` was evaluated; the report uses the
    interior choice ``gamma_max / 2`` so that ``beta`` is positive whenever the
    parameters are admissible (at ``gamma == gamma_max`` the constant vanishes
    by construction).  Fields tied to an inadmissible regime are ``None``.
    """

    admissible: bool
    detail: str
    gamma_max: float | None
    gamma: float | None
    beta: float | None
    gamma_dirichlet_max: float | None
    beta_star: float | None
    r_max_dirichlet: float

    def as_dict(self) -> dict:
        return asdict(self)


def rate_report(params: ModelParams) -> RateReport:
    """Summarize admissibility and all rate bounds without raising.

    Every experiment in the harness records this report in its output
    metadata, so the admissibility verdict travels with the numbers.
    """
    admissible, detail = check_admissibility(params)
    gamma_max = gamma = beta = None
    try:
        gamma_max = max_decay_rate(params)
        gamma = 0.5 * gamma_max
        beta = energy_constant(params, gamma)
    except AdmissibilityError:
        pass
    gamma_d = beta_star = None
    try:
        bounds = dirichlet_rate_bounds(params)
        gamma_d, beta_star = bounds.gamma_max, bounds.beta_star
    except AdmissibilityError:
        pass
    return RateReport(
        admissible=admissible,
        detail=detail,
        gamma_max=gamma_max,
        gamma=gamma,
        beta=beta,
        gamma_dirichlet_max=gamma_d,
        beta_star=beta_star,
        r_max_dirichlet=R_MAX_DIRICHLET,
    )
