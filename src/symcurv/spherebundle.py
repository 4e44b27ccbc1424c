"""Scalar curvature of connection metrics on sphere bundles.

Everything reduces to the operator C~ = -sum_{i,j} R^E(x_i, x_j)^2 over
ordered frame pairs (i != j counted twice) and the fiber metric profile
G(r): the O'Neill term is |A|^2(ru) = (1/4) G(r)^2 <C~ u, u>, and the total
scalar curvature is s_E = s_M + s_F - |A|^2.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import SQRT_EPS, within

SCHUR_SAMPLES = 1000  # random unit vectors per Schur constancy check


@dataclass(frozen=True)
class CtildeResult:
    operator: np.ndarray
    is_multiple_of_identity: bool
    constant: float
    residual: float


@dataclass(frozen=True)
class FiberMetricProfile:
    """Rotationally invariant fiber metric dr^2 + G(r)^2 dsigma^2."""
    g: callable
    s_f: float


def round_fiber_profile(k, radius=1.0):
    """Profile of a round fiber sphere S^(k-1) of the given radius."""
    s_f = (k - 1) * (k - 2) / radius ** 2
    return FiberMetricProfile(g=lambda r, a=radius: a * r, s_f=s_f)


@dataclass(frozen=True)
class ConstancyReport:
    ok: bool
    constant: float
    max_deviation: float


def c_tilde(bundle) -> CtildeResult:
    k = bundle.rank
    op = np.zeros((k, k))
    for block in bundle.blocks:
        op -= 2.0 * (block @ block)  # ordered pairs: (i,j) and (j,i)
    c = float(np.trace(op) / k) if k else 0.0
    resid = float(np.abs(op - c * np.eye(k)).max(initial=0.0))
    return CtildeResult(
        operator=op,
        is_multiple_of_identity=within(resid, c),
        constant=c, residual=resid,
    )


def c_of(ct, u):
    """C(u) = sum over ordered pairs |R^E(x_i, x_j) u|^2 = <C~ u, u>, for
    ct = c_tilde(bundle)."""
    u = np.asarray(u, dtype=float)
    return float(u @ ct.operator @ u)


def schur_constancy_check(bundle, seed=0, tol=None):
    """Sample C(u) on SCHUR_SAMPLES unit vectors; compare with tr(C~)/k."""
    ct = c_tilde(bundle)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(SCHUR_SAMPLES):
        u = rng.standard_normal(bundle.rank)
        u /= np.linalg.norm(u)
        d = abs(c_of(ct, u) - ct.constant)
        if d > worst or d != d:  # keeps a NaN, which max() would drop
            worst = d
    return ConstancyReport(ok=within(worst, ct.constant, tol=tol),
                           constant=ct.constant, max_deviation=worst)


def a_tensor_norm(bundle, r, profile, u):
    """|A|^2 at the point ru of the fiber: (1/4) G(r)^2 C(u)."""
    if r <= 0:
        raise ValueError("radius must be positive")
    u = np.asarray(u, dtype=float)
    nu = np.linalg.norm(u)
    if abs(nu - 1.0) > SQRT_EPS:
        raise ValueError("u must be a unit vector")
    return 0.25 * profile.g(r) ** 2 * c_of(c_tilde(bundle), u)


def total_scalar_curvature(s_m, profile, a_norm):
    """s_E = s_M + s_F - |A|^2; no sign clamping."""
    return s_m + profile.s_f - a_norm


def base_scalar_curvature(space):
    """Scalar curvature of the base from the curvature operator.

    s_M = 2 sum_{a<b} K(x_a, x_b) = 2 tr-like sum of the diagonal of R^M
    in the bivector basis.
    """
    from . import symspace as ss
    curv = ss.curvature_operator(space)
    return 2.0 * float(sum(curv.matrix[p, p] for p in range(curv.dim)))
