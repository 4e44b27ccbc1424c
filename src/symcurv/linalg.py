"""Small dense linear algebra, plus the Lambda^2(R^n) <-> so(n) identification.

Conversions between bivectors and skew matrices keep their input's dtype:
object arrays of Fractions or Python ints (exact), int64 numerators, or
float64. Spectral routines are float-only.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from ._exact import fzeros


# ---------------------------------------------------------------------------
# tolerance table
#
# Numerical cutoffs decide clusters, ranks and span membership. They read
# only float64's precision, the problem's size and its own scale, so they
# never move with SYMCURV_TOL and do not change under a rescaling.

FLOAT_EPS = float(np.finfo(float).eps)
# eigh's eigenvalues are accurate to about FLOAT_EPS * scale. Clusters split
# only at gaps above SQRT_EPS * scale keep their eigenvectors, and the spans
# and commutants built from them, accurate to about SQRT_EPS.
SQRT_EPS = math.sqrt(FLOAT_EPS)


def null_cut(shape, scale):
    """Largest eigenvalue of the normal matrix A^T A read as zero, for A of
    the given shape and A^T A's largest eigenvalue scale: rounding while
    forming it moves zero eigenvalues by up to about max(shape) * eps * scale."""
    return max(shape) * FLOAT_EPS * scale


# Check bounds judge the residuals that reports print. Only they move with
# SYMCURV_TOL (EPS) or a command's --tol.

DEFAULT_TOL = 1e-9


def _tol_from_env():
    """SYMCURV_TOL as a positive finite float, and None; or the default and
    a one-line error for the CLI to report, so importing never fails."""
    raw = os.environ.get("SYMCURV_TOL", str(DEFAULT_TOL))
    try:
        if 0 < float(raw) < math.inf:
            return float(raw), None
    except ValueError:
        pass
    return DEFAULT_TOL, f"SYMCURV_TOL must be a positive number, got {raw!r}"


EPS, EPS_ERROR = _tol_from_env()
# default bound of the verify, classify and Schur checks
CHECK_TOL = 10 * EPS
# bound at which recover_rho_hat rejects a candidate curvature
RECOVER_TOL = 100 * EPS
# default distance from an integer that charclasses accepts as integral
INTEGRALITY_TOL = 1e-6
# ---------------------------------------------------------------------------


class LinalgError(Exception):
    pass


class NotSymmetric(LinalgError):
    pass


class NotInImage(LinalgError):
    pass


def pair_index(n):
    """Lexicographic (i, j) pairs with i < j; fixes the Lambda^2 basis order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class EigenDecomposition:
    pairs: list  # [(eigenvalue, orthonormal basis as columns)]
    kernel: np.ndarray  # columns spanning the 0-eigenspace (may be empty)


def skew_from_bivector_coeffs(coeffs, n):
    """Linear extension of e_i ^ e_j -> matrix with (j,i)=+1, (i,j)=-1.
    Leading axes of coeffs are kept: a stack of vectors gives a stack of
    matrices."""
    coeffs = np.asarray(coeffs)
    shape = coeffs.shape[:-1] + (n, n)
    a = fzeros(shape) if coeffs.dtype == object else np.zeros(shape, coeffs.dtype)
    i, j = np.triu_indices(n, 1)  # the pair_index order
    a[..., j, i] = coeffs
    a[..., i, j] = -coeffs
    return a


def bivector_coeffs_from_skew(a):
    """Inverse of skew_from_bivector_coeffs, stacks included. Rows come
    back contiguous, the layout BLAS takes in later products."""
    a = np.asarray(a)
    i, j = np.triu_indices(a.shape[-1], 1)
    return np.ascontiguousarray(a[..., j, i])


def bivector_bracket(a, b, n):
    """Coefficients of [a, b] = skew(a) skew(b) - skew(b) skew(a) for
    bivectors given by coefficients; leading axes broadcast, and the dtype
    of the inputs is kept, so integer numerators stay exact."""
    sa = skew_from_bivector_coeffs(a, n)
    sb = skew_from_bivector_coeffs(b, n)
    return bivector_coeffs_from_skew(sa @ sb - sb @ sa)


# Row-stacked products: numpy runs on each row the BLAS call it runs for one
# vector, so these equal a per-row loop bit for bit, provided each row keeps
# unit stride (a strided vector takes numpy's own loop).

def combine(coeffs, mats):
    """sum_p coeffs[..., p] * mats[p] for each row of coeffs."""
    k = mats.shape[-1]
    flat = mats.reshape(len(mats), k * k)
    return (coeffs[..., None, :] @ flat).reshape(coeffs.shape[:-1] + (k, k))


def project(basis, x):
    """Coefficients of each row of x on the orthonormal columns of basis,
    and the part of the row off their span."""
    coeffs = (basis.T @ x[..., None])[..., 0]
    return coeffs, x - (basis @ coeffs[..., None])[..., 0]


def row_norms(x):
    """Euclidean norm of each row, from the dot product np.linalg.norm uses."""
    return np.sqrt(x[..., None, :] @ x[..., None])[..., 0, 0]


def eig_sym(m) -> EigenDecomposition:
    """Eigenvalues of a symmetric matrix, clustered at gaps of at most
    SQRT_EPS times the largest magnitude, each with an orthonormal basis of
    its eigenspace. The cluster whose mean is within that gap of 0 is the
    kernel, with eigenvalue exactly 0.0."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return EigenDecomposition(pairs=[], kernel=np.zeros((0, 0)))
    vals, vecs = np.linalg.eigh(m)
    gap = SQRT_EPS * np.abs(vals).max()
    bounds = [0, *(1 + np.flatnonzero(np.diff(vals) > gap)), len(vals)]
    pairs = []
    kernel = np.zeros((m.shape[0], 0))
    for a, b in zip(bounds, bounds[1:]):
        lam = float(np.mean(vals[a:b]))
        basis = vecs[:, a:b]
        if abs(lam) <= gap:
            kernel = basis
            lam = 0.0
        pairs.append((lam, basis))
    recon = sum(lam * (basis @ basis.T) for lam, basis in pairs)
    if float(np.abs(recon - m).max()) > gap:
        raise NotSymmetric("spectral reconstruction residual exceeds tolerance")
    return EigenDecomposition(pairs=pairs, kernel=kernel)


def solve_on_image(eig: EigenDecomposition, y):
    """Preimage of y under the operator with eigendata eig, restricted to
    its image.

    Requires y to lie in the image to within SQRT_EPS of its norm; the
    returned x satisfies op(x) = y and is orthogonal to ker(op).
    """
    y = np.asarray(y, dtype=float)
    x = np.zeros_like(y)
    proj = np.zeros_like(y)
    for lam, basis in eig.pairs:
        if lam == 0.0:
            continue
        comp = basis.T @ y
        proj += basis @ comp
        x += basis @ (comp / lam)
    resid = float(np.linalg.norm(y - proj))
    if resid > SQRT_EPS * float(np.linalg.norm(y)):
        raise NotInImage(f"projection residual {resid:.3e} exceeds tolerance")
    return x
