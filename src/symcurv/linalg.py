"""Small dense linear algebra, plus the Lambda^2(R^n) <-> so(n) identification.

Two arithmetic modes share one code path: object arrays of Fractions
(exact) and float64 arrays. Conversions between bivectors and skew
matrices are mode-preserving; spectral routines are float-only.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._exact import fzeros


def _tol_from_env():
    """SYMCURV_TOL as a positive finite float, and None; or the default and
    a one-line error for the CLI to report, so importing never fails."""
    raw = os.environ.get("SYMCURV_TOL", "1e-9")
    try:
        if 0 < float(raw) < math.inf:
            return float(raw), None
    except ValueError:
        pass
    return 1e-9, f"SYMCURV_TOL must be a positive number, got {raw!r}"


EPS, EPS_ERROR = _tol_from_env()


def cluster_gap():
    return 10.0 * EPS


class LinalgError(Exception):
    pass


class NotSkew(LinalgError):
    pass


class NotSymmetric(LinalgError):
    pass


class NotInImage(LinalgError):
    pass


def pair_index(n):
    """Lexicographic (i, j) pairs with i < j; fixes the Lambda^2 basis order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def biv_dim(n):
    return n * (n - 1) // 2


def _exact_mode(a):
    return np.asarray(a).dtype == object


@dataclass(frozen=True)
class Bivector:
    n: int
    coeffs: np.ndarray  # length n(n-1)/2, lexicographic e_i ^ e_j order

    def __post_init__(self):
        if len(self.coeffs) != biv_dim(self.n):
            raise ValueError("coefficient vector has wrong length")

    def norm(self):
        c = np.asarray(self.coeffs, dtype=float)
        return float(np.sqrt(c @ c))


@dataclass(frozen=True)
class SkewMatrix:
    n: int
    entries: np.ndarray


@dataclass
class EigenDecomposition:
    pairs: list  # [(eigenvalue, orthonormal basis as columns)]
    kernel: np.ndarray  # columns spanning the 0-eigenspace (may be empty)


@dataclass
class SymmetricOperator:
    matrix: np.ndarray
    _eig: EigenDecomposition | None = field(default=None, repr=False)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def eigendata(self):
        if self._eig is None:
            self._eig = eig_sym(self)
        return self._eig


def skew_from_bivector_coeffs(coeffs, n):
    """Linear extension of e_i ^ e_j -> matrix with (j,i)=+1, (i,j)=-1.
    Leading axes of coeffs are kept: a stack of vectors gives a stack of
    matrices."""
    coeffs = np.asarray(coeffs)
    shape = coeffs.shape[:-1] + (n, n)
    a = fzeros(shape) if _exact_mode(coeffs) else np.zeros(shape)
    i, j = np.triu_indices(n, 1)  # the pair_index order
    a[..., j, i] = coeffs
    a[..., i, j] = -coeffs
    return a


def bivector_coeffs_from_skew(a):
    """Inverse of skew_from_bivector_coeffs, stacks included. Float rows
    come back contiguous, the layout BLAS takes in later products."""
    a = np.asarray(a)
    i, j = np.triu_indices(a.shape[-1], 1)
    out = a[..., j, i]
    return out if _exact_mode(a) else np.ascontiguousarray(out, dtype=float)


def bivector_to_skew(b: Bivector) -> SkewMatrix:
    return SkewMatrix(b.n, skew_from_bivector_coeffs(b.coeffs, b.n))


def skew_to_bivector(a: SkewMatrix) -> Bivector:
    m = a.entries
    if _exact_mode(m):
        if not all(v == 0 for v in (m + m.T).reshape(-1)):
            raise NotSkew("matrix is not exactly skew")
    else:
        resid = float(np.abs(m + m.T).max()) if m.size else 0.0
        if resid > EPS:
            raise NotSkew(f"symmetry residual {resid:.3e} exceeds tolerance")
    return Bivector(a.n, bivector_coeffs_from_skew(m))


def wedge(u, v):
    """Decomposable bivector u ^ v as a coefficient vector."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = len(u)
    return np.array([u[i] * v[j] - u[j] * v[i] for i, j in pair_index(n)])


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


def eig_sym(op: SymmetricOperator) -> EigenDecomposition:
    m = np.asarray(op.matrix, dtype=float)
    if m.size and float(np.abs(m - m.T).max()) > EPS:
        raise NotSymmetric("operator is not symmetric within tolerance")
    if m.size == 0:
        return EigenDecomposition(pairs=[], kernel=np.zeros((0, 0)))
    vals, vecs = np.linalg.eigh(m)
    gap = cluster_gap()
    clusters = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > gap:
            clusters.append((start, k))
            start = k
    pairs = []
    kernel = np.zeros((m.shape[0], 0))
    for a, b in clusters:
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


def solve_on_image(op: SymmetricOperator, y):
    """Preimage of y under op, restricted to Im(op).

    Requires y to lie in the image within EPS; the returned x satisfies
    op(x) = y and is orthogonal to ker(op).
    """
    y = np.asarray(y, dtype=float)
    eig = op.eigendata()
    x = np.zeros_like(y)
    proj = np.zeros_like(y)
    for lam, basis in eig.pairs:
        if lam == 0.0:
            continue
        comp = basis.T @ y
        proj += basis @ comp
        x += basis @ (comp / lam)
    resid = float(np.linalg.norm(y - proj))
    if resid > EPS * max(1.0, float(np.linalg.norm(y))):
        raise NotInImage(f"projection residual {resid:.3e} exceeds tolerance")
    return x
