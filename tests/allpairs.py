"""All-pairs forms of the three float verification kernels, kept as test
references.

symcurv takes the bracket identity and the homomorphism residual in row
chunks (linalg.row_chunks), so that their memory is bounded by one row of
the system, and writes the commutant's normal matrix in closed form from
the images without forming its (k n^2, m) constraint system. The formulas
below hold each system whole. Chunking only splits stacked products into
fewer rows, so the residuals agree bit for bit; the closed form sums the
normal matrix in a different order, so the commutant's basis agrees to
rounding.

symcurv reads rho-hat at R^M's pivot columns; recover() inverts R^M on
each image vector through its eigendecomposition instead, so the images
agree to rounding.

The tests import it as a sibling module, like homomorphism.py.
"""

import numpy as np

from symcurv import _exact as ex
from symcurv import bundles as bn
from symcurv import symspace as ss
from symcurv.linalg import (
    SQRT_EPS, NotInImage, bivector_bracket, combine, null_cut,
    project, row_norms, within)


def basis_pairs(nb):
    """Rows (e_p, e_q) for every pair of basis bivectors, at p * nb + q."""
    eye = np.eye(nb)
    return np.repeat(eye, nb, axis=0), np.tile(eye, (nb, 1))


def bracket_residuals(bundle, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rma = (bundle.curv.float_matrix @ a[..., None])[..., 0]
    lhs = bundle.value(bivector_bracket(rma, b, bundle.space.m_dim))
    ra, rb = bundle.value(a), bundle.value(b)
    return np.abs(lhs - (ra @ rb - rb @ ra)).max(axis=(-2, -1), initial=0.0)


def check_bracket_identity(bundle, tol=None):
    nb = bundle.blocks.shape[0]
    res = bracket_residuals(bundle, *basis_pairs(nb))
    worst = float(res.max(initial=0.0))
    ok = within(worst, bundle.blocks, 2, tol)
    return bn.IdentityReport(ok, worst,
                             None if ok else divmod(int(res.argmax()), nb))


def solve_on_image(eig, y):
    """Preimage of y orthogonal to the kernel, under the operator with
    eigendata eig; y has to lie in its image to within SQRT_EPS of its
    norm."""
    x = np.zeros_like(y)
    proj = np.zeros_like(y)
    for lam, basis in eig:
        if lam == 0.0:
            continue
        comp = basis.T @ y
        proj += basis @ comp
        x += basis @ (comp / lam)
    resid = float(np.linalg.norm(y - proj))
    if resid > SQRT_EPS * float(np.linalg.norm(y)):
        raise NotInImage(f"projection residual {resid:.3e} exceeds tolerance")
    return x


def hom_residual(img, images, n):
    """Homomorphism residual of rho-hat images on the orthonormal columns
    of img, over all pairs i < j at once."""
    i, j = np.triu_indices(img.shape[1], 1)
    coeffs, off = project(img, bivector_bracket(img.T[i], img.T[j], n))
    rhs = images[i] @ images[j] - images[j] @ images[i]
    return max(float(row_norms(off).max(initial=0.0)),
               float(np.abs(combine(coeffs, images) - rhs).max(initial=0.0)))


def recover(space, blocks):
    """(image basis, rho-hat images, homomorphism residual) as
    bundles.recover_rho_hat computes them, without its kernel check and
    its rejection, and with the images from the eigen-solve."""
    curv = ss.curvature_operator(space)
    blocks = np.asarray(blocks, dtype=float)
    img = ex.to_float(curv.image_basis)
    if img.shape[1]:
        img, _ = np.linalg.qr(img)
    images = np.zeros((img.shape[1], blocks.shape[1], blocks.shape[1]))
    for t in range(img.shape[1]):
        images[t] = combine(solve_on_image(curv.eigendata, img[:, t]), blocks)
    return img, images, hom_residual(img, images, space.m_dim)


def commutant_basis(rep):
    """reps.commutant_basis with the whole (k n^2, m) system built at once."""
    n = rep.target_dim
    images = rep.images if len(rep.images) else np.zeros((1, n, n))
    k = len(images)
    a = combine(np.sqrt(np.arange(2.0, k + 2)) + np.arange(k) / 7, images)
    vals, q = np.linalg.eigh(a.T @ a)
    blocks = np.split(np.arange(n), 1 + np.flatnonzero(
        np.diff(vals) > SQRT_EPS * vals.max(initial=0.0)))
    rows = np.concatenate([np.repeat(b, len(b)) for b in blocks])
    cols = np.concatenate([np.tile(b, len(b)) for b in blocks])
    rho = q.T @ images @ q
    u = np.arange(len(rows))
    lhs = np.zeros((k, n, n, len(u)))
    lhs[:, :, cols, u] = rho[:, :, rows]
    lhs[:, rows, :, u] -= rho[:, cols, :].transpose(1, 0, 2)
    lhs = lhs.reshape(k * n * n, len(u))
    w, v = np.linalg.eigh(lhs.T @ lhs)
    null = v[:, w <= null_cut(lhs.shape, w.max(initial=0.0))]
    out = np.zeros((null.shape[1], n, n))
    out[:, rows, cols] = null.T
    return q @ out @ q.T
