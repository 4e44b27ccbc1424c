"""Orthogonal representations of isotropy algebras.

Complex irreducibles are stored realified: a complex k-dim rep becomes a
real 2k-dim rep carrying a complex structure J_c (multiplication by i) and,
when one exists, a structure map (the realification of an antilinear
intertwiner J with J^2 = +1 or -1). Type classification works through the
real commutant: dimension 1 = real, 2 = complex, 4 = quaternionic, anything
else = reducible.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _exact as ex
from . import liealg
from .linalg import SQRT_EPS, combine, null_cut


class RepError(Exception):
    pass


class SourceMismatch(RepError):
    pass


class Reducible(RepError):
    pass


class UnsupportedDim(RepError):
    pass


class DescriptorError(RepError):
    pass


@dataclass(frozen=True)
class AlgebraRep:
    source: liealg.LieAlgebraModel
    images: np.ndarray  # (source.dim, N, N) real
    label: str = ""
    complex_structure: np.ndarray | None = None  # J_c, J_c^2 = -I
    structure_map: np.ndarray | None = None  # realified antilinear J
    structure_sign: int = 0  # J^2 = structure_sign * I (0 if absent)

    @property
    def target_dim(self):
        return self.images.shape[1]

    def image(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        return np.tensordot(coeffs, self.images, axes=(0, 0))

    def relabel(self, label):
        return AlgebraRep(self.source, self.images, label,
                          self.complex_structure, self.structure_map,
                          self.structure_sign)


@dataclass(frozen=True)
class RepType:
    kind: str  # "real" | "complex" | "quaternionic"
    commutant_dim: int
    witness: np.ndarray | None = None


def _realify_linear(m):
    """Complex matrix acting C^n -> real 2n x 2n in the (Re, Im) splitting."""
    a, b = m.real, m.imag
    return np.block([[a, -b], [b, a]])


def _realify_antilinear(m):
    """v -> m @ conj(v) as a real-linear map on R^{2n}."""
    a, b = m.real, m.imag
    return np.block([[a, b], [b, -a]])


def _jc(n):
    z = np.zeros((n, n))
    i = np.eye(n)
    return np.block([[z, -i], [i, z]])


# ---------------------------------------------------------------------------
# constructors

def trivial_rep(source, k, label=None):
    return AlgebraRep(
        source=source, images=np.zeros((source.dim, k, k)),
        label=label or f"trivial:{k}",
    )


def spin2_irrep(k):
    """Weight-k character realified: the so(2) generator maps to (k/2).J.

    The half-integral rate reflects the double cover: k = 2 is the
    tangent representation of the 2-sphere.
    """
    if k == 0:
        raise DescriptorError("k = 0 is the trivial weight; use trivial_rep")
    so2 = liealg.make_so(2)
    img = np.array([[[0.0, -k / 2], [k / 2, 0.0]]])
    return AlgebraRep(
        source=so2, images=img, label=f"spin2:{k}", complex_structure=_jc(1),
    )


def _su2_complex(k):
    """Per-basis complex images of su(2) on degree-k polynomials.

    Basis of the space is the normalized monomial m_r = z1^r z2^(k-r) /
    sqrt(C(k,r)), r = 0..k; the action is X.p = -(dp)(Xz). Returns the
    three (k+1)x(k+1) images (one per make_su(2) basis element) and the
    antilinear structure-map matrix, m_r -> (-1)^r m_{k-r}.
    """
    su2 = liealg.make_su(2)
    images = np.zeros((3, k + 1, k + 1), dtype=complex)
    for t, mat in enumerate(su2.matrices):
        x, y = liealg.complex_parts(mat)
        xc = ex.to_float(x) + 1j * ex.to_float(y)
        a, b, c, d = xc[0, 0], xc[0, 1], xc[1, 0], xc[1, 1]
        dm = np.zeros((k + 1, k + 1), dtype=complex)
        for r in range(k + 1):
            dm[r, r] = r * a + (k - r) * d
            if r >= 1:
                dm[r - 1, r] = b * math.sqrt(r * (k - r + 1))
            if r <= k - 1:
                dm[r + 1, r] = c * math.sqrt((k - r) * (r + 1))
        images[t] = -dm
    jmat = np.zeros((k + 1, k + 1), dtype=complex)
    for r in range(k + 1):
        jmat[k - r, r] = (-1) ** r
    return su2, images, jmat


def su2_irrep(k):
    """Complex irreducible of su(2) with complex dimension k+1, realified."""
    if k < 0:
        raise DescriptorError("k must be nonnegative")
    su2, images, jmat = _su2_complex(k)
    return AlgebraRep(
        source=su2,
        images=np.stack([_realify_linear(m) for m in images]),
        label=f"su2:{k}",
        complex_structure=_jc(k + 1),
        structure_map=_realify_antilinear(jmat),
        structure_sign=(-1) ** k,
    )


def real_form(rep):
    """Fixed subspace of a structure map with J^2 = +1, as a rep of its own."""
    if rep.structure_map is None or rep.structure_sign != 1:
        raise RepError("rep has no structure map squaring to +1")
    j = rep.structure_map
    n = rep.target_dim
    if np.abs(j @ j - np.eye(n)).max() > SQRT_EPS:
        raise RepError("structure map does not square to +1")
    vals, vecs = np.linalg.eigh((j + j.T) / 2)
    q = vecs[:, vals > 0.5]
    images = np.stack([q.T @ m @ q for m in rep.images])
    resid = max(
        np.abs(m @ q - q @ (q.T @ m @ q)).max(initial=0.0) for m in rep.images
    )
    if resid > SQRT_EPS * np.abs(rep.images).max(initial=0.0):
        raise RepError("fixed space of structure map is not invariant")
    return AlgebraRep(rep.source, images, label=rep.label + "|real")


# The su(2) basis mapped onto the self-dual and anti-self-dual ideals of
# so(4): row a holds the make_so(4) coordinates of the image of make_su(2)
# basis element a. Both maps are Lie algebra homomorphisms and their images
# are orthogonal complements (checked exactly in the tests).
_SO4_P = ex.farray([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, -1, -1, 0, 0]])
_SO4_Q = ex.farray([[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]])


def spin4_irrep(k1, k2):
    """Irreducible of so(4) labeled by su(2) x su(2) weights (k1, k2).

    Complex dimension (k1+1)(k2+1); returned as the real form when k1+k2
    is even (structure map squares to +1) and realified otherwise.
    """
    if k1 < 0 or k2 < 0:
        raise DescriptorError("k1, k2 must be nonnegative")
    so4 = liealg.make_so(4)
    # coordinates of each so(4) basis element along the two ideals: the rows
    # of _SO4_P and _SO4_Q are orthogonal, of squared norm 2 in so(4)'s
    # identity inner product
    cp, cq = ex.to_float(_SO4_P.T / 2), ex.to_float(_SO4_Q.T / 2)
    _, im1, j1 = _su2_complex(k1)
    _, im2, j2 = _su2_complex(k2)
    n1, n2 = k1 + 1, k2 + 1
    images = np.zeros((6, n1 * n2, n1 * n2), dtype=complex)
    for t in range(6):
        a = np.tensordot(cp[t], im1, axes=(0, 0))
        b = np.tensordot(cq[t], im2, axes=(0, 0))
        images[t] = np.kron(a, np.eye(n2)) + np.kron(np.eye(n1), b)
    jmat = np.kron(j1, j2)
    rep = AlgebraRep(
        source=so4,
        images=np.stack([_realify_linear(m) for m in images]),
        label=f"spin4:({k1},{k2})",
        complex_structure=_jc(n1 * n2),
        structure_map=_realify_antilinear(jmat),
        structure_sign=(-1) ** (k1 + k2),
    )
    if (k1 + k2) % 2 == 0:
        return real_form(rep).relabel(rep.label)
    return rep


@lru_cache(maxsize=None)
def _gammas(n):
    """Anticommuting gamma matrices, g_i g_j + g_j g_i = -2 delta_ij."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    if n < 2:
        raise UnsupportedDim("need n >= 2")
    if n % 2 == 1:
        # append i times the chirality element of the even case below
        gam = list(_gammas(n - 1))
        omega = np.eye(gam[0].shape[0], dtype=complex) * (-1j) ** ((n - 1) // 2)
        for g in gam:
            omega = omega @ g
        gam.append(1j * omega)
        return tuple(gam)
    gam = [1j * s1, 1j * s2]
    while len(gam) < n:
        m = gam[0].shape[0]
        new = [np.kron(s1, g) for g in gam]
        new.append(1j * np.kron(s2, np.eye(m)))
        new.append(1j * np.kron(s3, np.eye(m)))
        gam = new
    return tuple(g.copy() for g in gam)


def spin_fundamental(n, chirality=None):
    """Spinor representation of so(n) via the Clifford construction.

    Generators go to (1/2) g_i g_j in the pair order of make_so(n). For
    even n, chirality "+" or "-" selects a half-spinor summand.
    """
    if not 3 <= n <= 8:
        raise UnsupportedDim("spin_fundamental supports 3 <= n <= 8")
    son = liealg.make_so(n)
    gam = _gammas(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    images = [0.5 * (gam[i] @ gam[j]) for i, j in pairs]
    label = f"spinor:{n}"
    if chirality is not None:
        if n % 2 != 0:
            raise UnsupportedDim("chiral summands exist only for even n")
        m = n // 2
        omega = np.eye(gam[0].shape[0], dtype=complex) * (-1j) ** m
        for g in gam:
            omega = omega @ g
        # omega is real for n = 4, 6, 8, with eigenvalues +1 and -1
        vals, vecs = np.linalg.eigh(omega.real)
        q = vecs[:, vals > 0 if chirality == "+" else vals < 0]
        images = [q.T @ g @ q for g in images]
        label = f"spinor{chirality}:{n}"
    nd = images[0].shape[0]
    return AlgebraRep(
        source=son,
        images=np.stack([_realify_linear(m) for m in images]),
        label=label,
        complex_structure=_jc(nd),
    )


def _sym_traceless_basis(n):
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n))
            b[i, j] = b[j, i] = 1 / math.sqrt(2)
            basis.append(b)
    for k in range(1, n):
        b = np.zeros((n, n))
        b[:k, :k] = np.eye(k)
        b[k, k] = -k
        basis.append(b / math.sqrt(k * (k + 1)))
    return basis


def sym2_traceless(rep):
    """Induced action on traceless symmetric endomorphisms of the target."""
    n = rep.target_dim
    basis = _sym_traceless_basis(n)
    nd = len(basis)
    out = np.zeros((rep.source.dim, nd, nd))
    for t in range(rep.source.dim):
        m = rep.images[t]
        for ci, b in enumerate(basis):
            act = m @ b - b @ m
            for ri, r in enumerate(basis):
                out[t, ri, ci] = np.tensordot(r, act)
    return AlgebraRep(rep.source, out, label=f"S2_0({rep.label})")


def _u_complex_images(n):
    un = liealg.make_u(n)
    out = []
    for m in un.matrices:
        x, y = liealg.complex_parts(m)
        out.append(ex.to_float(x) + 1j * ex.to_float(y))
    return un, out


def un_det_power(n, k):
    """u(n) acting on C by k times the complex trace, realified."""
    un, mats = _u_complex_images(n)
    images = np.zeros((un.dim, 2, 2))
    for t, m in enumerate(mats):
        w = k * np.trace(m).imag
        images[t] = [[0.0, -w], [w, 0.0]]
    return AlgebraRep(un, images, label=f"det:({n},{k})",
                      complex_structure=_jc(1))


def un_fundamental_twist(n, k):
    """Fundamental of u(n) twisted by the k-th determinant power, realified."""
    un, mats = _u_complex_images(n)
    images = np.stack([
        _realify_linear(m + 1j * k * np.trace(m).imag * np.eye(n)) for m in mats
    ])
    return AlgebraRep(un, images, label=f"fund:({n},{k})",
                      complex_structure=_jc(n))


def _block_diag(a, b):
    """[[a, 0], [0, b]] for each pair of matrices along the leading axes."""
    n1, n2 = a.shape[-1], b.shape[-1]
    out = np.zeros(a.shape[:-2] + (n1 + n2, n1 + n2))
    out[..., :n1, :n1] = a
    out[..., n1:, n1:] = b
    return out


def direct_sum(r1, r2):
    if r1.source.name != r2.source.name or r1.source.dim != r2.source.dim:
        raise SourceMismatch(f"{r1.source.name} vs {r2.source.name}")
    jc = None
    if r1.complex_structure is not None and r2.complex_structure is not None:
        jc = _block_diag(r1.complex_structure, r2.complex_structure)
    return AlgebraRep(r1.source, _block_diag(r1.images, r2.images),
                      label=f"sum({r1.label},{r2.label})",
                      complex_structure=jc)


def external_sum(r1, r2):
    """Rep of the product algebra acting blockwise: (X, Y) -> r1(X) + r2(Y)."""
    src = liealg.product_algebra(r1.source, r2.source)
    n1, n2 = r1.target_dim, r2.target_dim
    images = np.zeros((src.dim, n1 + n2, n1 + n2))
    images[: r1.source.dim, :n1, :n1] = r1.images
    images[r1.source.dim :, n1:, n1:] = r2.images
    return AlgebraRep(src, images, label=f"ext({r1.label},{r2.label})")


# ---------------------------------------------------------------------------
# commutant analysis

def commutant_basis(rep):
    """Orthonormal basis, shape (d, n, n), of {C : [rho(X), C] = 0 for all X}.

    Every such C commutes with A = sum_t c_t rho(X_t), so it maps each
    eigenspace of A^T A = -A^2 (the images are skew) into itself: in an
    eigenbasis of A^T A it is block-diagonal over the eigenvalue clusters.
    The constraints [rho(X_t), C] = 0 are solved on those blocks alone,
    sum m_i^2 unknowns instead of n^2. The fixed c_t need not be generic:
    equal eigenvalues never split, so a poor A only merges blocks.
    """
    n = rep.target_dim
    # with no generators every matrix commutes: one zero image says so
    images = rep.images if len(rep.images) else np.zeros((1, n, n))
    k = len(images)
    a = combine(np.sqrt(np.arange(2.0, k + 2)) + np.arange(k) / 7, images)
    vals, q = np.linalg.eigh(a.T @ a)
    # eigenvectors accurate to about SQRT_EPS leave a commutant element cut
    # to the blocks a squared residual of about eps, under the null cutoff
    blocks = np.split(np.arange(n), 1 + np.flatnonzero(
        np.diff(vals) > SQRT_EPS * vals.max(initial=0.0)))
    rows = np.concatenate([np.repeat(b, len(b)) for b in blocks])
    cols = np.concatenate([np.tile(b, len(b)) for b in blocks])
    # column u holds [rho_t, E_u] for every t, E_u = e_rows[u] e_cols[u]^T
    rho = q.T @ images @ q
    u = np.arange(len(rows))
    lhs = np.zeros((k, n, n, len(u)))
    lhs[:, :, cols, u] = rho[:, :, rows]
    lhs[:, rows, :, u] -= rho[:, cols, :].transpose(1, 0, 2)
    lhs = lhs.reshape(k * n * n, len(u))
    # the normal matrix has the same null space
    w, v = np.linalg.eigh(lhs.T @ lhs)
    null = v[:, w <= null_cut(lhs.shape, w.max(initial=0.0))]
    # the unknowns are orthonormal entries and q is orthogonal, so the basis
    # stays orthonormal
    out = np.zeros((null.shape[1], n, n))
    out[:, rows, cols] = null.T
    return q @ out @ q.T


def equivalent(r1, r2):
    """True when an invertible intertwiner exists (orthogonal targets)."""
    if r1.target_dim != r2.target_dim:
        return False
    if r1.source.dim != r2.source.dim:
        return False
    n = r1.target_dim
    if r1.source.dim == 0:
        return True
    # the commutant of r1 + r2 is the orthogonal sum of its four blocks, so
    # its lower-left block has singular values 1 on Hom(r1, r2) and 0 off it
    comm = commutant_basis(AlgebraRep(r1.source, _block_diag(r1.images, r2.images)))
    _, s, vt = np.linalg.svd(comm[:, n:, :n].reshape(len(comm), n * n),
                             full_matrices=False)
    null = vt[s > 0.5]
    if len(null) == 0:
        return False
    # for orthogonal reps a generic combination of intertwiners is invertible.
    # The blocks are accurate only to about SQRT_EPS, so a singular
    # combination reads as invertible under a cut of n * eps
    rng = np.random.default_rng(7)
    for _ in range(8):
        t = np.tensordot(rng.standard_normal(len(null)), null, axes=(0, 0))
        if np.linalg.matrix_rank(t.reshape(n, n), rtol=SQRT_EPS) == n:
            return True
    return False


def classify_type(rep) -> RepType:
    """Real / complex / quaternionic classification via the commutant.

    Raises Reducible when the commutant is not one of the three division
    algebras R, C, H (detected by dimension plus definiteness of the
    squaring form on the traceless part).
    """
    comm = commutant_basis(rep)
    cdim = len(comm)
    n = rep.target_dim
    if cdim == 1:
        return RepType("real", 1, witness=np.eye(n))
    if cdim in (2, 4):
        # the commutant contains I, so the traceless parts of its basis span
        # cdim - 1 dimensions: the top right singular vectors, unit norm, so
        # SQRT_EPS is the precision of each test below
        tl = comm - np.trace(comm, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
        _, _, vt = np.linalg.svd(tl.reshape(cdim, n * n), full_matrices=False)
        tl = vt[: cdim - 1].reshape(-1, n, n)
        s = tl[0]
        lam = np.trace(s @ s) / n
        if cdim == 2:
            # complex: the traceless element squares to a negative multiple of I
            ok = lam < -SQRT_EPS and \
                np.abs(s @ s - lam * np.eye(n)).max() < SQRT_EPS
        else:
            # quaternionic: the squaring form on the traceless part is
            # negative definite
            gram = np.einsum("aij,bji->ab", tl, tl)
            ok = np.all(np.linalg.eigvalsh(gram) < -SQRT_EPS)
        if ok:
            return RepType("complex" if cdim == 2 else "quaternionic", cdim,
                           witness=s / math.sqrt(-lam))
    raise Reducible(f"commutant dimension {cdim} is not of division-algebra type")


def is_irreducible(rep):
    try:
        classify_type(rep)
        return True
    except Reducible:
        return False


# ---------------------------------------------------------------------------
# descriptors

def _split_args(s):
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [p.strip() for p in out]


def from_descriptor(desc, source=None):
    """Build a rep from a descriptor string.

    Grammar (ints may be negative where the constructor allows):
        rep      = atom | "sum(" rep { "," rep } ")" | "ext(" rep "," rep ")"
        atom     = "trivial:" int | "spin2:" int | "su2:" int
                 | "spin4:(" int "," int ")"
                 | "spinor:" int | "spinor+:" int | "spinor-:" int
                 | "det:(" int "," int ")" | "fund:(" int "," int ")"
    The optional source argument fixes the algebra for trivial factors.
    """
    desc = desc.strip()
    if desc.startswith("sum(") and desc.endswith(")"):
        parts = _split_args(desc[4:-1])
        if not parts or any(not p for p in parts):
            raise DescriptorError(f"bad sum descriptor {desc!r}")
        parsed = [None] * len(parts)
        src = source
        for i, p in enumerate(parts):
            if not p.startswith("trivial"):
                parsed[i] = from_descriptor(p, source=source)
                if src is None:
                    src = parsed[i].source
        for i, p in enumerate(parts):
            if parsed[i] is None:
                parsed[i] = from_descriptor(p, source=src)
        out = parsed[0]
        for r in parsed[1:]:
            out = direct_sum(out, r)
        return out
    if desc.startswith("ext(") and desc.endswith(")"):
        parts = _split_args(desc[4:-1])
        if len(parts) != 2:
            raise DescriptorError(f"ext takes exactly two reps: {desc!r}")
        return external_sum(from_descriptor(parts[0]), from_descriptor(parts[1]))
    if ":" not in desc:
        raise DescriptorError(f"cannot parse descriptor {desc!r}")
    name, _, params = desc.partition(":")
    name = name.strip()
    params = params.strip()

    def one_int():
        try:
            return int(params)
        except ValueError:
            raise DescriptorError(f"expected an integer parameter in {desc!r}")

    def two_ints():
        if not (params.startswith("(") and params.endswith(")")):
            raise DescriptorError(f"expected (a,b) parameters in {desc!r}")
        parts = _split_args(params[1:-1])
        if len(parts) != 2:
            raise DescriptorError(f"expected two parameters in {desc!r}")
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            raise DescriptorError(f"expected integer parameters in {desc!r}")

    if name == "trivial":
        k = one_int()
        if k < 0:
            raise DescriptorError("trivial rank must be nonnegative")
        return trivial_rep(source or liealg.make_abelian(0), k)
    if name == "spin2":
        return spin2_irrep(one_int())
    if name == "su2":
        return su2_irrep(one_int())
    if name == "spin4":
        return spin4_irrep(*two_ints())
    if name in ("spinor", "spinor+", "spinor-"):
        chir = None if name == "spinor" else name[-1]
        return spin_fundamental(one_int(), chirality=chir)
    if name == "det":
        return un_det_power(*two_ints())
    if name == "fund":
        return un_fundamental_twist(*two_ints())
    raise DescriptorError(f"unknown constructor {name!r}")
