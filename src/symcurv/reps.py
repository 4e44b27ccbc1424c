"""Orthogonal representations of isotropy algebras.

Complex irreducibles are stored realified: a complex k-dim rep becomes a
real 2k-dim rep carrying a complex structure J_c (multiplication by i) and,
when one exists, a structure map (the realification of an antilinear
intertwiner J with J^2 = +1 or -1). Type classification works through the
real commutant: a rep whose commutant has a symmetric element other than a
multiple of I is reducible, else dimension 1 = real, 2 = complex and
4 = quaternionic.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from . import _exact as ex
from . import liealg
from .linalg import SQRT_EPS, combine, null_cut, pair_index


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


@dataclass(frozen=True)
class RepType:
    kind: str  # "real" | "complex" | "quaternionic"
    commutant_dim: int


def _complex_rep(source, images, label, jmat=None, sign=0):
    """Realify complex images (dim, n, n) in the (Re, Im) splitting of C^n.

    J_c is multiplication by i. jmat, when given, is the matrix of the
    antilinear structure map v -> jmat @ conj(v), which squares to sign * I.
    """
    i = np.eye(images.shape[-1])
    # antilinear: realify(jmat) @ diag(I, -I), diag(I, -I) being conj
    smap = None if jmat is None else np.block(
        [[jmat.real, jmat.imag], [jmat.imag, -jmat.real]])
    return AlgebraRep(source, liealg.realify(images.real, images.imag), label,
                      complex_structure=liealg.realify(np.zeros_like(i), i),
                      structure_map=smap, structure_sign=sign)


def _complex_images(alg):
    """Complex matrices of the basis of su(n) or u(n), shape (dim, n, n)."""
    x, y = liealg.complex_parts(np.stack(alg.matrices))
    return ex.to_float(x) + 1j * ex.to_float(y)


# ---------------------------------------------------------------------------
# constructors

def trivial_rep(source, k):
    return AlgebraRep(source, np.zeros((source.dim, k, k)), f"trivial:{k}")


def spin2_irrep(k):
    """Weight-k character realified: the so(2) generator maps to (k/2).J.

    The half-integral rate reflects the double cover: k = 2 is the
    tangent representation of the 2-sphere.
    """
    if k == 0:
        raise DescriptorError("k = 0 is the trivial weight; use trivial_rep")
    return _complex_rep(liealg.make_so(2), np.array([[[complex(0, k / 2)]]]),
                        f"spin2:{k}")


def _su2_complex(k):
    """Per-basis complex images of su(2) on degree-k polynomials.

    Basis of the space is the normalized monomial m_r = z1^r z2^(k-r) /
    sqrt(C(k,r)), r = 0..k; the action is X.p = -(dp)(Xz). Returns the
    three (k+1)x(k+1) images (one per make_su(2) basis element) and the
    antilinear structure-map matrix, m_r -> (-1)^r m_{k-r}.
    """
    a, b, c, d = _complex_images(liealg.make_su(2)).reshape(3, 4).T[:, :, None]
    # dm[r-1, r] = b sqrt(r(k-r+1)) and dm[r+1, r] = c sqrt((k-r)(r+1))
    r = np.arange(k + 1)
    w = np.sqrt(r[1:] * (k + 1 - r[1:]))
    dm = np.zeros((3, k + 1, k + 1), dtype=complex)
    dm[:, r, r] = r * a + (k - r) * d
    dm[:, r[:-1], r[1:]] = b * w
    dm[:, r[1:], r[:-1]] = c * w
    jmat = np.zeros((k + 1, k + 1), dtype=complex)
    jmat[k - r, r] = (-1) ** r
    return -dm, jmat


def su2_irrep(k):
    """Complex irreducible of su(2) with complex dimension k+1, realified."""
    if k < 0:
        raise DescriptorError("k must be nonnegative")
    images, jmat = _su2_complex(k)
    return _complex_rep(liealg.make_su(2), images, f"su2:{k}", jmat, (-1) ** k)


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
    images = q.T @ rep.images @ q
    resid = np.abs(rep.images @ q - q @ images).max(initial=0.0)
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
    # coordinates of each so(4) basis element along the two ideals: the rows
    # of _SO4_P and _SO4_Q are orthogonal, of squared norm 2 in so(4)'s
    # identity inner product
    cp, cq = ex.to_float(_SO4_P.T / 2), ex.to_float(_SO4_Q.T / 2)
    im1, j1 = _su2_complex(k1)
    im2, j2 = _su2_complex(k2)
    n1, n2 = k1 + 1, k2 + 1
    images = np.zeros((6, n1 * n2, n1 * n2), dtype=complex)
    for t in range(6):
        a = np.tensordot(cp[t], im1, axes=(0, 0))
        b = np.tensordot(cq[t], im2, axes=(0, 0))
        images[t] = np.kron(a, np.eye(n2)) + np.kron(np.eye(n1), b)
    rep = _complex_rep(liealg.make_so(4), images, f"spin4:({k1},{k2})",
                       np.kron(j1, j2), (-1) ** (k1 + k2))
    if (k1 + k2) % 2 == 0:
        return replace(real_form(rep), label=rep.label)
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
        gam = _gammas(n - 1)
        return gam + (1j * _chirality(gam),)
    gam = [1j * s1, 1j * s2]
    while len(gam) < n:
        m = gam[0].shape[0]
        new = [np.kron(s1, g) for g in gam]
        new.append(1j * np.kron(s2, np.eye(m)))
        new.append(1j * np.kron(s3, np.eye(m)))
        gam = new
    return tuple(g.copy() for g in gam)


def _chirality(gam):
    """(-i)^m g_1 ... g_2m for 2m gamma matrices."""
    omega = np.eye(gam[0].shape[0], dtype=complex) * (-1j) ** (len(gam) // 2)
    for g in gam:
        omega = omega @ g
    return omega


def spin_fundamental(n, chirality=None):
    """Spinor representation of so(n) via the Clifford construction.

    Generators go to (1/2) g_i g_j in the pair order of make_so(n). For
    even n, chirality "+" or "-" selects a half-spinor summand.
    """
    if not 3 <= n <= 8:
        raise UnsupportedDim("spin_fundamental supports 3 <= n <= 8")
    gam = _gammas(n)
    images = [0.5 * (gam[i] @ gam[j]) for i, j in pair_index(n)]
    if chirality is not None:
        if n % 2 != 0:
            raise UnsupportedDim("chiral summands exist only for even n")
        # the chirality element is real for n = 4, 6, 8, with eigenvalues
        # +1 and -1
        vals, vecs = np.linalg.eigh(_chirality(gam).real)
        q = vecs[:, vals > 0 if chirality == "+" else vals < 0]
        images = [q.T @ g @ q for g in images]
    return _complex_rep(liealg.make_so(n), np.stack(images),
                        f"spinor{chirality or ''}:{n}")


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
    return np.stack(basis)


def sym2_traceless(rep):
    """Induced action on traceless symmetric endomorphisms of the target:
    entry (t, r, c) is <basis_r, [rho_t, basis_c]>."""
    basis = _sym_traceless_basis(rep.target_dim)
    m = rep.images[:, None]
    out = np.einsum("rij,tcij->trc", basis, m @ basis - basis @ m)
    return AlgebraRep(rep.source, out, label=f"S2_0({rep.label})")


def un_det_power(n, k):
    """u(n) acting on C by k times the complex trace, realified."""
    un = liealg.make_u(n)
    images = np.zeros((un.dim, 1, 1), dtype=complex)
    images.imag[:, 0, 0] = k * np.trace(_complex_images(un).imag, axis1=1,
                                        axis2=2)
    return _complex_rep(un, images, f"det:({n},{k})")


def un_fundamental_twist(n, k):
    """Fundamental of u(n) twisted by the k-th determinant power, realified."""
    un = liealg.make_u(n)
    images = _complex_images(un)
    images.imag += k * np.trace(images.imag, axis1=1, axis2=2)[:, None, None] \
        * np.eye(n)
    return _complex_rep(un, images, f"fund:({n},{k})")


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
    k = len(rep.images)
    a = combine(np.sqrt(np.arange(2.0, k + 2)) + np.arange(k) / 7, rep.images)
    vals, q = np.linalg.eigh(a.T @ a)
    # eigenvectors accurate to about SQRT_EPS leave a commutant element cut
    # to the blocks a squared residual of about eps, under the null cutoff
    blocks = np.split(np.arange(n), 1 + np.flatnonzero(
        np.diff(vals) > SQRT_EPS * vals.max(initial=0.0)))
    rows = np.concatenate([np.repeat(b, len(b)) for b in blocks])
    cols = np.concatenate([np.tile(b, len(b)) for b in blocks])
    # normal matrix of the constraints on E_u = e_rows[u] e_cols[u]^T, for
    # skew rho_t: P = -sum_t rho_t^2 on equal columns and on equal rows, less
    # 2 rho_t[rows, rows] * rho_t[cols, cols], taken one t at a time
    rho = q.T @ rep.images @ q
    p = -(rho @ rho).sum(axis=0)
    gram = np.where(cols[:, None] == cols, p[rows][:, rows], 0.0)
    gram += np.where(rows[:, None] == rows, p[cols][:, cols], 0.0)
    for r in rho:
        gram -= 2 * r[rows][:, rows] * r[cols][:, cols]
    w, v = np.linalg.eigh(gram)
    null = v[:, w <= null_cut((k * n * n, len(rows)), w.max(initial=0.0))]
    # the unknowns are orthonormal entries and q is orthogonal, so the basis
    # stays orthonormal
    out = np.zeros((null.shape[1], n, n))
    out[:, rows, cols] = null.T
    return q @ out @ q.T


def equivalent(r1, r2):
    """True when an invertible intertwiner exists (orthogonal targets).

    Schur's lemma counted in dimensions: if r1 and r2 hold a_i and b_i
    copies of the irreducible V_i, whose commutant has dimension d_i, then
    dim C(r1) = sum a_i^2 d_i and dim C(r1 + r2) = sum (a_i + b_i)^2 d_i. So
    dim C(r1) = dim C(r2) = d and dim C(r1 + r2) = 4d exactly when
    sum (a_i - b_i)^2 d_i = 0, that is when a = b.
    """
    if r1.target_dim != r2.target_dim or r1.source.dim != r2.source.dim:
        return False
    d = len(commutant_basis(r1))
    both = AlgebraRep(r1.source, _block_diag(r1.images, r2.images))
    return len(commutant_basis(r2)) == d and len(commutant_basis(both)) == 4 * d


def classify_type(rep) -> RepType:
    """Real / complex / quaternionic classification via the commutant.

    An orthogonal rep is irreducible exactly when every symmetric element of
    its commutant is a multiple of I (Schur: the orthogonal projection onto
    a proper invariant subspace commutes and is not), and the commutant is
    then R, C or H, of dimension 1, 2 or 4. Its basis is orthonormal, so the
    symmetric traceless parts are judged at SQRT_EPS with no scale. Raises
    Reducible otherwise.
    """
    comm = commutant_basis(rep)
    cdim, n = len(comm), rep.target_dim
    kind = {1: "real", 2: "complex", 4: "quaternionic"}.get(cdim)
    if kind:
        sym = comm + comm.transpose(0, 2, 1)
        sym -= np.trace(sym, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
        if np.abs(sym).max() <= SQRT_EPS:
            return RepType(kind, cdim)
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


# atom -> (constructor, number of integer parameters); trivial:k acts on the
# source, un_*:k take n from its u(n), spinor+/- pass their chirality. Looked
# up in the module globals at call time, so wrappers installed there run.
_ATOMS = {
    "trivial": ("trivial_rep", 1), "spin2": ("spin2_irrep", 1),
    "su2": ("su2_irrep", 1), "spin4": ("spin4_irrep", 2),
    "spinor": ("spin_fundamental", 1), "spin_fund": ("spin_fundamental", 1),
    "spinor+": ("spin_fundamental", 1), "spinor-": ("spin_fundamental", 1),
    "det": ("un_det_power", 2), "un_det": ("un_det_power", 1),
    "fund": ("un_fundamental_twist", 2), "un_fund": ("un_fundamental_twist", 1),
}


def from_descriptor(desc, source=None):
    """Build a rep from a descriptor string.

    Grammar (ints may be negative where the constructor allows):
        rep      = atom | "sum(" rep { "," rep } ")" | "ext(" rep "," rep ")"
        atom     = "trivial:" int | "spin2:" int | "su2:" int
                 | "spin4:(" int "," int ")"
                 | "spinor:" int | "spinor+:" int | "spinor-:" int
                 | "spin_fund:" int
                 | "det:(" int "," int ")" | "fund:(" int "," int ")"
                 | "un_det:" int | "un_fund:" int
    The optional source argument fixes the algebra for trivial factors and
    the n of un_det:k and un_fund:k; inside ext(...), each part gets its
    factor of a product source.
    """
    desc = desc.strip()
    if desc.startswith("sum(") and desc.endswith(")"):
        parts = _split_args(desc[4:-1])
        if not parts or any(not p for p in parts):
            raise DescriptorError(f"bad sum descriptor {desc!r}")
        # trivial parts act on the source, else on the first other part's
        parsed = [None if p.startswith("trivial") else
                  from_descriptor(p, source=source) for p in parts]
        src = source or next((r.source for r in parsed if r), None)
        return reduce(direct_sum, [
            r or from_descriptor(p, source=src) for r, p in zip(parsed, parts)])
    if desc.startswith("ext(") and desc.endswith(")"):
        parts = _split_args(desc[4:-1])
        if len(parts) != 2:
            raise DescriptorError(f"ext takes exactly two reps: {desc!r}")
        factors = getattr(source, "factors", ()) or (None, None)
        return external_sum(*map(from_descriptor, parts, factors))
    name, colon, params = (p.strip() for p in desc.partition(":"))
    if not colon or name not in _ATOMS:
        raise DescriptorError(f"unknown constructor {name!r}" if colon else
                              f"cannot parse descriptor {desc!r}")
    ctor, arity = _ATOMS[name]
    pair = arity == 2 and params[:1] + params[-1:] == "()"
    parts = _split_args(params[1:-1]) if pair else [params]
    try:
        args = [int(p) for p in parts]
    except ValueError:
        args = []
    if len(args) != arity:
        form = "k" if arity == 1 else "(a,b)"
        raise DescriptorError(f"expected {name}:{form} with integer "
                              f"parameters, got {desc!r}")
    if name == "trivial":
        if args[0] < 0:
            raise DescriptorError("trivial rank must be nonnegative")
        args.insert(0, source or liealg.make_abelian(0))
    elif name.startswith("un_"):
        n = getattr(source, "complex_n", None)
        if n is None:
            raise DescriptorError(f"{name}:k needs a CP^n base to infer n")
        args.insert(0, n)
    elif name in ("spinor+", "spinor-"):
        args.append(name[-1])  # the chirality
    return globals()[ctor](*args)
