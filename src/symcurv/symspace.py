"""Symmetric spaces as Cartan pairs, their curvature operators, and a catalog.

The tangent space at the base point is modeled by the subspace m of a
Cartan decomposition g = h + m. All brackets and the curvature operator
on Lambda^2(m) are computed exactly over the rationals; spectra use
floats. The sign convention makes the curvature operator of the unit
sphere the identity on Lambda^2 (the (1,3) curvature tensor is then
R(X,Y)Z = -[[X,Y],Z]).
"""

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import _exact as ex
from . import liealg, linalg
from .linalg import (
    bivector_bracket,
    bivector_coeffs_from_skew,
    pair_index,
    project,
    row_norms,
)


class SymSpaceError(Exception):
    pass


class NotCartanPair(SymSpaceError):
    pass


class MetricNotInvariant(SymSpaceError):
    pass


class UnknownSpace(SymSpaceError):
    pass


class ContainmentViolated(SymSpaceError):
    """span[ker, Im] escaped the kernel: impossible mathematically, so a bug."""


@dataclass(frozen=True)
class SymmetricSpaceModel:
    g: liealg.LieAlgebraModel
    h_indices: tuple
    m_indices: tuple
    metric_diag: np.ndarray  # Fractions: <X_a, X_a> for the chosen m basis
    name: str
    flat_dim: int = 0
    # the isotropy algebra in h's basis: its structure constants are
    # g.structure[h, h, h]
    isotropy_ref: liealg.LieAlgebraModel | None = None

    @property
    def m_dim(self):
        return len(self.m_indices)

    @property
    def h_dim(self):
        return len(self.h_indices)

    @functools.cached_property
    def ad_h(self):
        """Exact ad(h)|_m in the orthonormal frame x_a = X_a / sqrt(d_a).

        Shape (h_dim, m_dim, m_dim): ad(H_t) x_c = sum_e ad_h[t, e, c] x_e,
        read off the slice structure[h, m, m]. The frame scale
        sqrt(d_e / d_c) is only taken where that slice is nonzero.
        """
        d = self.metric_diag
        s = self.g.structure[np.ix_(self.h_indices, self.m_indices,
                                    self.m_indices)]
        out = ex.fzeros((self.h_dim, self.m_dim, self.m_dim))
        for t, c, e in zip(*np.nonzero(s)):
            out[t, e, c] = s[t, c, e] * ex.fsqrt(d[e] / d[c])
        return out

    @functools.cached_property
    def ad_ref(self):
        """Read-only float copy of ad_h: the images of the isotropy basis."""
        out = ex.to_float(self.ad_h)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _curvature(self):
        # memo behind curvature_operator(), its only reader
        return _curvature_from_slices(self)


@dataclass
class CurvatureOperator:
    m_dim: int
    matrix: np.ndarray  # exact Fractions, lexicographic bivector basis
    h_coeff: np.ndarray  # (N_biv, h_dim) Fractions: [x_a, x_b] in the h basis
    kernel_basis: np.ndarray  # exact columns
    image_basis: np.ndarray  # exact columns

    @property
    def dim(self):
        return self.matrix.shape[0]

    @functools.cached_property
    def float_matrix(self):
        """Read-only float copy of matrix."""
        out = ex.to_float(self.matrix)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def eigendata(self):
        return linalg.eig_sym(self.float_matrix)

    def spectrum(self):
        """Clustered (eigenvalue, multiplicity) pairs, ascending."""
        return [(lam, basis.shape[1]) for lam, basis in self.eigendata.pairs]


@dataclass(frozen=True)
class ConditionAReport:
    holds: bool
    dim_kernel: int
    dim_image: int
    dim_span_bracket: int
    witness: np.ndarray | None  # kernel vector outside span of brackets, floats


def make_symmetric_space(g, h_indices, metric_diag, name, flat_dim=0,
                         isotropy_ref=None):
    """Validated Cartan pair with a diagonal Ad(h)-invariant metric on m."""
    h_indices = tuple(h_indices)
    m_indices = tuple(i for i in range(g.dim) if i not in h_indices)
    if len(h_indices) + len(m_indices) != g.dim or len(set(h_indices)) != len(h_indices):
        raise NotCartanPair("h indices do not select a subset of the basis")
    metric_diag = ex.farray(metric_diag)
    if len(metric_diag) != len(m_indices):
        raise MetricNotInvariant("metric diagonal has wrong length")
    if any(d <= 0 for d in metric_diag):
        raise MetricNotInvariant("metric diagonal must be positive")
    st = g.structure

    def check(ii, jj, outside, relation):
        bad = np.argwhere(st[np.ix_(ii, jj, outside)])
        if len(bad):
            i, j = bad[0][:2]
            raise NotCartanPair(
                f"{relation} violated by basis pair ({ii[i]}, {jj[j]})"
            )

    check(h_indices, h_indices, m_indices, "[h,h] subset h")
    check(h_indices, m_indices, h_indices, "[h,m] subset m")
    check(m_indices, m_indices, m_indices, "[m,m] subset h")

    # Ad(h)-invariance of the metric: <[H,X],Y> + <X,[H,Y]> = 0 on m
    sd = st[np.ix_(h_indices, m_indices, m_indices)] * metric_diag
    bad = np.argwhere(sd + sd.transpose(0, 2, 1))
    if len(bad):
        t, a, b = bad[0]
        raise MetricNotInvariant(
            f"metric not ad(h)-invariant at (H={h_indices[t]}, "
            f"X={m_indices[a]}, Y={m_indices[b]})"
        )
    return SymmetricSpaceModel(
        g=g, h_indices=h_indices, m_indices=m_indices, metric_diag=metric_diag,
        name=name, flat_dim=flat_dim, isotropy_ref=isotropy_ref,
    )


def curvature_operator(space) -> CurvatureOperator:
    """Exact matrix of R^M on Lambda^2(m): R^M(x_a ^ x_b) = ad([x_a, x_b])|_m.

    Built on first use and memoized on the space object, so repeated calls
    return the same operator; a new space object (dataclasses.replace,
    rescale_metric) gets its own.
    """
    return space._curvature


def _curvature_from_slices(space):
    n = space.m_dim
    d = space.metric_diag
    pairs = pair_index(n)
    # [x_a, x_b] in h coordinates for the orthonormal frame x_a = X_a / sqrt(d_a)
    bracket = space.g.structure[np.ix_(space.m_indices, space.m_indices,
                                       space.h_indices)]
    hc = ex.fzeros((len(pairs), space.h_dim))
    for p, (a, b) in enumerate(pairs):
        hc[p] = bracket[a, b] * ex.fsqrt(Fraction(1) / (d[a] * d[b]))
    # row t: ad(H_t)|_m as a bivector; column p of R^M is hc[p] @ biv,
    # multiplied in scaled integers over one common denominator
    biv = bivector_coeffs_from_skew(space.ad_h)
    num, den = ex.scale_to_int(np.concatenate([biv, hc.T], axis=1),
                               degree=2, terms=space.h_dim)
    mat = ex.from_scaled_int(num[:, :len(pairs)].T @ num[:, len(pairs):], den * den)
    if not ex.is_zero(mat - mat.T):
        raise SymSpaceError("curvature operator failed exact self-adjointness")
    kernel = ex.nullspace(mat)
    img_cols = ex.column_space(mat)
    image = mat[:, img_cols] if img_cols else ex.fzeros((len(pairs), 0))
    return CurvatureOperator(
        m_dim=n, matrix=mat, h_coeff=hc, kernel_basis=kernel, image_basis=image,
    )


def isotropy_rep(space):
    """pi-hat as an AlgebraRep on the isotropy algebra: the image of its
    basis element H_t is ad(H_t)|_m."""
    from .reps import AlgebraRep  # local import to avoid a cycle

    ref = space.isotropy_ref
    if ref is None:
        return AlgebraRep(source=liealg.make_abelian(0),
                          images=np.zeros((0, space.m_dim, space.m_dim)),
                          label="tangent")
    return AlgebraRep(source=ref, images=space.ad_ref, label="tangent")


def condition_a(space) -> ConditionAReport:
    """Exact-rational check of span[ker R^M, Im R^M] = ker R^M."""
    curv = curvature_operator(space)
    ker = curv.kernel_basis
    img = curv.image_basis
    dim_ker = ker.shape[1]
    dim_img = img.shape[1]
    if dim_ker == 0:
        return ConditionAReport(True, 0, dim_img, 0, None)
    bmat = _bracket_matrix(ker, img, space.m_dim)
    if ex.rank(np.concatenate([ker, bmat], axis=1)) > dim_ker:
        raise ContainmentViolated("[ker, Im] escaped ker R^M")
    dim_span = ex.rank(bmat)
    holds = dim_span == dim_ker
    witness = None
    if not holds:
        # kernel vector orthogonal to the bracket span, which B's top
        # dim_span left singular vectors span (a QR of a wide B spans R^N)
        kf = ex.to_float(ker)
        q = np.linalg.svd(ex.to_float(bmat), full_matrices=False)[0][:, :dim_span]
        resid = kf - q @ (q.T @ kf)
        col = int(np.argmax(np.linalg.norm(resid, axis=0)))
        w = resid[:, col]
        witness = w / np.linalg.norm(w)
    return ConditionAReport(holds, dim_ker, dim_img, dim_span, witness)


def _bracket_matrix(ker, img, n):
    """Exact bivector columns [ker_a, im_b], column a * img.shape[1] + b.

    Both bases are scaled to integers over one denominator; all their
    brackets are then taken at once.
    """
    num, den = ex.scale_to_int(np.concatenate([ker, img], axis=1),
                               degree=2, terms=2 * n)
    k, i = num[:, : ker.shape[1]].T, num[:, ker.shape[1]:].T
    comm = bivector_bracket(k[:, None], i[None], n)
    return ex.from_scaled_int(comm.reshape(-1, num.shape[0]).T, den * den)


def eigenspace_structure_residuals(curv):
    """Residuals of the eigenspace bracket structure of R^M.

    Returns the worst-case residuals of: (a) each nonzero eigenspace being
    closed under the bracket, (b) distinct nonzero eigenspaces commuting,
    and (c) the image being closed under the bracket. The kernel is NOT
    required to be closed and is not checked.
    """
    n = curv.m_dim
    nonzero = [(lam, b) for lam, b in curv.eigendata.pairs if lam != 0.0]

    def brackets(ba, bb):  # rows: [a_i, b_j] for every column pair
        return bivector_bracket(ba.T[:, None], bb.T[None], n).reshape(-1, len(ba))

    def off_span(vecs, basis):
        return float(row_norms(project(basis, vecs)[1]).max(initial=0.0))

    sub = 0.0
    comm = 0.0
    for i, (_, ba) in enumerate(nonzero):
        sub = max(sub, off_span(brackets(ba, ba), ba))
        for _, bb in nonzero[i + 1 :]:
            comm = max(comm, float(row_norms(brackets(ba, bb)).max(initial=0.0)))
    if nonzero:
        image = np.concatenate([b for _, b in nonzero], axis=1)
        closed = off_span(brackets(image, image), image)
    else:
        closed = 0.0
    return {"subalgebra": sub, "commuting": comm, "image_closed": closed}


def product_space(a, b) -> SymmetricSpaceModel:
    g = liealg.product_algebra(a.g, b.g)
    h_idx = tuple(a.h_indices) + tuple(i + a.g.dim for i in b.h_indices)
    metric = np.concatenate([a.metric_diag, b.metric_diag])
    ref_a, ref_b = a.isotropy_ref, b.isotropy_ref
    # a factor with h but no isotropy algebra leaves the product without one
    if b.h_dim == 0:
        ref = ref_a
    elif a.h_dim == 0:
        ref = ref_b
    elif ref_a is None or ref_b is None:
        ref = None
    else:
        ref = liealg.product_algebra(ref_a, ref_b)
    return make_symmetric_space(
        g, h_idx, metric, f"{a.name}x{b.name}",
        flat_dim=a.flat_dim + b.flat_dim, isotropy_ref=ref,
    )


def sphere_model(n):
    """Unit round S^n as so(n+1)/so(n); curvature operator is the identity."""
    g = liealg.make_so(n + 1)
    # lexicographic pair order puts the (0, j) generators (the m part) first
    m_count = n
    h_idx = tuple(range(m_count, g.dim))
    ref = liealg.make_so(n) if n >= 2 else liealg.make_abelian(0)
    return make_symmetric_space(g, h_idx, [1] * m_count, f"S{n}",
                                isotropy_ref=ref)


def _cp_basis(n):
    """Basis of su(n+1) adapted to CP^n: m first (Z_1..Z_n, W_1..W_n), then h."""
    zero = ex.fzeros((n + 1, n + 1))
    mats, labels = [], []
    for k in range(n):
        x = ex.fzeros((n + 1, n + 1))
        x[k + 1, 0] = ex.ONE
        x[0, k + 1] = -ex.ONE
        mats.append(liealg.realify(x, zero))
        labels.append(f"Z{k + 1}")
    for k in range(n):
        y = ex.fzeros((n + 1, n + 1))
        y[k + 1, 0] = ex.ONE
        y[0, k + 1] = ex.ONE
        mats.append(liealg.realify(zero, y))
        labels.append(f"W{k + 1}")
    # h = { diag(-tr A, A) : A in u(n) }
    un = liealg.make_u(n)
    for t, m in enumerate(un.matrices):
        x, y = liealg.complex_parts(m)
        bx = ex.fzeros((n + 1, n + 1))
        by = ex.fzeros((n + 1, n + 1))
        bx[1:, 1:] = x
        by[1:, 1:] = y
        bx[0, 0] = -sum(x[i, i] for i in range(n))
        by[0, 0] = -sum(y[i, i] for i in range(n))
        mats.append(liealg.realify(bx, by))
        labels.append(f"H.{un.basis_labels[t]}")
    return mats, labels, un


def cp_model(n):
    """CP^n = su(n+1)/u(n), normalized to holomorphic sectional curvature 4."""
    mats, labels, un = _cp_basis(n)
    g = liealg._from_matrices(f"su({n + 1})|cp", labels, mats, complex_n=n + 1)
    h_idx = tuple(range(2 * n, g.dim))
    base = g.inner_product[0, 0]  # uniform on m by construction
    space = make_symmetric_space(g, h_idx, [base] * (2 * n), f"CP{n}",
                                 isotropy_ref=un)
    # rescale so that K(Z_1, W_1) = 4; sectional curvature scales as 1/c
    curv = curvature_operator(space)
    p = pair_index(2 * n).index((0, n))
    khol = curv.matrix[p, p]
    scale = khol / 4
    return make_symmetric_space(g, h_idx, [base * scale] * (2 * n), f"CP{n}",
                                isotropy_ref=un)


def group_model():
    """SU(2) as a symmetric space: G = SU(2) x SU(2), H the diagonal."""
    su2 = liealg.make_su(2)
    g0 = liealg.product_algebra(su2, su2)
    d = su2.dim
    p = ex.fzeros((2 * d, 2 * d))
    labels = []
    for i in range(d):  # diagonal copy spans h
        p[i, i] = ex.ONE
        p[i, d + i] = ex.ONE
        labels.append(f"D{i + 1}")
    for i in range(d):  # antidiagonal copy spans m
        p[d + i, i] = ex.ONE
        p[d + i, d + i] = -ex.ONE
        labels.append(f"A{i + 1}")
    g = liealg.change_basis(g0, p, name="su(2)+su(2)|diag", labels=labels)
    metric = [g.inner_product[d + i, d + i] for i in range(d)]
    return make_symmetric_space(g, tuple(range(d)), metric, "SU2_group",
                                isotropy_ref=su2)


def flat_model(n):
    g = liealg.make_abelian(n)
    return make_symmetric_space(g, (), [1] * n, f"R{n}", flat_dim=n,
                                isotropy_ref=liealg.make_abelian(0))


def rescale_metric(space, factor):
    """Same space with the metric on m multiplied by an exact rational factor."""
    return replace(space, metric_diag=space.metric_diag * ex.frac(factor))


@functools.lru_cache(maxsize=None)
def _catalog_atom(name):
    if name.startswith("S") and name[1:].isdigit():
        n = int(name[1:])
        if 2 <= n <= 8:
            return sphere_model(n)
        raise UnknownSpace(f"sphere {name} outside catalog range S2..S8")
    if name.startswith("CP") and name[2:].isdigit():
        n = int(name[2:])
        if 1 <= n <= 3:
            return cp_model(n)
        raise UnknownSpace(f"projective space {name} outside catalog range CP1..CP3")
    if name.startswith("R") and name[1:].isdigit():
        n = int(name[1:])
        if 1 <= n <= 4:
            return flat_model(n)
        raise UnknownSpace(f"flat factor {name} outside catalog range R1..R4")
    if name == "SU2_group":
        return group_model()
    raise UnknownSpace(f"unknown space {name!r}")


def catalog(name):
    """Catalog lookup; product spaces are spelled with 'x' or a multiplication sign."""
    name = name.strip().replace("×", "x")
    parts = [p.strip() for p in name.split("x")]
    if not parts or any(not p for p in parts):
        raise UnknownSpace(f"cannot parse space name {name!r}")
    space = _catalog_atom(parts[0])
    for p in parts[1:]:
        space = product_space(space, _catalog_atom(p))
    return space


def space_to_text(space):
    """One text block; the isotropy algebra, in h's basis, is embedded as
    its own liealg.to_text block with every line prefixed by 'isotropy'."""
    lines = [liealg.to_text(space.g).rstrip()]
    lines.append(f"space {space.name}")
    lines.append("h_indices " + " ".join(str(i) for i in space.h_indices))
    lines.append("metric " + " ".join(str(v) for v in space.metric_diag))
    lines.append(f"flat_dim {space.flat_dim}")
    if space.isotropy_ref is not None:
        lines += ["isotropy " + line
                  for line in liealg.to_text(space.isotropy_ref).splitlines()]
    return "\n".join(lines) + "\n"


def _check_algebra(alg):
    report = liealg.validate(alg)
    if not report.ok:
        check, idx = report.witness
        raise ValueError(f"algebra {alg.name} fails {check} at {idx}")


def space_from_text(text):
    """Parse a space_to_text block. The algebra, and the isotropy algebra
    against h, are checked: ValueError names the first failure."""
    alg = liealg.from_text(text)
    head, iso = {}, []
    for raw in text.splitlines():
        parts = raw.split()
        if parts[:1] == ["isotropy"]:
            iso.append(" ".join(parts[1:]))
        elif parts:
            head[parts[0]] = parts[1:]
    if "space" not in head or "metric" not in head:
        raise ValueError("missing space header")
    _check_algebra(alg)
    h = tuple(int(v) for v in head.get("h_indices", ()))
    ref = liealg.from_text("\n".join(iso)) if iso else None
    flat_dim = liealg.header_int(head, "flat_dim") if "flat_dim" in head else 0
    space = make_symmetric_space(
        alg, h, [Fraction(v) for v in head["metric"]], " ".join(head["space"]),
        flat_dim=flat_dim, isotropy_ref=ref)
    if ref is not None:
        if ref.dim != len(h):
            raise ValueError(f"isotropy algebra {ref.name} has dimension "
                             f"{ref.dim}, h has {len(h)}")
        bad = np.argwhere(ref.structure != alg.structure[np.ix_(h, h, h)])
        if len(bad):
            raise ValueError(f"isotropy algebra {ref.name} differs from h at "
                             f"{tuple(int(v) for v in bad[0])}")
        _check_algebra(ref)
    return space
