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

import numpy as np

from . import _exact as ex
from . import liealg, linalg
from .linalg import bivector_bracket, bivector_coeffs_from_skew, pair_index


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


def _frozen(a):
    """Read-only float copy of an exact array."""
    out = ex.to_float(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SymmetricSpaceModel:
    g: liealg.LieAlgebraModel
    h_indices: tuple
    m_indices: tuple
    metric_diag: np.ndarray  # Fractions: <X_a, X_a> for the chosen m basis
    name: str
    # the isotropy algebra in h's basis: its structure constants are
    # g.structure[h, h, h]
    isotropy_ref: liealg.LieAlgebraModel

    @property
    def m_dim(self):
        return len(self.m_indices)

    @property
    def h_dim(self):
        return len(self.h_indices)

    @functools.cached_property
    def flat_dim(self):
        """Dimension of the Euclidean de Rham factor, {X in m : R(X, .) = 0}
        with R(X, Y) = -ad([X, Y]) on m: dim m less the exact rank of the
        integer product of the slices [m, m] -> h and [h, m] -> m."""
        m, h, n, k = self.m_indices, self.h_indices, self.m_dim, self.h_dim
        mmh, _ = ex.scale_to_int(self.g.structure[np.ix_(m, m, h)])
        hmm, _ = ex.scale_to_int(self.g.structure[np.ix_(h, m, m)])
        # row a of r: [[X_a, X_b], X_c] in m's basis, for every b and c
        r = ex.int_matmul(mmh.reshape(n * n, k), hmm.reshape(k, n * n)).reshape(n, n ** 3)
        return n - ex.rank(ex.int_matmul(r, r.T))

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

    # read-only float ad_h: the images of the isotropy basis
    ad_ref = functools.cached_property(lambda self: _frozen(self.ad_h))

    @functools.cached_property
    def holonomy(self):
        """Im R^M as bundles.Holonomy, once per space; info never loads it."""
        from .bundles import build_holonomy  # local import to avoid a cycle
        return build_holonomy(self)

    # memo behind curvature_operator() and holonomy
    _curvature = functools.cached_property(lambda self: _build_curvature(self))


@dataclass
class CurvatureOperator:
    m_dim: int
    matrix: np.ndarray  # exact Fractions, lexicographic bivector basis
    h_coeff: np.ndarray  # (N_biv, h_dim) Fractions: [x_a, x_b] in the h basis
    kernel_basis: np.ndarray  # exact columns
    image_cols: list  # R^M's pivot columns: image_basis[:, s] = R^M e_{c_s}

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def image_basis(self):
        """Exact columns spanning Im R^M: R^M's pivot columns."""
        return self.matrix[:, self.image_cols]

    @functools.cached_property
    def kappa(self):
        """k when R^M = k I exactly, else None."""
        k = self.matrix[0, 0] if self.dim else ex.ZERO
        return k if ex.is_zero(self.matrix - k * ex.feye(self.dim)) else None

    # read-only float copies, made once per space and shared by its bundles
    float_matrix = functools.cached_property(lambda self: _frozen(self.matrix))
    float_kernel = functools.cached_property(
        lambda self: _frozen(self.kernel_basis))
    float_h_coeff = functools.cached_property(lambda self: _frozen(self.h_coeff))

    @functools.cached_property
    def eigendata(self):
        return linalg.eig_sym(self.float_matrix)

    def spectrum(self):
        """Clustered (eigenvalue, multiplicity) pairs, ascending."""
        return [(lam, basis.shape[1]) for lam, basis in self.eigendata]


@dataclass(frozen=True)
class ConditionAReport:
    holds: bool
    dim_kernel: int
    dim_image: int
    dim_span_bracket: int
    witness: np.ndarray | None  # kernel vector outside span of brackets, floats


def make_symmetric_space(g, h_indices, metric_diag, name, isotropy_ref=None):
    """Validated Cartan pair with a diagonal Ad(h)-invariant metric on m.
    Without an isotropy algebra, h itself is one: g's structure constants
    and inner product on h_indices, named after g with a '|h' suffix."""
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
    h = h_indices
    isotropy_ref = isotropy_ref or liealg.LieAlgebraModel(
        f"{g.name}|h", len(h), tuple(g.basis_labels[i] for i in h),
        st[np.ix_(h, h, h)], g.inner_product[np.ix_(h, h)])
    return SymmetricSpaceModel(
        g=g, h_indices=h_indices, m_indices=m_indices, metric_diag=metric_diag,
        name=name, isotropy_ref=isotropy_ref,
    )


def curvature_operator(space) -> CurvatureOperator:
    """Exact matrix of R^M on Lambda^2(m): R^M(x_a ^ x_b) = ad([x_a, x_b])|_m.

    Built on first use and memoized on the space object, so repeated calls
    return the same operator; a new space object (dataclasses.replace,
    rescale_metric) gets its own.
    """
    return space._curvature


def _build_curvature(space):
    """R^M of space and its h_coeff, exact, R^M checked self-adjoint."""
    d = space.metric_diag
    pairs = pair_index(space.m_dim)
    # [x_a, x_b] in h coordinates for the orthonormal frame x_a = X_a / sqrt(d_a)
    bracket = space.g.structure[np.ix_(space.m_indices, space.m_indices,
                                       space.h_indices)]
    hc = ex.fzeros((len(pairs), space.h_dim))
    for p, (a, b) in enumerate(pairs):
        hc[p] = bracket[a, b] * ex.fsqrt(ex.ONE / (d[a] * d[b]))
    # row t: ad(H_t)|_m as a bivector; column p of R^M is hc[p] @ biv,
    # multiplied, and checked self-adjoint, in scaled integers
    biv = bivector_coeffs_from_skew(space.ad_h)
    num, den = ex.scale_to_int(np.concatenate([biv, hc.T], axis=1))
    prod = ex.int_matmul(num[:, :len(pairs)].T, num[:, len(pairs):])
    if np.count_nonzero(prod - prod.T):
        raise SymSpaceError("curvature operator failed exact self-adjointness")
    mat = ex.from_scaled_int(prod, den * den)
    return CurvatureOperator(space.m_dim, mat, hc, *ex.nullspace(mat))


def isotropy_rep(space):
    """pi-hat as an AlgebraRep on the isotropy algebra: the image of its
    basis element H_t is ad(H_t)|_m."""
    from .reps import AlgebraRep  # local import to avoid a cycle
    return AlgebraRep(space.isotropy_ref, space.ad_ref, label="tangent")


def condition_a(space) -> ConditionAReport:
    """Exact check of span[ker R^M, Im R^M] = ker R^M.

    Each x in Im R^M acts on Lambda^2 by the bracket [., x], which is
    skew-adjoint. Once [k, x] . img = 0 shows that the brackets stay in
    ker R^M = (Im R^M)^perp (R^M is symmetric), their span is the
    complement, in ker R^M, of the kernel vectors that commute with every x:
    ker @ c for c in the null space of the integer Gram G = sum_x A_x A_x^T,
    where row i of A_x is [ker_i, x].
    """
    curv = curvature_operator(space)
    ker, img = curv.kernel_basis, curv.image_basis
    dim_ker, dim_img = ker.shape[1], img.shape[1]
    if dim_ker == 0:
        return ConditionAReport(True, 0, dim_img, 0, None)
    num, _ = ex.scale_to_int(np.concatenate([ker, img], axis=1))
    knum, inum = num[:, :dim_ker].T, num[:, dim_ker:]
    gram = np.zeros((dim_ker, dim_ker), dtype=object)  # Python ints never wrap
    for x in inum.T:
        a = bivector_bracket(knum, x, space.m_dim)
        if ex.int_matmul(a, inum).any():
            raise ContainmentViolated("[ker, Im] escaped ker R^M")
        gram += ex.int_matmul(a, a.T)
    null, _ = ex.nullspace(gram)
    witness = None
    if null.shape[1]:
        w = ex.to_float(np.dot(ker, null[:, 0]))
        witness = w / np.linalg.norm(w)
    return ConditionAReport(not null.shape[1], dim_ker, dim_img,
                            dim_ker - null.shape[1], witness)


def product_space(a, b) -> SymmetricSpaceModel:
    """a x b, unchecked: a product of two validated Cartan pairs is one."""
    # only ext(...) reads factors, so g keeps no factors' structure alive
    g = liealg.product_algebra(a.g, b.g)
    ref_a, ref_b = a.isotropy_ref, b.isotropy_ref
    ref = ref_a if b.h_dim == 0 else ref_b if a.h_dim == 0 else replace(
        liealg.product_algebra(ref_a, ref_b), factors=(ref_a, ref_b))
    return SymmetricSpaceModel(
        g=g, name=f"{a.name}x{b.name}",
        h_indices=a.h_indices + tuple(i + a.g.dim for i in b.h_indices),
        m_indices=a.m_indices + tuple(i + a.g.dim for i in b.m_indices),
        metric_diag=np.concatenate([a.metric_diag, b.metric_diag]),
        isotropy_ref=ref,
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
    base, zw = g.inner_product[0, 0], g.structure[0, n]  # base: uniform on m
    # at metric base, K(Z_1, W_1) = <[Z_1, W_1], [Z_1, W_1]> / base^2; it
    # scales as 1/c, so c = K / 4 makes it 4
    c = np.dot(np.dot(zw, g.inner_product), zw) / (base * base) / 4
    return make_symmetric_space(g, h_idx, [base * c] * (2 * n), f"CP{n}",
                                isotropy_ref=un)


def group_model():
    """SU(2) as a symmetric space: G = SU(2) x SU(2), H the diagonal. The
    basis is diag(X, X) (D1..D3, spanning h), then diag(X, -X) (A1..A3)."""
    su2 = liealg.make_su(2)
    d = su2.dim
    mats = [np.kron(np.diag([1, s]), x) for s in (1, -1) for x in su2.matrices]
    labels = [f"D{i + 1}" for i in range(d)] + [f"A{i + 1}" for i in range(d)]
    g = liealg._from_matrices("su(2)+su(2)|diag", labels, mats)
    metric = [g.inner_product[d + i, d + i] for i in range(d)]
    return make_symmetric_space(g, tuple(range(d)), metric, "SU2_group",
                                isotropy_ref=su2)


def flat_model(n):
    g = liealg.make_abelian(n)
    return make_symmetric_space(g, (), [1] * n, f"R{n}",
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
    line = " ".join(["h_indices", *head.get("h_indices", ())])
    h = tuple(liealg.number(line, v, int) for v in head.get("h_indices", ()))
    if len(set(h)) != len(h) or not all(0 <= i < alg.dim for i in h):
        raise ValueError(f"{line}: not distinct indices in 0..{alg.dim - 1}")
    ref = liealg.from_text("\n".join(iso)) if iso else None
    space = make_symmetric_space(
        alg, h, [liealg.number("metric", v) for v in head["metric"]],
        " ".join(head["space"]), isotropy_ref=ref)
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
