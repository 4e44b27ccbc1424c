"""Symmetric spaces as Cartan pairs, their curvature operators, and a catalog.

The tangent space at the base point is modeled by the subspace m of a
Cartan decomposition g = h + m. All brackets and the curvature operator
on Lambda^2(m) are computed exactly over the rationals; spectra use
floats. The sign convention makes the curvature operator of the unit
sphere the identity on Lambda^2 (the (1,3) curvature tensor is then
R(X,Y)Z = -[[X,Y],Z]).
"""

import functools
import re
from dataclasses import dataclass, replace

import numpy as np

from . import _exact as ex
from . import liealg, linalg
from .linalg import bivector_bracket


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
    def brackets(self):
        """g's slices [m, m] -> h and [h, m] -> m, shapes (m, m, h) and
        (h, m, m), exact, in the orthonormal frame x_a = X_a / sqrt(d_a) of
        m; h keeps its basis. A nonzero structure[i, j, k] is multiplied by
        sqrt(d_k / (d_i d_j)), with d = 1 on h; a zero one takes no root."""
        m, h, st = self.m_indices, self.h_indices, self.g.structure
        d = np.full(self.g.dim, ex.ONE, dtype=object)
        d[list(m)] = self.metric_diag
        out = st[np.ix_(m, m, h)], st[np.ix_(h, m, m)]
        for s, axes in zip(out, ((m, m, h), (h, m, m))):
            for idx in zip(*np.nonzero(s)):
                i, j, k = (ax[n] for ax, n in zip(axes, idx))  # g's indices
                try:
                    s[idx] *= ex.fsqrt(d[k] / (d[i] * d[j]))
                except ValueError as e:
                    raise ValueError(f"metric scale of bracket ({i}, {j}, {k}): {e}") from None
        return out

    @functools.cached_property
    def flat_dim(self):
        """Dimension of the Euclidean de Rham factor, {X in m : R(X, .) = 0}
        with R(X, Y) = -ad([X, Y]) on m: dim m less the exact rank of the
        integer product of the two bracket slices."""
        (mmh, _), (hmm, _) = map(ex.scale_to_int, self.brackets)
        n, k = self.m_dim, self.h_dim
        # row a of r: [[x_a, x_b], x_c] in m's frame, for every b and c
        r = ex.int_matmul(mmh.reshape(n * n, k), hmm.reshape(k, n * n)).reshape(n, n ** 3)
        return n - ex.rank(ex.int_matmul(r, r.T))

    # read-only float ad(h)|_m: ad_ref[t] x_c = sum_e ad_ref[t, e, c] x_e
    ad_ref = functools.cached_property(lambda self: _frozen(
        np.ascontiguousarray(self.brackets[1].transpose(0, 2, 1))))

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
    and inner product on h_indices, named after g with a '|h' suffix. An
    isotropy algebra with other structure constants than g's on h is a
    ValueError that names the first differing (i, j, k)."""
    h_indices = tuple(h_indices)
    m_indices = tuple(i for i in range(g.dim) if i not in h_indices)
    if sorted(h_indices + m_indices) != list(range(g.dim)):
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
    isotropy_ref = isotropy_ref or _h_algebra(g, h_indices, f"{g.name}|h")
    bad = np.argwhere(isotropy_ref.structure != st[np.ix_(h_indices, h_indices, h_indices)])
    if len(bad):
        raise ValueError(f"isotropy algebra {isotropy_ref.name} differs from h "
                         f"at {tuple(int(v) for v in bad[0])}")
    return SymmetricSpaceModel(g, h_indices, m_indices, metric_diag, name, isotropy_ref)


def _h_algebra(g, h, name):
    """h itself as an algebra: g's structure constants and inner product
    on the indices h."""
    return liealg.LieAlgebraModel(
        name, len(h), tuple(g.basis_labels[i] for i in h),
        g.structure[np.ix_(h, h, h)], g.inner_product[np.ix_(h, h)])


def curvature_operator(space) -> CurvatureOperator:
    """Exact matrix of R^M on Lambda^2(m): R^M(x_a ^ x_b) = ad([x_a, x_b])|_m.

    Built on first use and memoized on the space object, so repeated calls
    return the same operator; a new space object (dataclasses.replace,
    rescale_metric) gets its own.
    """
    return space._curvature


def _build_curvature(space):
    """R^M of space and its h_coeff, exact, R^M checked self-adjoint."""
    mmh, hmm = space.brackets
    i, j = np.triu_indices(space.m_dim, 1)  # the pair_index order
    # row p of hc: [x_a, x_b] in h; row t of biv: ad(H_t)|_m as a bivector.
    # Column p of R^M is hc[p] @ biv, multiplied, and checked self-adjoint,
    # in scaled integers
    hc, biv = mmh[i, j], hmm[:, i, j]
    num, den = ex.scale_to_int(np.concatenate([biv, hc.T], axis=1))
    prod = ex.int_matmul(num[:, :len(i)].T, num[:, len(i):])
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
    """a x b, unchecked: a product of two validated Cartan pairs is one.
    Only ext(...) reads factors, so g keeps no factors' structure alive."""
    return SymmetricSpaceModel(
        g=liealg.product_algebra(a.g, b.g), name=f"{a.name}x{b.name}",
        h_indices=a.h_indices + tuple(i + a.g.dim for i in b.h_indices),
        m_indices=a.m_indices + tuple(i + a.g.dim for i in b.m_indices),
        metric_diag=np.concatenate([a.metric_diag, b.metric_diag]),
        isotropy_ref=_isotropy_sum(a.isotropy_ref, b.isotropy_ref),
    )


def _isotropy_sum(a, b):
    """a + b as a product's isotropy algebra: a summand of dimension 0 drops
    out, and a true sum records its factors, which ext(...) reads."""
    return a if b.dim == 0 else b if a.dim == 0 else replace(
        liealg.product_algebra(a, b), factors=(a, b))


def sphere_model(n):
    """Unit round S^n as so(n+1)/so(n); curvature operator is the identity."""
    g = liealg.make_so(n + 1)
    # lexicographic pair order puts the n (0, j) generators (the m part) first
    ref = liealg.make_so(n) if n >= 2 else liealg.make_abelian(0)
    return make_symmetric_space(g, range(n, g.dim), [1] * n, f"S{n}",
                                isotropy_ref=ref)


def _cp_basis(n):
    """Basis of su(n+1) adapted to CP^n: m first (Z_1..Z_n, W_1..W_n), then h."""
    e, zero = functools.partial(liealg._eij, n=n + 1), ex.fzeros((n + 1, n + 1))
    mats = [liealg.realify(e(k, 0) - e(0, k), zero) for k in range(1, n + 1)]
    mats += [liealg.realify(zero, e(k, 0) + e(0, k)) for k in range(1, n + 1)]
    labels = [f"{s}{k}" for s in "ZW" for k in range(1, n + 1)]
    # h = { diag(-tr A, A) : A in u(n) }, from the real and imaginary parts
    un = liealg.make_u(n)
    for m in un.matrices:
        parts = [ex.fzeros((n + 1, n + 1)) for _ in range(2)]
        for b, p in zip(parts, liealg.complex_parts(m)):
            b[1:, 1:], b[0, 0] = p, -sum(p[i, i] for i in range(n))
        mats.append(liealg.realify(*parts))
    return mats, labels + [f"H.{s}" for s in un.basis_labels], un


def cp_model(n):
    """CP^n = su(n+1)/u(n), normalized to holomorphic sectional curvature 4."""
    mats, labels, un = _cp_basis(n)
    g = liealg._from_matrices(f"su({n + 1})|cp", labels, mats)
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
    mats = [np.kron(np.diag([1, s]), x) for s in (1, -1) for x in su2.matrices]
    labels = [f"{s}{i}" for s in "DA" for i in range(1, su2.dim + 1)]
    g = liealg._from_matrices("su(2)+su(2)|diag", labels, mats)
    return make_symmetric_space(g, range(su2.dim), g.inner_product.diagonal()[su2.dim:],
                                "SU2_group", isotropy_ref=su2)


def flat_model(n):
    g = liealg.make_abelian(n)
    return make_symmetric_space(g, (), [1] * n, f"R{n}",
                                isotropy_ref=liealg.make_abelian(0))


def rescale_metric(space, factor):
    """Same space with the metric on m multiplied by an exact rational factor."""
    return replace(space, metric_diag=space.metric_diag * ex.frac(factor))


# catalog families by name prefix: (what, least n, greatest n, model)
_FAMILIES = {"S": ("sphere", 2, 8, sphere_model),
             "CP": ("projective space", 1, 3, cp_model),
             "R": ("flat factor", 1, 4, flat_model)}


@functools.lru_cache(maxsize=None)
def _catalog_atom(name):
    if name == "SU2_group":
        return group_model()
    m = re.fullmatch(r"(S|CP|R)(.+)", name)
    if not (m and m[2].isdigit()):
        raise UnknownSpace(f"unknown space {name!r}")
    what, lo, hi, model = _FAMILIES[m[1]]
    if not lo <= int(m[2]) <= hi:
        raise UnknownSpace(f"{what} {name} outside catalog range "
                           f"{m[1]}{lo}..{m[1]}{hi}")
    return model(int(m[2]))


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
    """One text block: g's liealg.to_text block, the space's lines, and the
    name of its isotropy algebra, which space_from_text resolves."""
    lines = [f"space {space.name}", "h_indices " + " ".join(map(str, space.h_indices)),
             "metric " + " ".join(map(str, space.metric_diag)),
             f"isotropy algebra {space.isotropy_ref.name}"]
    return liealg.to_text(space.g) + "\n".join(lines) + "\n"


_SPELLED_DIM = dict(so=lambda n: n * (n - 1) // 2, u=lambda n: n * n,
                    su=lambda n: n * n - 1)


def _named_isotropy(name, g, h):
    """The isotropy algebra a block names, on h. A '+'-sum of so(n), u(n), su(n) and 0 is the sum of the shared make_*
    models, nested to the left as product_space nests it; a dimension other
    than len(h) is a ValueError before any model is built. Any other name
    is h itself under that name."""
    spelled = [re.fullmatch(r"(so|u|su)\((\d+)\)|0", p) for p in name.split("+")]
    if not all(spelled):
        return _h_algebra(g, h, name)
    parts = [(m[1], int(m[2])) for m in spelled if m[1]]
    dim = sum(_SPELLED_DIM[k](n) for k, n in parts)
    if dim != len(h):
        raise ValueError(f"isotropy algebra {name} has dimension {dim}, "
                         f"h has {len(h)}")
    try:
        ref = functools.reduce(_isotropy_sum, [getattr(liealg, f"make_{k}")(n)
                                               for k, n in parts], liealg.make_abelian(0))
    except ValueError as e:  # an n below make_*'s range
        raise ValueError(f"isotropy algebra {name}: {e}") from None
    return ref


def space_from_text(text):
    """Parse a space_to_text block; ValueError names the first failure.
    Without an `isotropy algebra` line, h itself is the isotropy algebra;
    other isotropy lines, which older files carry, are ignored."""
    alg = liealg.from_text(text)
    head, iso = {}, None
    for parts in map(str.split, text.splitlines()):
        if parts[:2] == ["isotropy", "algebra"]:
            iso = " ".join(parts[2:])
        elif parts[:1] not in ([], ["isotropy"]):
            head[parts[0]] = parts[1:]
    if "space" not in head or "metric" not in head:
        raise ValueError("missing space header")
    words = head.get("h_indices", [])
    line = " ".join(["h_indices", *words])
    h = tuple(liealg.number(line, v, int) for v in words)
    if len(set(h)) != len(h) or not all(0 <= i < alg.dim for i in h):
        raise ValueError(f"{line}: not distinct indices in 0..{alg.dim - 1}")
    if len(metric := head["metric"]) != alg.dim - len(h):
        raise ValueError(f"metric {' '.join(metric)}: {len(metric)} values, "
                         f"m has dimension {alg.dim - len(h)}")
    return make_symmetric_space(
        alg, h, [liealg.number("metric", v) for v in metric], " ".join(head["space"]),
        isotropy_ref=_named_isotropy(iso, alg, h) if iso else None)


def config_space(text, name):
    """The space named `name` in a config file's text, or None. Blocks end
    at lines that hold only whitespace; only the one whose last `space` line
    names the space is parsed, so other blocks' errors do not hide it."""
    for block in re.split(r"\n\s*\n", text):
        names = [p[1:] for p in map(str.split, block.splitlines())
                 if p[:1] == ["space"]]
        if names and " ".join(names[-1]) == name:
            return space_from_text(block)
    return None
