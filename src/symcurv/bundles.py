"""Induced bundle curvature, holonomy-map reconstruction, characteristic
numbers, and the parallel-bundle classifier.

The curvature of the bundle attached to a representation rho is
R^E = rho o pihat^{-1} o R^M; on basis bivectors this is rho applied to the
bracket of the corresponding orthonormal frame vectors. All the structural
facts (the bracket identity, kernel inclusion, reconstruction of rho from
the pair of curvatures) follow from that formula and are re-verified
numerically rather than trusted.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _exact as ex
from . import reps as rp
from . import symspace as ss
from .linalg import (
    CHECK_TOL,
    INTEGRALITY_TOL,
    RECOVER_TOL,
    SQRT_EPS,
    NotInImage,
    bivector_bracket,
    bivector_coeffs_from_skew,
    combine,
    pair_index,
    project,
    row_norms,
    solve_on_image,
)
from .reps import SourceMismatch


class BundleError(Exception):
    pass


class KernelNotIncluded(BundleError):
    pass


class NotHomomorphism(BundleError):
    def __init__(self, msg, residual):
        super().__init__(f"{msg} (residual {residual:.3e})")
        self.residual = residual


class UnsupportedBase(BundleError):
    pass


class UnsupportedSpace(BundleError):
    pass


@dataclass(frozen=True)
class InducedBundle:
    space: ss.SymmetricSpaceModel
    rep: rp.AlgebraRep
    blocks: np.ndarray  # (N_biv, k, k): R^E on each basis bivector
    curv: ss.CurvatureOperator = field(repr=False)

    @property
    def rank(self):
        return self.blocks.shape[1]

    def value(self, coeffs):
        """R^E applied to a bivector given by coefficients (or to each row
        of a stack of them)."""
        return combine(np.asarray(coeffs, dtype=float), self.blocks)


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    max_residual: float
    witness: tuple | None = None


@dataclass(frozen=True)
class RecoveredHom:
    space: ss.SymmetricSpaceModel
    image_basis: np.ndarray  # (N_biv, r): orthonormal basis of Im R^M
    images: np.ndarray  # (r, k, k): rho-hat on that basis
    hom_residual: float

    def as_rep(self):
        """rho-hat composed with the isotropy identification: a rep of the
        isotropy algebra (of the zero algebra when the space has
        none)."""
        tangent = ss.isotropy_rep(self.space)
        biv = bivector_coeffs_from_skew(tangent.images)
        coeffs, off = project(self.image_basis, biv)
        if np.any(row_norms(off) > SQRT_EPS * row_norms(biv)):
            raise NotInImage("isotropy image is not contained in Im R^M")
        return rp.AlgebraRep(tangent.source, combine(coeffs, self.images),
                             label="recovered")


def check_source(space, rep):
    """Raise SourceMismatch unless rep acts on the isotropy algebra of space."""
    ref = space.isotropy_ref
    ref_name = ref.name if ref is not None else None
    if rep.source.name != ref_name or rep.source.dim != (ref.dim if ref else -1):
        raise SourceMismatch(
            f"rep source {rep.source.name!r} does not match isotropy algebra "
            f"{ref_name!r} of {space.name}")


def induce(space, rep) -> InducedBundle:
    """Curvature of the bundle attached to rep via R^E = rho o pihat^-1 o R^M."""
    check_source(space, rep)
    curv = ss.curvature_operator(space)
    blocks = combine(ex.to_float(curv.h_coeff), rep.images)
    return InducedBundle(space=space, rep=rep, blocks=blocks, curv=curv)


def bracket_residuals(bundle, a, b):
    """Residuals of R^E[R^M a, b] = [R^E a, R^E b] for each row pair
    (a[i], b[i]) of bivector coefficients, in stacked products."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rma = (bundle.curv.float_matrix @ a[..., None])[..., 0]
    lhs = bundle.value(bivector_bracket(rma, b, bundle.space.m_dim))
    ra, rb = bundle.value(a), bundle.value(b)
    return np.abs(lhs - (ra @ rb - rb @ ra)).max(axis=(-2, -1), initial=0.0)


def bracket_identity_residual(bundle, a, b):
    """Residual of R^E[R^M a, b] = [R^E a, R^E b] for bivectors a, b."""
    return float(bracket_residuals(bundle, [a], [b])[0])


def check_bracket_identity(bundle, tol=None) -> IdentityReport:
    """Lemma-style bracket identity over all basis bivector pairs."""
    tol = CHECK_TOL if tol is None else tol
    nb = bundle.blocks.shape[0]
    eye = np.eye(nb)
    res = bracket_residuals(bundle, np.repeat(eye, nb, axis=0),
                            np.tile(eye, (nb, 1)))
    worst = float(res.max(initial=0.0))
    witness = divmod(int(res.argmax()), nb) if worst > tol else None
    return IdentityReport(worst <= tol, worst, witness)


def check_kernel_inclusion(bundle, tol=None) -> IdentityReport:
    """ker R^M subset ker R^E, tested on the exact kernel basis."""
    tol = CHECK_TOL if tol is None else tol
    ker = ex.to_float(bundle.curv.kernel_basis)
    res = np.abs(bundle.value(ker.T)).max(axis=(-2, -1), initial=0.0)
    worst = float(res.max(initial=0.0))
    witness = int(res.argmax()) if worst > tol else None
    return IdentityReport(worst <= tol, worst, witness)


def recover_rho_hat(space, blocks) -> RecoveredHom:
    """Reconstruct rho-hat = R^E o (R^M)^{-1} on Im R^M and validate it.

    blocks is the candidate bundle curvature on basis bivectors. Raises
    KernelNotIncluded when the candidate does not kill ker R^M and
    NotHomomorphism when the reconstructed map fails to be a Lie algebra
    homomorphism on the holonomy algebra.
    """
    tol = RECOVER_TOL
    curv = ss.curvature_operator(space)
    blocks = np.asarray(blocks, dtype=float)
    scale = max(1.0, np.abs(blocks).max(initial=0.0))
    ker = ex.to_float(curv.kernel_basis)
    on_ker = np.abs(combine(ker.T, blocks)).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(on_ker > tol * scale)
    if len(bad):
        raise KernelNotIncluded(
            f"candidate curvature does not vanish on ker R^M "
            f"(kernel vector {bad[0]})")
    img = ex.to_float(curv.image_basis)
    if img.shape[1]:
        img, _ = np.linalg.qr(img)
    images = np.zeros((img.shape[1], blocks.shape[1], blocks.shape[1]))
    for t in range(img.shape[1]):
        images[t] = combine(solve_on_image(curv.eigendata, img[:, t]), blocks)
    # homomorphism residual on the holonomy algebra, over all pairs i < j
    i, j = np.triu_indices(img.shape[1], 1)
    coeffs, off = project(img, bivector_bracket(img.T[i], img.T[j], space.m_dim))
    rhs = images[i] @ images[j] - images[j] @ images[i]
    worst = max(float(row_norms(off).max(initial=0.0)),
                float(np.abs(combine(coeffs, images) - rhs).max(initial=0.0)))
    if worst > tol * max(1.0, scale * scale):
        raise NotHomomorphism("reconstructed map is not a homomorphism", worst)
    return RecoveredHom(space=space, image_basis=img, images=images,
                        hom_residual=worst)


def roundtrip_residual(bundle):
    """max |rho_back - rho| for the rep recovered from the bundle's
    curvature, or None when the reconstruction fails."""
    try:
        back = recover_rho_hat(bundle.space, bundle.blocks).as_rep()
    except (BundleError, NotInImage):
        return None
    return float(np.abs(back.images - bundle.rep.images).max(initial=0.0))


# ---------------------------------------------------------------------------
# characteristic numbers

@dataclass(frozen=True)
class CharClassReport:
    base: str
    rank: int
    euler: float | None
    p1: float | None
    c1: float | None = None
    c2: float | None = None
    tolerance: float = INTEGRALITY_TOL

    def integral(self):
        vals = [v for v in (self.euler, self.p1, self.c1, self.c2)
                if v is not None]
        return all(abs(v - round(v)) <= self.tolerance for v in vals)

    def to_dict(self):
        return {
            "base": self.base, "rank": self.rank, "euler": self.euler,
            "p1": self.p1, "c1": self.c1, "c2": self.c2,
        }


def _base_geometry(space, curv):
    """(dimension, sectional curvature K) for round 2- and 4-dim bases."""
    n = space.m_dim
    if n not in (2, 4):
        raise UnsupportedBase(f"{space.name}: base must be 2- or 4-dimensional")
    mat = curv.matrix
    k = mat[0, 0]
    if not ex.is_zero(mat - k * ex.feye(mat.shape[0])) or k <= 0:
        raise UnsupportedBase(
            f"{space.name}: curvature operator is not a positive multiple "
            f"of the identity")
    return n, float(k)


_PARTS4 = (((0, 1), (2, 3), 1.0), ((0, 2), (1, 3), -1.0), ((0, 3), (1, 2), 1.0))


def _frame_form(bundle):
    pairs = pair_index(bundle.space.m_dim)
    idx = {p: i for i, p in enumerate(pairs)}

    def f(a, b):
        if a == b:
            return np.zeros((bundle.rank, bundle.rank))
        if a < b:
            return bundle.blocks[idx[(a, b)]]
        return -bundle.blocks[idx[(b, a)]]

    return f


def _complex_trace(m, jc):
    return 0.5 * (np.trace(m) - 1j * np.trace(jc @ m))


def characteristic_numbers(bundle, tolerance=INTEGRALITY_TOL) -> CharClassReport:
    """Chern-Weil numbers by density-at-a-point times volume.

    Supported bases are round 2- and 4-dimensional catalog spaces (unit or
    rescaled spheres, CP^1). Euler numbers need rank 2 over a surface and
    rank 4 over a 4-dimensional base; p1 is computed over any 4-dimensional
    base; c1 (surface) and c2 (4-dimensional base) need a complex structure.
    """
    space, rep = bundle.space, bundle.rep
    n, kappa = _base_geometry(space, bundle.curv)
    f = _frame_form(bundle)
    jc = rep.complex_structure
    euler = p1 = c1 = c2 = None
    if n == 2:
        vol = 4 * math.pi / kappa
        f12 = f(0, 1)
        if bundle.rank == 2:
            euler = f12[1, 0] * vol / (2 * math.pi)
        if jc is not None:
            tr = _complex_trace(f12, jc)
            c1 = tr.imag * vol / (2 * math.pi)
    else:
        vol = (8 * math.pi ** 2 / 3) / kappa ** 2
        trff = sum(2 * s * np.trace(f(*p) @ f(*q)) for p, q, s in _PARTS4)
        p1 = -trff * vol / (8 * math.pi ** 2)
        if bundle.rank == 4:
            pf = sum(s * (_pf4_bilinear(f(*p), f(*q))) for p, q, s in _PARTS4)
            euler = pf * vol / (4 * math.pi ** 2)
        if jc is not None:
            trcff = sum(2 * s * _complex_trace(f(*p) @ f(*q), jc)
                        for p, q, s in _PARTS4)
            trc1 = sum(2 * s * _complex_trace(f(*p), jc)
                       * _complex_trace(f(*q), jc) for p, q, s in _PARTS4)
            val = (trcff - trc1) * vol / (8 * math.pi ** 2)
            if abs(val.imag) > tolerance:
                raise BundleError("c2 density has a nonreal value")
            c2 = val.real
    return CharClassReport(base=space.name, rank=bundle.rank, euler=euler,
                           p1=p1, c1=c1, c2=c2, tolerance=tolerance)


def _pf4_bilinear(a, b):
    return _pf4_polarized(a, b) + _pf4_polarized(b, a)


def _pf4_polarized(a, b):
    return a[0, 1] * b[2, 3] - a[0, 2] * b[1, 3] + a[0, 3] * b[1, 2]


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class BundleReport:
    label: str
    rank: int
    rep_type: str
    components: tuple
    char: CharClassReport | None
    bracket_ok: bool
    kernel_ok: bool
    roundtrip_ok: bool

    def to_dict(self):
        return {
            "label": self.label, "rank": self.rank, "type": self.rep_type,
            "components": list(self.components),
            "char": None if self.char is None else self.char.to_dict(),
            "verified": {
                "bracket_identity": self.bracket_ok,
                "kernel_inclusion": self.kernel_ok,
                "reconstruction_roundtrip": self.roundtrip_ok,
            },
        }


_IRREP_CATALOG = {("so(2)", 2): "S2", ("so(3)", 3): "S3", ("so(4)", 4): "S4",
                  ("so(5)", 5): "S5", ("u(1)", 2): "CP1", ("u(2)", 4): "CP2"}


def catalog_irreps(space, rank_bound, weight_cap=6):
    """Irreducible candidates (descriptor, rep) with real rank <= rank_bound,
    pairwise inequivalent by construction.

    weight_cap bounds the circle weights k admitted for so(2) and u(1)/u(2)
    sources, where infinitely many irreps share each rank.
    """
    # keyed on the isotropy algebra, so a renamed or --config copy of a
    # catalog space gets that space's irreps
    ref = space.isotropy_ref
    name = _IRREP_CATALOG.get((getattr(ref, "name", None), space.m_dim))
    if name is None:
        raise UnsupportedSpace(
            f"no irrep catalog for {space.name}; supported: S2 S3 S4 S5 CP1 CP2")
    ks = range(1, weight_cap + 1)
    if name == "S2":
        pool = [rp.spin2_irrep(k) for k in ks]
    elif name == "S3":
        tangent = ss.isotropy_rep(space)
        pool = [tangent.relabel("so3-fund"), rp.spin_fundamental(3),
                rp.sym2_traceless(tangent)]
    elif name == "S4":
        # complex dimension (k1+1)(k2+1), realified when k1 + k2 is odd
        pool = [rp.spin4_irrep(k1, k2) for k1 in range(rank_bound + 1)
                for k2 in range(rank_bound + 1) if k1 + k2 and
                (k1 + 1) * (k2 + 1) * (1 + (k1 + k2) % 2) <= rank_bound]
    elif name == "S5":
        pool = [ss.isotropy_rep(space).relabel("so5-fund"),
                rp.spin_fundamental(5)]
    elif name == "CP1":
        pool = [rp.un_det_power(1, k) for k in ks]
    else:  # CP2
        # fund:(2,k) and fund:(2,-1-k) are complex conjugates, hence equal
        # as real reps: k < 0 and k = cap cover -cap..cap once each
        pool = [rp.un_det_power(2, k) for k in ks] + [
            rp.un_fundamental_twist(2, k)
            for k in range(-weight_cap, weight_cap + 1)
            if k < 0 or k == weight_cap]
    return [("trivial:1", rp.trivial_rep(ref, 1))] + [
        (r.label, r) for r in pool if r.target_dim <= rank_bound]


def _rep_type(rep):
    try:
        return rp.classify_type(rep).kind
    except rp.Reducible:
        return "reducible"


def classify_bundles(space, rank_bound, weight_cap=6, tol=None):
    """Enumerate parallel bundles of rank <= rank_bound, one for each
    multiset of catalog irreducibles; the verification checks are judged
    against tol (default CHECK_TOL).

    The pool is irreducible and pairwise inequivalent, and the isotropy reps
    are orthogonal, so every sum splits uniquely into isotypic parts: two
    different multisets never give equivalent bundles. So each member is
    typed once, and a sum of two or more is reducible.
    """
    tol = CHECK_TOL if tol is None else tol
    irreps = catalog_irreps(space, rank_bound, weight_cap=weight_cap)
    kinds = [_rep_type(r) for _, r in irreps]
    reports = []

    def extend(start, labels, rep, dim):
        for i in range(start, len(irreps)):
            lbl, r = irreps[i]
            nd = dim + r.target_dim
            if nd > rank_bound:
                continue
            combined = r if rep is None else rp.direct_sum(rep, r)
            nl = labels + (lbl,)
            bundle = induce(space, combined)
            try:
                char = characteristic_numbers(bundle)
            except UnsupportedBase:
                char = None
            roundtrip = roundtrip_residual(bundle)
            reports.append(BundleReport(
                label=lbl if len(nl) == 1 else "sum(" + ",".join(nl) + ")",
                rank=nd, rep_type=kinds[i] if rep is None else "reducible",
                components=nl, char=char,
                bracket_ok=check_bracket_identity(bundle, tol=tol).ok,
                kernel_ok=check_kernel_inclusion(bundle, tol=tol).ok,
                roundtrip_ok=roundtrip is not None and roundtrip <= tol,
            ))
            extend(i, nl, combined, nd)

    extend(0, (), None, 0)
    # labels are unique, so this order is total
    reports.sort(key=lambda r: (r.rank, r.label))
    return reports
