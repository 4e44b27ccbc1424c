"""Induced bundle curvature, holonomy-map reconstruction, characteristic
numbers, and the parallel-bundle classifier.

The curvature of the bundle attached to a representation rho is
R^E = rho o pihat^{-1} o R^M; on basis bivectors this is rho applied to the
bracket of the corresponding orthonormal frame vectors. All the structural
facts (the bracket identity, kernel inclusion, reconstruction of rho from
the pair of curvatures) follow from that formula and are re-verified
numerically rather than trusted.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from . import reps as rp
from . import symspace as ss
from .linalg import (
    INTEGRALITY_TOL,
    NotInImage,
    bivector_bracket,
    combine,
    is_integral,
    row_chunks,
    within,
)
from .reps import SourceMismatch


class BundleError(Exception):
    pass


class KernelNotIncluded(BundleError):
    pass


class NotFinite(BundleError):
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

    @functools.cached_property
    def kernel_residuals(self):  # judged by both kernel checks: made once
        return _kernel_residuals(self.curv, self.blocks)


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    max_residual: float
    witness: tuple | None = None


@dataclass(frozen=True)
class Holonomy:
    """Im R^M as reconstruction reads it (SymmetricSpaceModel.holonomy)."""
    frame: np.ndarray  # (N_biv, r) orthonormal: Q of image_basis = Q r
    from_cols: np.ndarray  # (r^-1)^T: frame col t = sum_s [t, s] image col s
    bracket_coeffs: np.ndarray  # [frame_i, frame_j] in the frame, pairs i < j
    bracket_off: float  # largest norm of a pair bracket's part off the frame
    isotropy: np.ndarray | None  # isotropy images in the frame; None off it


def build_holonomy(space) -> Holonomy:
    """Holonomy of space's R^M, with its isotropy images ad_ref."""
    curv, n = ss.curvature_operator(space), space.m_dim
    frame, r = np.linalg.qr(curv.float_matrix[:, curv.image_cols])
    (pi, pj), rank = np.triu_indices(frame.shape[1], 1), frame.shape[1]
    coeffs, off = np.empty((len(pi), rank)), 0.0
    for s in row_chunks(len(pi), n * n):
        coeffs[s], o = linalg.project(frame, bivector_bracket(
            frame.T[pi[s]], frame.T[pj[s]], n))
        off = max(off, float(linalg.row_norms(o).max(initial=0.0)))
    biv = linalg.bivector_coeffs_from_skew(space.ad_ref)
    iso, iso_off = linalg.project(frame, biv)
    if np.any(linalg.row_norms(iso_off)
              > linalg.SQRT_EPS * linalg.row_norms(biv)):
        iso = None
    return Holonomy(frame, np.linalg.inv(r).T, coeffs, off, iso)


@dataclass(frozen=True)
class RecoveredHom:
    space: ss.SymmetricSpaceModel
    image_basis: np.ndarray  # (N_biv, r): orthonormal basis of Im R^M
    images: np.ndarray  # (r, k, k): rho-hat on that basis
    hom_residual: float

    def as_rep(self):
        """rho-hat composed with the isotropy identification: a rep of the
        isotropy algebra."""
        coeffs = self.space.holonomy.isotropy
        if coeffs is None:
            raise NotInImage("isotropy image is not contained in Im R^M")
        return rp.AlgebraRep(self.space.isotropy_ref,
                             combine(coeffs, self.images), label="recovered")


def check_source(space, rep):
    """Raise SourceMismatch unless rep acts on the isotropy algebra of space."""
    ref = space.isotropy_ref
    if rep.source.name != ref.name or rep.source.dim != ref.dim:
        raise SourceMismatch(
            f"rep source {rep.source.name!r} does not match isotropy algebra "
            f"{ref.name!r} of {space.name}")


def induce(space, rep) -> InducedBundle:
    """Curvature of the bundle attached to rep via R^E = rho o pihat^-1 o R^M."""
    check_source(space, rep)
    curv = ss.curvature_operator(space)
    blocks = combine(curv.float_h_coeff, rep.images)
    return InducedBundle(space=space, rep=rep, blocks=blocks, curv=curv)


def _misfit(lhs, a, b):
    """max |lhs - (ab - ba)| for each matrix of the stacks: the residual of
    the bracket identity and of the homomorphism property."""
    return np.abs(lhs - (a @ b - b @ a)).max(axis=(-2, -1), initial=0.0)


def bracket_residuals(bundle, a, b):
    """Residuals of R^E[R^M a, b] = [R^E a, R^E b] for each row pair (a[i],
    b[i]), in stacked products over chunks of rows (each k x k or n x n)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rm, n, out = bundle.curv.float_matrix, bundle.space.m_dim, []
    for s in row_chunks(len(a), max(bundle.rank, n) ** 2):
        lhs = bundle.value(bivector_bracket((rm @ a[s, :, None])[..., 0], b[s], n))
        out.append(_misfit(lhs, bundle.value(a[s]), bundle.value(b[s])))
    return np.concatenate(out)


def bracket_identity_residual(bundle, a, b):
    """Residual of R^E[R^M a, b] = [R^E a, R^E b] for bivectors a, b."""
    return float(bracket_residuals(bundle, [a], [b])[0])


def _judge(res, scale_of, degree, tol=None, recover=False, witness=int):
    """IdentityReport of the residuals res under linalg.within; a failing
    one names the worst, or the first NaN, by witness(index) when res is
    not empty."""
    worst = float(res.max(initial=0.0))
    ok = within(worst, scale_of, degree, tol, recover)
    return IdentityReport(ok, worst, None if ok or not res.size
                          else witness(int(res.argmax())))


def check_bracket_identity(bundle, tol=None) -> IdentityReport:
    """Lemma-style bracket identity over all basis bivector pairs (e_i, e_j),
    in chunks of i: R^M e_i is column i of R^M and R^E e_i is blocks[i]."""
    f, rm, n = bundle.blocks, bundle.curv.float_matrix.T, bundle.space.m_dim
    nb, eye = len(f), np.eye(len(f))
    res = [_misfit(bundle.value(bivector_bracket(rm[s, None], eye, n)), f[s, None], f)
           for s in row_chunks(nb, nb * max(bundle.rank, n) ** 2)]
    return _judge(np.concatenate(res).ravel(), f, 2, tol,
                  witness=lambda i: divmod(i, nb))


# an overflowing product leaves an inf or NaN residual, which fails its bound
@np.errstate(over="ignore", invalid="ignore")
def _kernel_residuals(curv, blocks):
    """max |R^E v| for each vector v of the exact basis of ker R^M."""
    return np.abs(combine(curv.float_kernel.T, blocks)).max(axis=(-2, -1),
                                                           initial=0.0)


def check_kernel_inclusion(bundle, tol=None) -> IdentityReport:
    """ker R^M subset ker R^E, tested on the exact kernel basis."""
    return _judge(bundle.kernel_residuals, bundle.blocks, 1, tol)


@np.errstate(over="ignore", invalid="ignore")
def recover_rho_hat(space, blocks, *, _kernel_res=None) -> RecoveredHom:
    """Reconstruct rho-hat = R^E o (R^M)^{-1} on Im R^M and validate it.

    blocks is the candidate bundle curvature on basis bivectors. Raises
    NotFinite on a NaN or infinite entry, KernelNotIncluded when it does
    not kill ker R^M, and NotHomomorphism when the reconstructed map is
    not a Lie algebra homomorphism on the holonomy algebra.
    """
    blocks = np.asarray(blocks, dtype=float)
    if not np.isfinite(blocks).all():
        raise NotFinite("candidate curvature has a non-finite entry")
    curv = ss.curvature_operator(space)
    if _kernel_res is None:  # check_roundtrip passes its bundle's
        _kernel_res = _kernel_residuals(curv, blocks)
    kernel = _judge(_kernel_res, blocks, 1, recover=True)
    if not kernel.ok:
        raise KernelNotIncluded(
            f"candidate curvature does not vanish on ker R^M "
            f"(kernel vector {kernel.witness})")
    # image column s is R^M e_{c_s}, so rho-hat sends it to blocks[c_s], and
    # the holonomy frame to the same combinations of them
    hol = space.holonomy
    images = combine(hol.from_cols, blocks[curv.image_cols])
    # residual over the frame pairs i < j; np.max keeps a NaN, max() drops it
    (pi, pj), worst = np.triu_indices(len(images), 1), hol.bracket_off
    for s in row_chunks(len(pi), blocks.shape[1] ** 2):
        res = _misfit(combine(hol.bracket_coeffs[s], images), images[pi[s]],
                      images[pj[s]])
        worst = float(np.max([worst, res.max(initial=0.0)]))
    if not within(worst, blocks, 2, recover=True):
        raise NotHomomorphism("reconstructed map is not a homomorphism", worst)
    return RecoveredHom(space=space, image_basis=hol.frame, images=images,
                        hom_residual=worst)


def check_roundtrip(bundle, tol=None) -> IdentityReport:
    """max |rho_back - rho| for the rep recovered from the bundle's
    curvature; a failed reconstruction fails with residual None."""
    try:
        back = recover_rho_hat(bundle.space, bundle.blocks,
                               _kernel_res=bundle.kernel_residuals).as_rep()
    except (BundleError, NotInImage):
        return IdentityReport(False, None)
    images = bundle.rep.images
    res = np.abs(back.images - images).max(axis=(-2, -1), initial=0.0)
    return _judge(res, images, 1, tol)


def check_suite(bundle, tol=None):
    """The reconstruction theorem's three checks, by name, in report order."""
    return {"bracket_identity": check_bracket_identity(bundle, tol),
            "kernel_inclusion": check_kernel_inclusion(bundle, tol),
            "reconstruction_roundtrip": check_roundtrip(bundle, tol)}


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
        return all(is_integral(v, self.tolerance) for v in
                   (self.euler, self.p1, self.c1, self.c2) if v is not None)

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
    if not curv.kappa or curv.kappa < 0:  # None, 0 or negative
        raise UnsupportedBase(
            f"{space.name}: curvature operator is not a positive multiple "
            f"of the identity")
    return n, float(curv.kappa)


# the pfaffian's pairings e12 e34 - e13 e24 + e14 e23, by Lambda^2 position
_PARTS4 = ((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0))


def _complex_trace(m, jc):
    return 0.5 * (np.trace(m) - 1j * np.trace(jc @ m))


def weight_mode_n(space):
    """n when charclasses reads c1 as a representation weight, else None:
    the base is CP^n x R^k with dim m > 2, so CP1 x R^k (k >= 1) is one and
    bare CP1 keeps its Chern-Weil report, and its isotropy algebra is
    make_u(n), whose basis c1_weight reads."""
    ref, m = space.isotropy_ref, space.m_dim
    n = ref.complex_n
    ok = n and ref.name == f"u({n})" and m > 2 and m - space.flat_dim == 2 * n
    return n if ok else None


def c1_weight(space, rep):
    """c1 as a representation weight on the bases of weight_mode_n: the
    complex trace of the image of i*I = iH1 + ... + iHn, the first n
    elements of make_u(n)'s basis, normalized so det^k has weight k."""
    check_source(space, rep)
    n = weight_mode_n(space)
    if n is None:
        raise UnsupportedBase(f"{space.name}: base has no weight mode")
    if rep.complex_structure is None:
        raise UnsupportedBase("weight report needs a complex structure")
    return _complex_trace(rep.images[:n].sum(axis=0),
                          rep.complex_structure).imag / n


def characteristic_numbers(bundle, tolerance=INTEGRALITY_TOL) -> CharClassReport:
    """Chern-Weil numbers by density-at-a-point times volume.

    Supported bases are round 2- and 4-dimensional catalog spaces (unit or
    rescaled spheres, CP^1). Euler numbers need rank 2 over a surface and
    rank 4 over a 4-dimensional base; p1 is computed over any 4-dimensional
    base; c1 (surface) and c2 (4-dimensional base) need a complex structure.
    """
    space, f, jc = bundle.space, bundle.blocks, bundle.rep.complex_structure
    n, kappa = _base_geometry(space, bundle.curv)
    euler = p1 = c1 = c2 = None
    if n == 2:
        vol = 4 * math.pi / kappa
        if bundle.rank == 2:
            euler = f[0][1, 0] * vol / (2 * math.pi)
        if jc is not None:
            c1 = _complex_trace(f[0], jc).imag * vol / (2 * math.pi)
    else:
        vol = (8 * math.pi ** 2 / 3) / kappa ** 2
        trff = sum(2 * s * np.trace(f[p] @ f[q]) for p, q, s in _PARTS4)
        p1 = -trff * vol / (8 * math.pi ** 2)
        if bundle.rank == 4:
            pf = sum(s * (_pf4_bilinear(f[p], f[q])) for p, q, s in _PARTS4)
            euler = pf * vol / (4 * math.pi ** 2)
        if jc is not None:
            trcff = sum(2 * s * _complex_trace(f[p] @ f[q], jc)
                        for p, q, s in _PARTS4)
            trc1 = sum(2 * s * _complex_trace(f[p], jc)
                       * _complex_trace(f[q], jc) for p, q, s in _PARTS4)
            val = (trcff - trc1) * vol / (8 * math.pi ** 2)
            if abs(val.imag) > tolerance:
                raise BundleError("c2 density has a nonreal value")
            c2 = val.real
    return CharClassReport(base=space.name, rank=bundle.rank, euler=euler,
                           p1=p1, c1=c1, c2=c2, tolerance=tolerance)


def _pf4_bilinear(a, b):
    return (a[0, 1] * b[2, 3] - a[0, 2] * b[1, 3] + a[0, 3] * b[1, 2]) + (
        b[0, 1] * a[2, 3] - b[0, 2] * a[1, 3] + b[0, 3] * a[1, 2])


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class BundleReport:
    label: str
    rank: int
    rep_type: str
    components: tuple
    char: CharClassReport | None
    checks: dict  # check_suite's IdentityReports

    def to_dict(self):
        return {
            "label": self.label, "rank": self.rank, "type": self.rep_type,
            "components": list(self.components),
            "char": None if self.char is None else self.char.to_dict(),
            "verified": {k: c.ok for k, c in self.checks.items()},
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
    name = _IRREP_CATALOG.get((ref.name, space.m_dim))
    if name is None:
        raise UnsupportedSpace(
            f"no irrep catalog for {space.name}; supported: S2 S3 S4 S5 CP1 CP2")
    ks = range(1, weight_cap + 1)
    if name == "S2":
        pool = [rp.spin2_irrep(k) for k in ks]
    elif name == "S3":
        tangent = ss.isotropy_rep(space)
        pool = [replace(tangent, label="so3-fund"), rp.spin_fundamental(3),
                rp.sym2_traceless(tangent)]
    elif name == "S4":
        # complex dimension (k1+1)(k2+1), realified when k1 + k2 is odd
        pool = [rp.spin4_irrep(k1, k2) for k1 in range(rank_bound + 1)
                for k2 in range(rank_bound + 1) if k1 + k2 and
                (k1 + 1) * (k2 + 1) * (1 + (k1 + k2) % 2) <= rank_bound]
    elif name == "S5":
        pool = [replace(ss.isotropy_rep(space), label="so5-fund"),
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
    at tol by linalg.within.

    The pool is irreducible and pairwise inequivalent, and the isotropy reps
    are orthogonal, so every sum splits uniquely into isotypic parts: two
    different multisets never give equivalent bundles. So each member is
    typed once, and a sum of two or more is reducible.
    """
    irreps = catalog_irreps(space, rank_bound, weight_cap=weight_cap)
    kinds = [_rep_type(r) for _, r in irreps]
    reports = []
    # depth first; a frame (i, prefix): the sums extending prefix by irreps[i:]
    stack = [(0, (), None, 0)]
    while stack:
        i, labels, rep, dim = stack.pop()
        if i + 1 < len(irreps):
            stack.append((i + 1, labels, rep, dim))
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
        reports.append(BundleReport(
            label=lbl if len(nl) == 1 else "sum(" + ",".join(nl) + ")",
            rank=nd, rep_type=kinds[i] if rep is None else "reducible",
            components=nl, char=char, checks=check_suite(bundle, tol)))
        stack.append((i, nl, combined, nd))
    # labels are unique, so this order is total
    reports.sort(key=lambda r: (r.rank, r.label))
    return reports
