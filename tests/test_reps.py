"""Representation constructors and type classification."""

import itertools

import numpy as np
import pytest

from symcurv import _exact as ex
from symcurv import bundles as bn
from symcurv import liealg, reps
from symcurv import symspace as ss
from symcurv.linalg import EPS

from homomorphism import bracket, validate_homomorphism

ALL_REPS = [
    reps.spin2_irrep(1), reps.spin2_irrep(2), reps.spin2_irrep(-3),
    reps.su2_irrep(0), reps.su2_irrep(1), reps.su2_irrep(2),
    reps.su2_irrep(5),
    reps.spin4_irrep(1, 0), reps.spin4_irrep(1, 1), reps.spin4_irrep(2, 0),
    reps.spin4_irrep(2, 1),
    reps.spin_fundamental(3), reps.spin_fundamental(5),
    reps.spin_fundamental(4, "+"), reps.spin_fundamental(6, "-"),
    reps.un_det_power(2, 3), reps.un_fundamental_twist(2, -1),
]


def _validate_ref(rep):
    """The per-pair loops that validate_homomorphism replaced."""
    c = ex.to_float(rep.source.structure)
    d = rep.source.dim
    bracket_err = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            lhs = rep.images[i] @ rep.images[j] - rep.images[j] @ rep.images[i]
            rhs = np.tensordot(c[i, j], rep.images, axes=(0, 0))
            bracket_err = max(bracket_err, np.abs(lhs - rhs).max(initial=0.0))
    skew_err = max((np.abs(m + m.T).max(initial=0.0) for m in rep.images),
                   default=0.0)
    jc_err = 0.0
    if rep.complex_structure is not None:
        jc = rep.complex_structure
        jc_err = np.abs(jc @ jc + np.eye(rep.target_dim)).max()
        for m in rep.images:
            jc_err = max(jc_err, np.abs(jc @ m - m @ jc).max(initial=0.0))
    return bracket_err, skew_err, jc_err


@pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.label)
def test_homomorphism_and_skewness(rep):
    report = validate_homomorphism(rep)
    assert report.ok, (rep.label, report)
    assert (report.max_bracket_error, report.max_skew_error,
            report.max_jc_error) == _validate_ref(rep)


def test_spin2_normalization():
    # k=2 is the tangent rep of the 2-sphere; k=1 has half the norm
    tangent = ss.isotropy_rep(ss.catalog("S2"))
    assert np.allclose(reps.spin2_irrep(2).images, tangent.images)
    assert np.isclose(np.linalg.norm(reps.spin2_irrep(1).images),
                      0.5 * np.linalg.norm(reps.spin2_irrep(2).images))


def test_spin2_k_minus_k_conjugate():
    d = np.diag([1.0, -1.0])
    for k in (1, 3, 5):
        a = reps.spin2_irrep(k).images[0]
        b = reps.spin2_irrep(-k).images[0]
        assert np.allclose(d @ a @ d, b)


def test_su2_dimensions_and_structure_map():
    for k in range(7):
        rep = reps.su2_irrep(k)
        assert rep.target_dim == 2 * (k + 1)
        j = rep.structure_map
        assert np.allclose(j @ j, (-1) ** k * np.eye(rep.target_dim))
        for m in rep.images:
            assert np.abs(j @ m - m @ j).max() < 1e-12


def test_su2_types():
    for k in range(1, 7):
        rep = reps.su2_irrep(k)
        if k % 2 == 1:
            assert reps.classify_type(rep).kind == "quaternionic"
        else:
            with pytest.raises(reps.Reducible):
                reps.classify_type(rep)
            real = reps.real_form(rep)
            assert real.target_dim == k + 1
            assert reps.classify_type(real).kind == "real"


def test_su2_2_real_form_is_adjoint():
    real = reps.real_form(reps.su2_irrep(2))
    su2 = liealg.make_su(2)
    c = ex.to_float(su2.structure)
    adjoint = reps.AlgebraRep(
        su2, np.stack([c[i].T for i in range(3)]), label="ad")
    assert validate_homomorphism(adjoint).ok
    assert reps.equivalent(real, adjoint)


def test_spin4_dims_and_types():
    for k1 in range(3):
        for k2 in range(3):
            if k1 == k2 == 0:
                continue
            rep = reps.spin4_irrep(k1, k2)
            cdim = (k1 + 1) * (k2 + 1)
            if (k1 + k2) % 2 == 0:
                assert rep.target_dim == cdim
                assert reps.classify_type(rep).kind == "real"
            else:
                assert rep.target_dim == 2 * cdim
                assert reps.classify_type(rep).kind == "quaternionic"


def test_spin4_11_is_tangent():
    tangent = ss.isotropy_rep(ss.catalog("S4"))
    assert reps.equivalent(reps.spin4_irrep(1, 1), tangent)


def test_spinor_dimensions():
    # complex dims 2, 4, 4, 8, 8, 16 for n = 3..8
    want = {3: 4, 4: 8, 5: 8, 6: 16, 7: 16, 8: 32}
    for n, rdim in want.items():
        assert reps.spin_fundamental(n).target_dim == rdim
    assert reps.spin_fundamental(4, "+").target_dim == 4
    assert reps.spin_fundamental(6, "+").target_dim == 8
    with pytest.raises(reps.UnsupportedDim):
        reps.spin_fundamental(9)
    with pytest.raises(reps.UnsupportedDim):
        reps.spin_fundamental(5, "+")


def test_so4_split_constants():
    so4, su2 = liealg.make_so(4), liealg.make_su(2)
    p, q = reps._SO4_P, reps._SO4_Q
    for m in (p, q):  # su(2) -> so(4) homomorphisms
        for a in range(3):
            for b in range(3):
                want = np.dot(su2.structure[a, b], m)
                assert ex.is_zero(bracket(so4, m[a], m[b]) - want), (a, b)
    # orthogonal rows of squared norm 2, so spin4_irrep reads coordinates
    # along the two ideals off p.T / 2 and q.T / 2; together they span so(4)
    pq = np.concatenate([p, q])
    gram = np.dot(pq * np.diag(so4.inner_product), pq.T)
    assert ex.is_zero(gram - 2 * ex.feye(6))
    assert ex.rank(np.concatenate([p, q])) == so4.dim


def test_sym2_traceless():
    fund = ss.isotropy_rep(ss.catalog("S3"))
    rep = reps.sym2_traceless(fund)
    assert rep.target_dim == 5
    assert validate_homomorphism(rep).ok
    assert reps.classify_type(rep).kind == "real"


def test_direct_sum_and_source_mismatch():
    s = reps.direct_sum(reps.spin4_irrep(2, 0),
                        reps.trivial_rep(liealg.make_so(4), 1))
    assert s.target_dim == 4
    with pytest.raises(reps.SourceMismatch):
        reps.direct_sum(reps.spin2_irrep(1), reps.su2_irrep(1))


def test_un_constructors():
    det = reps.un_det_power(2, 2)
    assert det.target_dim == 2
    fund = reps.un_fundamental_twist(2, 1)
    assert fund.target_dim == 4
    # covering relation: X -> tr(X) I + X reproduces the CP^2 isotropy rep
    iso = ss.isotropy_rep(ss.catalog("CP2"))
    assert reps.equivalent(fund, iso)


def test_classify_invariance_under_conjugation():
    rng = np.random.default_rng(5)
    rep = reps.spin4_irrep(1, 0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    conj = reps.AlgebraRep(rep.source,
                           np.stack([q.T @ m @ q for m in rep.images]),
                           label="conj")
    assert reps.classify_type(conj).kind == "quaternionic"


def test_descriptor_grammar():
    r = reps.from_descriptor("sum(spin4:(2,0),trivial:1)")
    assert r.target_dim == 4 and r.source.name == "so(4)"
    r = reps.from_descriptor("ext(spin2:2,su2:1)")
    assert r.source.name == "so(2)+su(2)"
    for bad in ["bogus:(9", "spin4:(1)", "sum()", "spin4:1,2", "nope"]:
        with pytest.raises(reps.DescriptorError):
            reps.from_descriptor(bad)
    with pytest.raises(reps.RepError):
        reps.from_descriptor("spin2:0")


# ---------------------------------------------------------------------------
# The per-generator np.kron system and the SVD-only equivalence test that
# the centralizer code replaced, kept as references.

def _intertwiners_ref(r1, r2, tol=None):
    tol = EPS * 100 if tol is None else tol
    n1, n2 = r1.target_dim, r2.target_dim
    if r1.source.dim == 0:
        rows = np.zeros((1, n1 * n2))
    else:
        rows = np.concatenate([
            np.kron(np.eye(n1), r2.images[t]) - np.kron(r1.images[t].T, np.eye(n2))
            for t in range(r1.source.dim)
        ])
    _, s, vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    s = np.concatenate([s, np.zeros(n1 * n2 - len(s))])
    return vt[s <= tol * max(1.0, s.max(initial=1.0))]


def _equivalent_ref(r1, r2, tol=None):
    if r1.target_dim != r2.target_dim or r1.source.dim != r2.source.dim:
        return False
    n = r1.target_dim
    if r1.source.dim == 0:
        return True
    null = _intertwiners_ref(r1, r2, tol)
    if len(null) == 0:
        return False
    rng = np.random.default_rng(7)
    for _ in range(8):
        t = np.tensordot(rng.standard_normal(len(null)), null, axes=(0, 0))
        if np.linalg.matrix_rank(t.reshape(n, n), tol=1e-8) == n:
            return True
    return False


_POOLS = [("S2", 4), ("S3", 5), ("S4", 4), ("S5", 8), ("CP1", 4), ("CP2", 4)]


def _pool(name, rank):
    return [r for _, r in bn.catalog_irreps(ss.catalog(name), rank)]


def _projector(basis):
    flat = np.reshape(basis, (len(basis), -1))
    return flat.T @ flat


def _assert_same_commutant(rep):
    got = reps.commutant_basis(rep)
    want = _intertwiners_ref(rep, rep)
    assert len(got) == len(want), rep.label
    assert np.abs(_projector(got) - _projector(want)).max() <= 1e-10, rep.label


def test_commutant_matches_kron_system():
    fund = reps.un_fundamental_twist(2, -1)
    assert len(reps.commutant_basis(fund)) == 2
    singles = [fund, reps.spin4_irrep(2, 1), reps.su2_irrep(3),
               reps.from_descriptor("sum(spin4:(1,0),spin4:(1,0))")]
    singles += [reps.spin_fundamental(n) for n in (5, 6, 7)]
    assert len(reps.commutant_basis(singles[3])) == 16
    for rep in singles:
        _assert_same_commutant(rep)
    # a pair's intertwiners are a block of the commutant of its sum
    for name, rank in _POOLS:
        pool = _pool(name, rank)
        for r1, r2 in itertools.product(pool, pool):
            _assert_same_commutant(reps.direct_sum(r1, r2))


def test_spinor8_commutant():
    # dimension and type as the Kronecker system gave them: two real
    # half-spinors, each twice
    rep = reps.spin_fundamental(8)
    comm = reps.commutant_basis(rep)
    assert len(comm) == 8
    with pytest.raises(reps.Reducible):
        reps.classify_type(rep)
    scale = np.abs(rep.images).max() * np.abs(comm).max()
    resid = rep.images[:, None] @ comm - comm @ rep.images[:, None]
    assert np.abs(resid).max() <= 1e-12 * scale
    flat = comm.reshape(8, -1)
    assert np.abs(flat @ flat.T - np.eye(8)).max() <= 1e-12


def test_equivalent_matches_svd_only_path():
    for name, rank in _POOLS:
        pool = _pool(name, rank)
        for r1, r2 in itertools.product(pool, pool):
            assert reps.equivalent(r1, r2) == _equivalent_ref(r1, r2)
    # the CP2 pool leaves out the twisted fundamentals of u(2) with k >= 0
    # below the cap, because fund:(2,k) = fund:(2,-1-k) as real reps
    for k in range(6):
        assert _equivalent_ref(reps.un_fundamental_twist(2, k),
                               reps.un_fundamental_twist(2, -1 - k)), k


def test_classify_types_each_pool_member_once(monkeypatch):
    # the pool is inequivalent by construction and every sum of two or more
    # members is reducible, so classify needs neither test on a sum
    calls = {"equivalent": 0, "classify_type": []}
    equivalent, classify_type = reps.equivalent, reps.classify_type

    def counted_equivalent(r1, r2):
        calls["equivalent"] += 1
        return equivalent(r1, r2)

    def counted_classify_type(rep):
        calls["classify_type"].append(rep.label)
        return classify_type(rep)

    monkeypatch.setattr(reps, "equivalent", counted_equivalent)
    monkeypatch.setattr(reps, "classify_type", counted_classify_type)
    for name, rank in _POOLS:
        pool = [r.label for r in _pool(name, rank)]
        calls["classify_type"].clear()
        bn.classify_bundles(ss.catalog(name), rank)
        assert calls["classify_type"] == pool, name
    assert calls["equivalent"] == 0


def test_catalog_pools_are_irreducible_and_inequivalent():
    # classify_bundles lists one bundle per multiset of pool members, which
    # counts each bundle once only because of this
    for name, rank in _POOLS:
        pool = _pool(name, rank)
        for rep in pool:
            reps.classify_type(rep)  # raises Reducible otherwise
        for r1, r2 in itertools.combinations(pool, 2):
            assert not _equivalent_ref(r1, r2), (r1.label, r2.label)
