"""The chunked verification kernels against their all-pairs references
(tests/allpairs.py): bracket residuals, witnesses and homomorphism
residuals bit for bit, the commutant and the rho-hat images to rounding."""

import itertools

import numpy as np
import pytest

import allpairs
from symcurv import bundles as bn
from symcurv import linalg, reps
from symcurv import symspace as ss

_POOLS = [("S2", 4), ("S3", 5), ("S4", 4), ("S5", 8), ("CP1", 4), ("CP2", 4)]
_SPINORS = [("S6", "spinor:6"), ("S7", "spinor:7"), ("S8", "spinor:8"),
            ("S8", "spinor+:8"), ("S8", "spinor-:8")]


def _cases():
    """Every pool member and every sum of two, then the spinor reps."""
    for name, rank in _POOLS:
        space = ss.catalog(name)
        pool = [r for _, r in bn.catalog_irreps(space, rank)]
        yield from ((space, r) for r in pool)
        for r1, r2 in itertools.combinations_with_replacement(pool, 2):
            yield space, reps.direct_sum(r1, r2)
    for name, desc in _SPINORS:
        space = ss.catalog(name)
        yield space, reps.from_descriptor(desc, source=space.isotropy_ref)


def _assert_same_bracket_checks(bundle, case):
    a, b = allpairs.basis_pairs(bundle.blocks.shape[0])
    assert bn.bracket_residuals(bundle, a, b).tobytes() == \
        allpairs.bracket_residuals(bundle, a, b).tobytes(), case
    # a zero bound names the witness of every nonzero residual
    for tol in (None, 0.0):
        assert bn.check_bracket_identity(bundle, tol=tol) == \
            allpairs.check_bracket_identity(bundle, tol=tol), case


def _assert_same_recovery(space, blocks, case):
    """Compares the images with the eigen-solve's and the residual with the
    all-pairs residual of the same images; returns True on a rejection."""
    img, images, worst = allpairs.recover(space, blocks)
    try:
        rec = bn.recover_rho_hat(space, blocks)
    except bn.NotHomomorphism as e:
        assert str(e) == str(bn.NotHomomorphism(
            "reconstructed map is not a homomorphism", worst)), case
        return True
    scale = max(1.0, np.abs(blocks).max(initial=0.0))
    assert np.abs(rec.images - images).max(initial=0.0) <= 1e-12 * scale, case
    assert rec.hom_residual == allpairs.hom_residual(
        rec.image_basis, rec.images, space.m_dim), case
    assert rec.image_basis.tobytes() == img.tobytes(), case
    return False


def _type(rep):
    try:
        t = reps.classify_type(rep)
    except reps.Reducible:
        return "reducible"
    return t.kind, t.commutant_dim


def _assert_same_commutant(rep, case, monkeypatch):
    got = reps.commutant_basis(rep)
    want = allpairs.commutant_basis(rep)
    assert len(got) == len(want), case
    flat_got = got.reshape(len(got), -1)
    flat_want = want.reshape(len(want), -1)
    assert np.abs(flat_got.T @ flat_got - flat_want.T @ flat_want).max(
        initial=0.0) <= 1e-12, case
    kind = _type(rep)
    with monkeypatch.context() as m:
        m.setattr(reps, "commutant_basis", allpairs.commutant_basis)
        assert kind == _type(rep), case


def _check(space, rep, monkeypatch):
    case = f"{space.name} {rep.label}"
    bundle = bn.induce(space, rep)
    _assert_same_bracket_checks(bundle, case)
    _assert_same_recovery(space, bundle.blocks, case)
    _assert_same_commutant(rep, case, monkeypatch)


def test_chunked_kernels_match_all_pairs(monkeypatch):
    for space, rep in _cases():
        _check(space, rep, monkeypatch)


def test_spinor8_spans_several_chunks():
    # at the fixed cap, the S8 spinor:8 case above takes both systems in
    # several chunks of 32 x 32 blocks: the bracket identity's 28 rows of 28
    # basis pairs one row at a time, and 378 image pairs
    assert linalg.CHUNK_ENTRIES == 2 ** 14
    assert len(linalg.row_chunks(28, 28 * 32 ** 2)) == 28
    assert len(linalg.row_chunks(28 * 27 // 2, 32 ** 2)) == 24


@pytest.mark.parametrize("cap", [1, 5000])
def test_small_cap_matches_all_pairs(monkeypatch, cap):
    # cap 1: the bracket identity takes one row of basis pairs (one i) per
    # chunk and bracket_residuals one pair; cap 5000: the identity takes
    # several rows per chunk, the last one shorter on S5, and S6 one row,
    # while bracket_residuals' chunks end inside a row of basis pairs
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", cap)
    for name, desc in [("S3", "spinor:3"), ("S4", "sum(spin4:(1,0),trivial:1)"),
                       ("S5", "spinor:5"), ("CP2", "fund:(2,1)"),
                       ("S6", "spinor:6")]:
        space = ss.catalog(name)
        _check(space, reps.from_descriptor(desc, source=space.isotropy_ref),
               monkeypatch)
    # perturbed blocks, which recover_rho_hat rejects by their residual (on
    # spheres: ker R^M = 0, so the kernel check cannot reject them first)
    rng = np.random.default_rng(11)
    for name, desc in [("S3", "spinor:3"), ("S5", "spinor:5")]:
        space = ss.catalog(name)
        blocks = bn.induce(space, reps.from_descriptor(desc)).blocks
        bad = blocks + 1e-5 * rng.standard_normal(blocks.shape)
        assert _assert_same_recovery(space, bad - bad.transpose(0, 2, 1), name)


def test_row_chunks_cover_the_rows_in_order():
    cap = linalg.CHUNK_ENTRIES
    for rows, per_row in [(0, 5), (1, 0), (7, cap), (10, cap // 4),
                          (1000, 3), (3, 8 * cap)]:
        chunks = linalg.row_chunks(rows, per_row)
        assert len(chunks) >= 1
        assert [i for s in chunks for i in range(rows)[s]] == list(range(rows))
        # a row over the cap is a chunk of its own
        assert all(len(range(rows)[s]) * per_row <= max(cap, per_row)
                   for s in chunks)
