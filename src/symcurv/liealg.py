"""Finite-dimensional real Lie algebras with exact rational structure constants.

Complex algebras (u(n), su(n)) are realified: a complex matrix X + iY is
stored as the real matrix [[X, -Y], [Y, X]]. The invariant inner product
is <A, B> = tr(A^T B) / 2 on the chosen matrix realization.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exact as ex


@dataclass(frozen=True)
class LieAlgebraModel:
    name: str
    dim: int
    basis_labels: tuple
    structure: np.ndarray  # (dim, dim, dim) Fractions, [X_i, X_j] = sum_k c[i,j,k] X_k
    inner_product: np.ndarray  # (dim, dim) Fractions, Ad-invariant, positive definite
    matrices: tuple | None = None  # optional matrix realization (realified for complex)
    complex_n: int | None = None  # if realified: matrices are 2n x 2n real


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_ok: bool
    jacobi_ok: bool
    invariance_ok: bool
    witness: tuple | None  # first failing (check_name, indices)

    @property
    def ok(self):
        return self.antisymmetry_ok and self.jacobi_ok and self.invariance_ok


def _structure_from_matrices(mats):
    """Structure constants and trace-form Gram matrix of a matrix Lie algebra.

    With the matrices scaled to integers M_i = D X_i, every commutator, the
    Gram matrix 2 D^2 <X_i, X_j> and every pairing 2 D^3 <X_k, [X_i, X_j]>
    is one integer einsum. One exact inverse of the Gram matrix, brought to
    a common denominator, turns all pairings into coefficients with one
    integer product.
    """
    n = mats[0].shape[0]
    m, den = ex.scale_to_int(np.stack(mats), degree=3, terms=2 * n**3)
    prod = np.einsum("ink,jkm->ijnm", m, m)
    comm = prod - prod.transpose(1, 0, 2, 3)
    gram = np.einsum("iab,jab->ij", m, m)
    rhs = np.einsum("kab,ijab->ijk", m, comm)
    # each coefficient sums len(mats) products inv[k, l] * rhs[i, j, l]
    big = int(np.abs(rhs).max(initial=0))
    inv, inv_den = ex.scale_to_int(ex.inverse(ex.farray(gram.tolist())),
                                   terms=len(mats) * big)
    c = ex.from_scaled_int(rhs @ inv.T, den * inv_den)
    return c, ex.from_scaled_int(gram, 2 * den * den)


def _from_matrices(name, labels, mats, complex_n=None):
    c, gram = _structure_from_matrices(mats)
    return LieAlgebraModel(
        name=name,
        dim=len(mats),
        basis_labels=tuple(labels),
        structure=c,
        inner_product=gram,
        matrices=tuple(mats),
        complex_n=complex_n,
    )


def so_generator(i, j, n):
    """Matrix of E_ij: maps e_i -> e_j, e_j -> -e_i (entry (j,i) = +1)."""
    a = ex.fzeros((n, n))
    a[j, i] = ex.ONE
    a[i, j] = -ex.ONE
    return a


def make_so(n):
    """so(n) with basis E_ij (i < j, lexicographic) and <A,B> = tr(A^T B)/2."""
    if n < 2:
        raise ValueError("so(n) needs n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = [so_generator(i, j, n) for i, j in pairs]
    labels = [f"E{i + 1}{j + 1}" for i, j in pairs]
    return _from_matrices(f"so({n})", labels, mats)


def realify(x, y):
    """Real 2n x 2n matrix of the complex matrix x + iy."""
    n = x.shape[0]
    out = ex.fzeros((2 * n, 2 * n))
    out[:n, :n] = x
    out[n:, n:] = x
    out[n:, :n] = y
    out[:n, n:] = -y
    return out


def complex_parts(m):
    """Inverse of realify for matrices commuting with the standard J."""
    n = m.shape[0] // 2
    return m[:n, :n], m[n:, :n]


def _eij(i, j, n):
    a = ex.fzeros((n, n))
    a[i, j] = ex.ONE
    return a


def _un_basis(n):
    """Skew-Hermitian basis of u(n): i*E_kk, then E_ji - E_ij and i(E_ij + E_ji)."""
    mats, labels = [], []
    for k in range(n):
        mats.append(realify(ex.fzeros((n, n)), _eij(k, k, n)))
        labels.append(f"iH{k + 1}")
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(realify(_eij(j, i, n) - _eij(i, j, n), ex.fzeros((n, n))))
            labels.append(f"A{i + 1}{j + 1}")
            mats.append(realify(ex.fzeros((n, n)), _eij(i, j, n) + _eij(j, i, n)))
            labels.append(f"S{i + 1}{j + 1}")
    return mats, labels


def make_u(n):
    if n < 1:
        raise ValueError("u(n) needs n >= 1")
    mats, labels = _un_basis(n)
    return _from_matrices(f"u({n})", labels, mats, complex_n=n)


def make_su(n):
    if n < 2:
        raise ValueError("su(n) needs n >= 2")
    mats, labels = [], []
    for k in range(n - 1):
        mats.append(realify(ex.fzeros((n, n)), _eij(k, k, n) - _eij(k + 1, k + 1, n)))
        labels.append(f"iD{k + 1}")
    full, full_labels = _un_basis(n)
    mats.extend(full[n:])
    labels.extend(full_labels[n:])
    return _from_matrices(f"su({n})", labels, mats, complex_n=n)


def make_abelian(n):
    """R^n as an abelian Lie algebra with the standard inner product."""
    return LieAlgebraModel(
        name=f"R^{n}" if n else "0",
        dim=n,
        basis_labels=tuple(f"T{k + 1}" for k in range(n)),
        structure=ex.fzeros((n, n, n)),
        inner_product=ex.feye(n),
        matrices=tuple(ex.fzeros((1, 1)) for _ in range(n)),
    )


def product_algebra(a, b):
    """Direct sum a + b with block structure constants and orthogonal metric."""
    d = a.dim + b.dim
    c = ex.fzeros((d, d, d))
    c[: a.dim, : a.dim, : a.dim] = a.structure
    c[a.dim :, a.dim :, a.dim :] = b.structure
    ip = ex.fzeros((d, d))
    ip[: a.dim, : a.dim] = a.inner_product
    ip[a.dim :, a.dim :] = b.inner_product
    labels = tuple(f"a.{s}" for s in a.basis_labels) + tuple(f"b.{s}" for s in b.basis_labels)
    mats = None
    if a.matrices is not None and b.matrices is not None:
        na = a.matrices[0].shape[0] if a.dim else 1
        nb = b.matrices[0].shape[0] if b.dim else 1
        mats = []
        for m in a.matrices:
            big = ex.fzeros((na + nb, na + nb))
            big[:na, :na] = m
            mats.append(big)
        for m in b.matrices:
            big = ex.fzeros((na + nb, na + nb))
            big[na:, na:] = m
            mats.append(big)
        mats = tuple(mats)
    return LieAlgebraModel(
        name=f"{a.name}+{b.name}", dim=d, basis_labels=labels,
        structure=c, inner_product=ip, matrices=mats,
    )


def change_basis(alg, p, name=None, labels=None):
    """Model in the new basis Y_i = sum_j p[i, j] X_j (p exact, invertible)."""
    p = np.asarray(p, dtype=object)
    pinv = ex.inverse(p)
    d = alg.dim
    # [Y_i, Y_j] = sum p[i, a] p[j, b] c[a, b, l] X_l, and X_l = sum pinv[l, k] Y_k
    c = np.einsum("ijl,lk->ijk", np.einsum("ia,jb,abl->ijl", p, p, alg.structure), pinv)
    ip = np.dot(np.dot(p, alg.inner_product), p.T)
    mats = None
    if alg.matrices is not None:
        mats = tuple(
            sum(p[i, j] * alg.matrices[j] for j in range(d)) for i in range(d)
        )
    return LieAlgebraModel(
        name=name or alg.name,
        dim=d,
        basis_labels=tuple(labels) if labels else alg.basis_labels,
        structure=c,
        inner_product=ip,
        matrices=mats,
        complex_n=alg.complex_n,
    )


def validate(alg) -> ValidationReport:
    """Antisymmetry, Jacobi and Ad-invariance of the inner product, on
    scaled integers. Each check is homogeneous in the structure constants
    and in the inner product, so a common denominator does not change its
    zeros."""
    d = alg.dim
    c, _ = ex.scale_to_int(alg.structure, degree=2, terms=3 * d)
    ip, _ = ex.scale_to_int(alg.inner_product, degree=2, terms=3 * d)
    anti = np.argwhere((c + c.transpose(1, 0, 2)).any(axis=-1))
    jac = _jacobi_failures(c)
    s = c @ ip  # s[i, j, k] = <[X_i, X_j], X_k>, scaled
    inv = np.argwhere(s + s.transpose(0, 2, 1))
    witness = None
    if len(anti):
        witness = ("antisymmetry", tuple(int(v) for v in anti[0]))
    elif len(jac):
        witness = ("jacobi", tuple(int(v) for v in jac[0]))
    elif len(inv):
        witness = ("invariance", tuple(int(v) for v in inv[0]))
    return ValidationReport(not len(anti), not len(jac), not len(inv), witness)


def _jacobi_failures(c):
    """Triples i < j < k, in lexicographic order, at which
    J = [[X_i, X_j], X_k] + cyclic is nonzero, from scaled-integer
    structure constants c.

    A product c[a, b, m] c[m, e, l] is a term of J at (a, b, e) and at its
    cyclic rotations, one of which is sorted when (a, b, e) is an even
    ordering of distinct indices; only nonzero constants are multiplied.
    When c is antisymmetric, J is totally antisymmetric, so these triples
    decide Jacobi as the full (d, d, d, d) tensor would.
    """
    d = len(c)
    trip = np.array(list(itertools.combinations(range(d), 3)),
                    dtype=np.intp).reshape(-1, 3)
    # index of the sorted triple each even ordering rotates to, else -1
    tri = np.full((d, d, d), -1)
    for rot in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        tri[tuple(trip[:, rot].T)] = np.arange(len(trip))
    acc = np.zeros((len(trip), d), dtype=c.dtype)
    nz = np.argwhere(c)  # rows (a, b, m)
    vals = c[tuple(nz.T)]
    for m in range(d):
        into, out = nz[:, 2] == m, nz[:, 0] == m
        t = tri[nz[into, 0, None], nz[into, 1, None], nz[out, 1]]
        keep = t >= 0
        np.add.at(acc, (t[keep], np.broadcast_to(nz[out, 2], t.shape)[keep]),
                  np.multiply.outer(vals[into], vals[out])[keep])
    return trip[acc.any(axis=1)]


def to_text(alg):
    """Serialize to the structured text format: sparse rational entries of
    the structure constants, the inner product and the matrix realization."""
    lines = [f"algebra {alg.name}", f"dim {alg.dim}", "labels " + " ".join(alg.basis_labels)]
    if alg.complex_n is not None:
        lines.append(f"complex_n {alg.complex_n}")
    lines += [f"c {i} {j} {k} {v}" for (i, j, k), v in np.ndenumerate(alg.structure)
              if i < j and v != 0]
    lines += [f"ip {i} {j} {v}" for (i, j), v in np.ndenumerate(alg.inner_product)
              if i <= j and v != 0]
    if alg.matrices is not None:
        lines.append(f"matrix_size {alg.matrices[0].shape[0] if alg.dim else 1}")
        lines += [f"mat {t} {r} {s} {v}" for t, m in enumerate(alg.matrices)
                  for (r, s), v in np.ndenumerate(m) if v != 0]
    return "\n".join(lines) + "\n"


def checked_entries(key, entries, shape):
    """The (indices, value) pairs of sparse `key` lines; ValueError unless
    every index fits shape."""
    for idx, v in entries:
        if len(idx) != len(shape) or not all(0 <= i < n for i, n in zip(idx, shape)):
            raise ValueError(f"{key} {' '.join(map(str, idx))}: index out of "
                             f"range for shape {shape}")
        yield tuple(idx), v


def header_int(head, key):
    """The integer on header line `key`; ValueError if the line is bare."""
    if not head[key]:
        raise ValueError(f"{key}: missing value")
    return int(head[key][0])


def from_text(text):
    head, entries = {}, {"c": [], "ip": [], "mat": []}
    for raw in text.splitlines():
        parts = raw.split()
        if parts and parts[0] in entries:
            entries[parts[0]].append((list(map(int, parts[1:-1])), Fraction(parts[-1])))
        elif parts:  # header lines; unknown keys and comments are ignored
            head[parts[0]] = parts[1:]
    if "algebra" not in head or "dim" not in head:
        raise ValueError("missing algebra header")
    dim = header_int(head, "dim")
    c = ex.fzeros((dim, dim, dim))
    for (i, j, k), v in checked_entries("c", entries["c"], c.shape):
        c[i, j, k], c[j, i, k] = v, -v
    ip = ex.fzeros((dim, dim))
    for (i, j), v in checked_entries("ip", entries["ip"], ip.shape):
        ip[i, j] = ip[j, i] = v
    mats = None
    if "matrix_size" in head:
        size = header_int(head, "matrix_size")
        mats = tuple(ex.fzeros((size, size)) for _ in range(dim))
        for (t, r, s), v in checked_entries("mat", entries["mat"],
                                            (dim, size, size)):
            mats[t][r, s] = v
    return LieAlgebraModel(
        name=" ".join(head["algebra"]), dim=dim,
        basis_labels=tuple(head.get("labels") or (f"X{k + 1}" for k in range(dim))),
        structure=c, inner_product=ip, matrices=mats,
        complex_n=header_int(head, "complex_n") if "complex_n" in head else None,
    )
