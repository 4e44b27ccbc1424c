"""Finite-dimensional real Lie algebras with exact rational structure constants.

Complex algebras (u(n), su(n)) are realified: a complex matrix X + iY is
stored as the real matrix [[X, -Y], [Y, X]]. The invariant inner product
is <A, B> = tr(A^T B) / 2 on the chosen matrix realization.
"""

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

    def bracket(self, v, w):
        """Bracket of coefficient vectors, via the structure constants."""
        v = np.asarray(v, dtype=object)
        w = np.asarray(w, dtype=object)
        t = np.tensordot(v, self.structure, axes=(0, 0))
        return np.tensordot(w, t, axes=(0, 0))

    def structure_float(self):
        return np.asarray(self.structure, dtype=float)


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_ok: bool
    jacobi_ok: bool
    invariance_ok: bool
    witness: tuple | None  # first failing (check_name, indices)

    @property
    def ok(self):
        return self.antisymmetry_ok and self.jacobi_ok and self.invariance_ok


def _structure_from_matrices(mats, ip):
    """Structure constants of a matrix Lie algebra via exact Gram solve."""
    d = len(mats)
    gram = ex.fzeros((d, d))
    for i in range(d):
        for j in range(i, d):
            gram[i, j] = gram[j, i] = ip(mats[i], mats[j])
    c = ex.fzeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            comm = ex.commutator(mats[i], mats[j])
            rhs = ex.farray([ip(mats[k], comm) for k in range(d)])
            coeffs = ex.solve(gram, rhs)
            c[i, j, :] = coeffs
            c[j, i, :] = -coeffs
    return c, gram


def _from_matrices(name, labels, mats, complex_n=None):
    c, gram = _structure_from_matrices(mats, ex.trace_form)
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
    c = ex.fzeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            br = alg.bracket(p[i], p[j])
            coeffs = np.tensordot(pinv.T, br, axes=(1, 0))
            c[i, j, :] = coeffs
            c[j, i, :] = -coeffs
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
    c = alg.structure
    d = alg.dim
    witness = None
    anti_ok = True
    for i in range(d):
        for j in range(d):
            if any(v != 0 for v in (c[i, j] + c[j, i])):
                anti_ok = False
                witness = witness or ("antisymmetry", (i, j))
    jac_ok = _jacobi_ok(c)
    if not jac_ok and witness is None:
        witness = ("jacobi", _jacobi_witness(c))
    inv_ok = True
    ip = alg.inner_product
    for i in range(d):
        for j in range(d):
            for k in range(d):
                v = np.dot(c[i, j], ip[:, k]) + np.dot(c[i, k], ip[:, j])
                if v != 0:
                    inv_ok = False
                    witness = witness or ("invariance", (i, j, k))
                    break
            if not inv_ok:
                break
        if not inv_ok:
            break
    return ValidationReport(anti_ok, jac_ok, inv_ok, witness)


def _as_int_tensor(c):
    flat = c.reshape(-1)
    out = np.empty(len(flat), dtype=np.int64)
    for i, v in enumerate(flat):
        if not isinstance(v, Fraction) or v.denominator != 1:
            return None
        n = v.numerator
        if abs(n) > 2**20:
            return None
        out[i] = n
    return out.reshape(c.shape)


def _jacobi_ok(c):
    ci = _as_int_tensor(c)
    if ci is not None:
        # exact in int64: entries and dims are tiny
        t = np.einsum("ijm,mkl->ijkl", ci, ci)
        total = t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)
        return not total.any()
    d = c.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            cij = c[i, j]
            for k in range(j + 1, d):
                s = (
                    np.tensordot(cij, c[:, k, :], axes=(0, 0))
                    + np.tensordot(c[j, k], c[:, i, :], axes=(0, 0))
                    + np.tensordot(c[k, i], c[:, j, :], axes=(0, 0))
                )
                if any(v != 0 for v in s):
                    return False
    return True


def _jacobi_witness(c):
    d = c.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                s = (
                    np.tensordot(c[i, j], c[:, k, :], axes=(0, 0))
                    + np.tensordot(c[j, k], c[:, i, :], axes=(0, 0))
                    + np.tensordot(c[k, i], c[:, j, :], axes=(0, 0))
                )
                if any(v != 0 for v in s):
                    return (i, j, k)
    return None


def killing_form(alg):
    c = alg.structure
    d = alg.dim
    k = ex.fzeros((d, d))
    for i in range(d):
        for j in range(d):
            k[i, j] = sum(c[i, m, l] * c[j, l, m] for m in range(d) for l in range(d))
    return k


def to_text(alg):
    """Serialize to the structured text format (sparse rational triples)."""
    lines = [f"algebra {alg.name}", f"dim {alg.dim}", "labels " + " ".join(alg.basis_labels)]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(alg.dim):
                v = alg.structure[i, j, k]
                if v != 0:
                    lines.append(f"c {i} {j} {k} {v}")
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            v = alg.inner_product[i, j]
            if v != 0:
                lines.append(f"ip {i} {j} {v}")
    return "\n".join(lines) + "\n"


def from_text(text):
    name, dim, labels = None, None, None
    triples, ips = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "algebra":
            name = " ".join(parts[1:])
        elif parts[0] == "dim":
            dim = int(parts[1])
        elif parts[0] == "labels":
            labels = tuple(parts[1:])
        elif parts[0] == "c":
            triples.append((int(parts[1]), int(parts[2]), int(parts[3]), Fraction(parts[4])))
        elif parts[0] == "ip":
            ips.append((int(parts[1]), int(parts[2]), Fraction(parts[3])))
    if name is None or dim is None:
        raise ValueError("missing algebra header")
    c = ex.fzeros((dim, dim, dim))
    for i, j, k, v in triples:
        c[i, j, k] = v
        c[j, i, k] = -v
    ip = ex.fzeros((dim, dim))
    for i, j, v in ips:
        ip[i, j] = v
        ip[j, i] = v
    return LieAlgebraModel(
        name=name, dim=dim,
        basis_labels=labels or tuple(f"X{k + 1}" for k in range(dim)),
        structure=c, inner_product=ip,
    )
