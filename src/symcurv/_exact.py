"""Exact rational dense linear algebra on small matrices.

Exact values are numpy object arrays filled with fractions.Fraction. Sizes
are tiny (dims <= ~40), so plain Gaussian elimination is fine and keeps
every rank/kernel computation exact. Bulk products (structure constants,
the curvature operator, Condition A brackets) run on scaled integers
instead: scale_to_int writes an array as integer numerators over one
common denominator, int_matmul multiplies those, and from_scaled_int
turns the result back into Fractions.
"""

import math
from fractions import Fraction

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build exact rational from {type(x).__name__}")


def farray(data):
    """Object ndarray of Fractions from nested ints/strings/Fractions."""
    a = np.array(data, dtype=object)
    flat = a.reshape(-1)
    for i, v in enumerate(flat):
        flat[i] = frac(v)
    return flat.reshape(a.shape)


def fzeros(shape):
    a = np.empty(shape, dtype=object)
    a[...] = ZERO
    return a


def feye(n):
    a = fzeros((n, n))
    np.fill_diagonal(a, ONE)
    return a


def scale_to_int(a):
    """(num, den) with a == num / den exactly and den the least common
    denominator of the entries. num is int64 when every entry is below 2**31,
    so that a product of two entries, or a sum of two such products, fits in
    int64 (longer products go through int_matmul); else it holds Python ints."""
    a = np.asarray(a, dtype=object)
    flat = [frac(v) for v in a.reshape(-1)]
    den = math.lcm(*{v.denominator for v in flat})
    num = [v.numerator * (den // v.denominator) for v in flat]
    dtype = np.int64 if max(map(abs, num), default=0) < 2**31 else object
    return np.array(num, dtype=dtype).reshape(a.shape), den


def int_matmul(a, b):
    """a @ b, exactly, for integer arrays (int64 or Python ints). Below the
    bound, every entry, product and partial sum is an integer under 2**53,
    which float64 (BLAS) sums exactly in any order; the max(1, .) keeps each
    operand convertible when the other is all zero."""
    big_a, big_b = (max(1, int(x.max(initial=0)), -int(x.min(initial=0)))
                    for x in (a, b))
    if a.shape[-1] * big_a * big_b < 2**53:
        return (a.astype(float) @ b.astype(float)).astype(np.int64)
    return a.astype(object) @ b.astype(object)


def from_scaled_int(num, den):
    """Fraction array num / den; Fractions are built only at nonzero entries."""
    out = fzeros(num.shape)
    for idx in zip(*np.nonzero(num)):
        out[idx] = Fraction(int(num[idx]), den)
    return out


def to_float(a):
    return np.asarray(a, dtype=float)


def is_zero(a):
    return all(v == 0 for v in np.asarray(a, dtype=object).reshape(-1))


def _rref(m):
    """Reduced row echelon form of Fractions or ints, on a copy: (rref, pivots)."""
    m = np.array(m, dtype=object)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[[pr, r]] = m[[r, pr]]
        m[r] = m[r] / Fraction(m[r, c])
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m):
    return len(_rref(m)[1])


def nullspace(m):
    """(columns spanning the exact kernel of m, shape (ncols, nullity), and
    the pivot columns of its elimination, which span m's column space)."""
    red, pivots = _rref(m)
    free = [c for c in range(red.shape[1]) if c not in pivots]
    basis = fzeros((red.shape[1], len(free)))
    for k, fc in enumerate(free):
        basis[fc, k] = ONE
        for r, pc in enumerate(pivots):
            basis[pc, k] = -red[r, fc]
    return basis, pivots


def column_space(m):
    """Indices of a maximal independent subset of columns of m."""
    return _rref(m)[1]


def solve(a, b):
    """Exact solution of a x = b (b may be 1-d or 2-d). Raises on inconsistency.

    For non-square consistent systems returns the solution with free
    variables set to zero.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    vec = b.ndim == 1
    if vec:
        b = b.reshape(-1, 1)
    aug = np.concatenate([a, b], axis=1)
    red, pivots = _rref(aug)
    n = a.shape[1]
    if any(p >= n for p in pivots):
        raise ValueError("inconsistent linear system")
    x = fzeros((n, b.shape[1]))
    for r, pc in enumerate(pivots):
        x[pc] = red[r, n:]
    return x[:, 0] if vec else x


def inverse(a):
    return solve(a, feye(len(a)))


def fsqrt(q):
    """Exact square root of a nonnegative Fraction, or raise ValueError."""
    q = frac(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return ZERO
    rn = _isqrt_exact(q.numerator)
    rd = _isqrt_exact(q.denominator)
    if rn is None or rd is None:
        raise ValueError(f"{q} is not a square of a rational")
    return Fraction(rn, rd)


def _isqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None
