"""Homomorphism check for the representations the tests build.

The tests import it as a sibling module: pytest puts this directory on
sys.path because it has no __init__.py.
"""

from dataclasses import dataclass

import numpy as np

from symcurv.linalg import CHECK_TOL, combine


@dataclass(frozen=True)
class HomReport:
    ok: bool
    max_bracket_error: float
    max_skew_error: float
    max_jc_error: float


def validate_homomorphism(rep) -> HomReport:
    """Bracket, skewness and complex-structure residuals of rep, in
    stacked products, judged against CHECK_TOL."""
    im = rep.images
    i, j = np.triu_indices(rep.source.dim, 1)
    lhs = im[i] @ im[j] - im[j] @ im[i]
    rhs = combine(np.asarray(rep.source.structure, dtype=float)[i, j], im)
    bracket_err = float(np.abs(lhs - rhs).max(initial=0.0))
    skew_err = float(np.abs(im + im.transpose(0, 2, 1)).max(initial=0.0))
    jc_err = 0.0
    if rep.complex_structure is not None:
        jc = rep.complex_structure
        jc_err = max(np.abs(jc @ jc + np.eye(rep.target_dim)).max(),
                     np.abs(jc @ im - im @ jc).max(initial=0.0))
    ok = max(bracket_err, skew_err, jc_err) <= CHECK_TOL
    return HomReport(ok, bracket_err, skew_err, jc_err)
