"""The bracket structure of the eigenspaces of R^M, which only the tests
check.

The tests import it as a sibling module, as they do homomorphism.py.
"""

import numpy as np

from symcurv.linalg import bivector_bracket, project, row_norms


def eigenspace_structure_residuals(curv):
    """Residuals of the eigenspace bracket structure of R^M.

    Returns the worst-case residuals of: (a) each nonzero eigenspace being
    closed under the bracket, (b) distinct nonzero eigenspaces commuting,
    and (c) the image being closed under the bracket. The kernel is NOT
    required to be closed and is not checked.
    """
    n = curv.m_dim
    nonzero = [(lam, b) for lam, b in curv.eigendata if lam != 0.0]

    def brackets(ba, bb):  # rows: [a_i, b_j] for every column pair
        return bivector_bracket(ba.T[:, None], bb.T[None], n).reshape(-1, len(ba))

    def off_span(vecs, basis):
        return float(row_norms(project(basis, vecs)[1]).max(initial=0.0))

    sub = 0.0
    comm = 0.0
    for i, (_, ba) in enumerate(nonzero):
        sub = max(sub, off_span(brackets(ba, ba), ba))
        for _, bb in nonzero[i + 1 :]:
            comm = max(comm, float(row_norms(brackets(ba, bb)).max(initial=0.0)))
    if nonzero:
        image = np.concatenate([b for _, b in nonzero], axis=1)
        closed = off_span(brackets(image, image), image)
    else:
        closed = 0.0
    return {"subalgebra": sub, "commuting": comm, "image_closed": closed}
