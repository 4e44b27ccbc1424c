"""The paper's R^2 counterexample: a bundle curvature that satisfies the
bracket identity but is not induced, built from the Condition A witness.

The tests import it as a sibling module, as they do homomorphism.py.
"""

import dataclasses

import numpy as np

from symcurv import bundles as bn
from symcurv import reps
from symcurv import symspace as ss


def twisted_bundle(space, w):
    """R^E(a) = rho-hat(R^M a) + <w, a> Z for rho-hat the tangent rep plus
    trivial:2, and Z = J on the trivial:2 summand. Z commutes with rho-hat,
    and <w, [R^M a, b]> = 0 when w commutes with Im R^M, so the bracket
    identity holds; R^E(w) = |w|^2 Z breaks kernel inclusion."""
    rep = reps.direct_sum(ss.isotropy_rep(space),
                          reps.trivial_rep(space.isotropy_ref, 2))
    bundle = bn.induce(space, rep)
    z = np.zeros((rep.target_dim, rep.target_dim))
    z[-2:, -2:] = [[0.0, -1.0], [1.0, 0.0]]
    return dataclasses.replace(bundle,
                               blocks=bundle.blocks + w[:, None, None] * z)


def is_counterexample(space, w):
    """The twisted bundle passes the bracket identity, and fails kernel
    inclusion and the reconstruction roundtrip, through check_suite."""
    checks = bn.check_suite(twisted_bundle(space, w))
    return (checks["bracket_identity"].ok
            and not checks["kernel_inclusion"].ok
            and not checks["reconstruction_roundtrip"].ok)
