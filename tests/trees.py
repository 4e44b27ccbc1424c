"""The identity tree of a Lie algebra model, which the round-trip tests
compare: its name, dimension and complex_n, then its factors' trees.

The tests import it as a sibling module, as they do homomorphism.py.
"""


def algebra_tree(alg):
    return alg.name, alg.dim, alg.complex_n, tuple(map(algebra_tree,
                                                       alg.factors))
