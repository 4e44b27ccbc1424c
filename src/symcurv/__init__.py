"""Curvature of parallel connections over symmetric spaces.

Modules:
    _exact       exact rational kernels, pivots and solves; scaled integers
    linalg       bivector/skew identification, clustered spectra, tolerances
    liealg       exact-rational Lie algebra models (so(n), su(n), u(n), products)
    symspace     Cartan pairs, curvature operators, Condition A, space catalog
    reps         orthogonal representations and type classification
    bundles      induced curvature, reconstruction, characteristic numbers
    spherebundle scalar curvature of connection metrics on sphere bundles
    cli          command-line front end
"""

import sys

__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: a submodule is imported on first use
    if name in "bundles liealg linalg reps spherebundle symspace".split():
        # `from . import x` also calls this; -X importtime logs __import__
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
