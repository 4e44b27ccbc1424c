"""Record the exact layer's outputs for a fixed set of catalog spaces.

Writes tests/exact_digests.json: for each space, the Fraction digests of
R^M, h_coeff and the kernel basis, the pivot columns image_cols, flat_dim
and the SHA-256 of the float ad_ref bytes. Record it at a known-good commit
before a refactor of the exact layer; test_symspace asserts it unedited.

    PYTHONPATH=src python3 tests/record_exact_digests.py
"""

import functools
import hashlib
import importlib.util
import json
import os

from symcurv import symspace as ss

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "exact_digests.json")
SPACES = ([f"S{n}" for n in range(2, 9)] + ["CP1", "CP2", "CP3", "R1", "R2",
          "SU2_group", "S2xS3", "S4xS4", "CP2xR1", "S2xR1", "CP1xS2",
          "SU2_groupxCP2", "S3xS3xS2"])


@functools.cache
def _fraction_digest():
    """perfbench/compare.fraction_digest, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_compare", os.path.join(HERE, os.pardir, "perfbench", "compare.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fraction_digest


def digests(name):
    """The recorded fields of one catalog space, computed afresh."""
    fraction_digest = _fraction_digest()
    space = ss.catalog(name)
    curv = ss.curvature_operator(space)
    return {"matrix": fraction_digest(curv.matrix),
            "h_coeff": fraction_digest(curv.h_coeff),
            "kernel_basis": fraction_digest(curv.kernel_basis),
            "image_cols": [int(c) for c in curv.image_cols],
            "flat_dim": int(space.flat_dim),
            "ad_ref_sha256": hashlib.sha256(space.ad_ref.tobytes()).hexdigest()}


def main():
    with open(PATH, "w") as fh:
        json.dump({name: digests(name) for name in SPACES}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
