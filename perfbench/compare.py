"""Compare actual results with the expected results recorded in expected.json.

Exit codes, booleans, integers, strings (labels, digests) and None must
match exactly. Floats match when |a - b| <= 1e-9 * max(1, |b|), so that
last-digit changes from a different summation order pass while any real
change in a reported number does not.
"""

from fractions import Fraction

FLOAT_RTOL = 1e-9


def fraction_digest(array):
    """SHA-256 of an exact array: its shape, then each entry as a reduced
    fraction in C order. Entries may be Fractions or integers.

    hashlib is imported here, not at module level: it loads OpenSSL, about
    4 MB that would otherwise count in the peak RSS of a measured child."""
    import hashlib

    h = hashlib.sha256(repr(tuple(array.shape)).encode())
    for v in array.reshape(-1):
        h.update(b";" + str(Fraction(v)).encode())
    return h.hexdigest()


def mismatches(expected, actual, path="$"):
    """List of human-readable differences; empty when actual matches."""
    if isinstance(expected, float) and type(actual) in (int, float):
        if abs(actual - expected) <= FLOAT_RTOL * max(1.0, abs(expected)):
            return []
        return [f"{path}: {actual!r} != {expected!r} (float tolerance)"]
    if type(expected) is not type(actual):
        return [f"{path}: {actual!r} != {expected!r} (type)"]
    if isinstance(expected, dict):
        out = [f"{path}: missing key {k!r}" for k in expected if k not in actual]
        out += [f"{path}: unexpected key {k!r}" for k in actual if k not in expected]
        for k in expected:
            if k in actual:
                out += mismatches(expected[k], actual[k], f"{path}.{k}")
        return out
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{path}[{i}]")
        return out
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]
