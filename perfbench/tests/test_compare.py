"""Self-test of the benchmark's output comparator.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import compare  # noqa: E402
import run  # noqa: E402


def exact(rows):
    return np.array(rows, dtype=object)


class ComparatorTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "expected.json")) as fh:
            self.expected = json.load(fh)

    def cli_record(self, workload, command):
        return json.loads(json.dumps(
            self.expected[workload]["commands"][command]))

    def test_recorded_outputs_match_themselves(self):
        for workload in ("cli_spaces", "cli_bundles", "api_warm"):
            rec = self.expected[workload]
            self.assertEqual(compare.mismatches(rec, json.loads(json.dumps(rec))), [])

    def test_changed_fraction_digest(self):
        from symcurv import symspace as ss

        curv = ss.curvature_operator(ss.catalog("S4")).matrix
        want = self.expected["cli_bundles"]["digests"]["verify S4 spin4:(1,0)"]
        got = dict(want, curvature=compare.fraction_digest(curv))
        self.assertEqual(compare.mismatches(want, got), [])
        # the same values as integers hash the same; a changed entry does not
        as_int = exact([[int(v) if v.denominator == 1 else v for v in row]
                        for row in curv])
        self.assertEqual(compare.fraction_digest(as_int), want["curvature"])
        curv[0, 1] += Fraction(1, 7)
        got["curvature"] = compare.fraction_digest(curv)
        self.assertTrue(compare.mismatches(want, got))

    def test_changed_exit_code(self):
        want = self.cli_record("cli_spaces", "info S7")
        got = dict(want, exit_code=2)
        self.assertTrue(compare.mismatches(want, got))

    def test_float_outside_tolerance(self):
        want = self.cli_record("cli_bundles", "charclasses S4 spin4:(1,0)")
        for key, value in want["stdout"].items():
            if isinstance(value, float) and value:
                break
        got = json.loads(json.dumps(want))
        got["stdout"][key] = value * (1 + 1e-10)
        self.assertEqual(compare.mismatches(want, got), [])
        got["stdout"][key] = value * (1 + 1e-8)
        self.assertTrue(compare.mismatches(want, got))

    def test_accepted_perturbed_input(self):
        exp = self.expected["api_warm"]
        key = next(k for k in exp["results"] if k.startswith("S4|spin4"))
        base, label = key.split("|")
        want = run.api_expected(exp, [base, [label], True])
        self.assertEqual(compare.mismatches(want, {"rejected": True}), [])
        self.assertTrue(compare.mismatches(want, {"rejected": False}))
        # an unperturbed operation is held to its recorded result instead
        want = run.api_expected(exp, [base, [label], False])
        self.assertEqual(want, exp["results"][key])

    def test_bool_is_not_an_int(self):
        self.assertTrue(compare.mismatches(1, True))
        self.assertTrue(compare.mismatches({"ok": True}, {"ok": 1}))


if __name__ == "__main__":
    unittest.main()
