"""The benchmark's layer spans wrap functions by name: every name must
resolve, or its time silently moves into the calling layer."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, (module, attrs) in spans.LAYERS.items():
        for attr in attrs:
            owner = importlib.import_module("symcurv." + module)
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}: {module}.{attr}")
    assert not missing
