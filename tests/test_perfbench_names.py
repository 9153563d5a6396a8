"""Fast guard for the benchmark tracer: every attribute it wraps must exist.

``perfbench/spans.py`` replaces named functions of the package with traced
wrappers.  A rename in the package would otherwise surface only in the
benchmark's own self-test, which is slow.  This test loads the module by
path and resolves its targets without installing anything.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_attributes_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = []
    for owner, attr, name in spans.targets():
        # the tracer reads the owner's own __dict__, not an inherited attribute
        assert attr in vars(owner), f"{name}: {owner.__name__} has no attribute {attr!r}"
        names.append(name)
    assert names and len(set(names)) == len(names)
    assert set(spans.COUNTS) <= set(names)
