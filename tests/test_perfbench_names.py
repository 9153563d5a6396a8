"""Fast guards for the benchmark: every package name it reads must exist.

``perfbench/spans.py`` replaces named functions of the package with traced
wrappers, and the other benchmark modules read package names through
``from statefx import <module>``.  A rename in the package would otherwise
surface only in the benchmark's own self-test, which is slow.  These tests
read the benchmark's files by path and resolve the names without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
# attributes the benchmark reads through an instance, not through a module alias:
# (file, class path in the package, attribute)
INSTANCE_READS = [("workloads.py", "model.Model", "forward_sample")]


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


def _alias_chains(path):
    """Every maximal attribute chain read through a ``from statefx import m``
    alias in one file, as "m.attr.attr" with the alias resolved to its module."""
    tree = ast.parse(path.read_text())
    aliases = {a.asname or a.name: a.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.module == "statefx" for a in n.names}
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    chains = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and id(n) not in inner:
            parts, v = [], n
            while isinstance(v, ast.Attribute):
                parts.append(v.attr)
                v = v.value
            if isinstance(v, ast.Name) and v.id in aliases:
                chains.add(".".join([aliases[v.id], *reversed(parts)]))
    return chains


def _resolve(chain):
    module, *attrs = chain.split(".")
    obj = importlib.import_module(f"statefx.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_benchmark_package_reads_resolve():
    chains = set().union(*(_alias_chains(p) for p in sorted(PERFBENCH.glob("*.py"))))
    assert len(chains) >= 20  # the scan found the benchmark's reads, not nothing
    missing = []
    for chain in sorted(chains):
        try:
            _resolve(chain)
        except (ImportError, AttributeError):
            missing.append(chain)
    for name, owner, attr in INSTANCE_READS:
        assert f".{attr}" in (PERFBENCH / name).read_text(), f"{name} no longer reads .{attr}; drop it here"
        if not hasattr(_resolve(owner), attr):
            missing.append(f"{owner}.{attr}")
    assert missing == []
