"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name.  These checks read those names from its source and resolve them in
the package; they never install the tracer, which would rebind functions
for the whole test session."""

import ast
import importlib
from pathlib import Path

from invtheory import QQ, polynomial_ring
from invtheory.groebner import _IncrementalGroebner

TRACER = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text())


def literal(name):
    """The literal value the tracer assigns to a module-level ``name``."""
    for node in TRACER.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def resolve(module, attr):
    """What `tracer.patch` would wrap: a module function, or a method from
    its class's own namespace."""
    owner = importlib.import_module(f"invtheory.{module}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        return getattr(owner, owner_name).__dict__[name]
    return getattr(owner, name)


def counted_names():
    """The (module, attr) pairs the counting pass patches."""
    names = [("fields", f"Field.{op}") for op in literal("FIELD_OPS")]
    for node in ast.walk(TRACER):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch"
                and all(isinstance(arg, ast.Constant) for arg in node.args[:2])):
            names.append((node.args[0].value, node.args[1].value))
    return names


def test_every_span_target_resolves():
    for span, (module, attr) in literal("SPANS").items():
        assert callable(resolve(module, attr)), span


def test_every_counted_name_resolves():
    names = counted_names()
    for attr in ("reduce", "add_generator", "process_to"):
        assert ("groebner", f"_IncrementalGroebner.{attr}") in names
    for module, attr in names:
        assert callable(resolve(module, attr)), (module, attr)


def test_counted_engine_results_read_as_the_tracer_reads_them():
    # the counting pass takes the coefficient bits of what `reduce` returns
    # and the basis size as len(engine.elements)
    ring = polynomial_ring(QQ, ("x", "y"))
    engine = _IncrementalGroebner(ring)
    assert engine.add_generator(ring.parse("x^2 - 3*y"))
    engine.process_to(None)
    assert len(engine.elements) == 1
    result = engine.reduce(engine._to_internal(ring.parse("x^3 + 2*y")))
    assert max(abs(v).bit_length() for v in result.values()) > 0
