"""One value base: equality, hashing and repr come from ``tmagic.value``."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import tmagic
from tmagic.catalog import MagicDecomposition, t3_decomposition
from tmagic.pauli import PauliOperator, PauliProjector
from tmagic.phase_ring import ExactAmplitude
from tmagic.stabilizer import StabilizerState
from tmagic.value import Value

_SRC = Path(tmagic.__file__).resolve().parent


def _classes():
    """(module, class node) for every class defined in ``tmagic``."""
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield f"tmagic.{path.stem}", node


def test_only_value_defines_eq_hash_repr():
    for module, node in _classes():
        if (module, node.name) == ("tmagic.value", "Value"):
            continue
        defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        assert not defined & {"__eq__", "__hash__", "__repr__"}, \
            f"{module}.{node.name} writes its own value methods"


def test_fields_are_the_constructor_parameters():
    # so every repr is constructor syntax
    found = set()
    for module, node in _classes():
        if any(isinstance(b, ast.Name) and b.id == "Value" for b in node.bases):
            cls = getattr(importlib.import_module(module), node.name)
            params = list(inspect.signature(cls.__init__).parameters)[1:]
            assert cls._fields == tuple(params), node.name
            found.add(node.name)
    assert found == {"ExactAmplitude", "PauliOperator", "PauliProjector",
                     "StabilizerState", "MagicDecomposition"}


_Z = PauliOperator(2, beta=1)
_VALUES = [
    (ExactAmplitude(3, 1, 4, 1, 5), (3, 1, 4, 1, 5)),
    (PauliOperator(3, 1, 2, 4, 3), (3, 1, 2, 4, 3)),
    (PauliProjector(2, ((_Z, -1),)), (2, ((_Z, -1),))),
    (StabilizerState.computational(2, 1), (2, (), 1, (), (), 0,
                                           ExactAmplitude(1))),
    (t3_decomposition(), (3, t3_decomposition().terms)),
]


@pytest.mark.parametrize("x, fields", _VALUES,
                         ids=[type(x).__name__ for x, _ in _VALUES])
def test_hash_and_repr_read_the_fields(x, fields):
    assert hash(x) == hash(fields)
    assert eval(repr(x), vars(importlib.import_module(type(x).__module__))) == x


def test_one_field_value_hashes_as_its_one_tuple():
    class Wrapped(Value):
        __slots__ = _fields = ("v",)

        def __init__(self, v):
            self.v = v

    assert hash(Wrapped(7)) == hash((7,))
    assert repr(Wrapped(7)) == "Wrapped(v=7)"
    assert Wrapped(7) == Wrapped(7) and Wrapped(7) != Wrapped(8)
    assert Wrapped(7) != (7,) and Wrapped(7) != 7


def test_classes_with_equal_fields_differ():
    a, b = PauliProjector(2, ()), MagicDecomposition(2, ())
    assert hash(a) == hash(b)
    assert a != b and b != a
    assert not a == b and not b == a
    assert {a: 0, b: 1}[a] == 0 and len({a: 0, b: 1}) == 2
