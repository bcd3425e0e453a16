"""Package structure: the boundaries between the modules of ``davenport``,
and the guards and protocol methods of its value types."""

import ast
import operator
from pathlib import Path

import pytest

import davenport
from davenport import INF, Sequence, build_cyclic_with_zero, find_reduction, poly

SRC = Path(davenport.__file__).parent


def test_no_module_imports_another_modules_private_name():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_exports_resolve():
    assert [name for name in davenport.__all__ if not hasattr(davenport, name)] == []


class TestGuardsAndProtocol:
    """The immutability guards, hashing, reprs and argument checks of the
    value types."""

    C = build_cyclic_with_zero(2)

    @pytest.mark.parametrize(
        "obj,attr",
        [(poly(3, 1), "p"), (Sequence.empty(C), "pairs")],
        ids=["Poly", "Sequence"],
    )
    def test_immutable(self, obj, attr):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, attr, None)

    def test_equal_sequences_hash_equal(self):
        T, U = Sequence(self.C, [(1, 2)]), Sequence(self.C, [(1, 1), (1, 1)])
        assert T == U and hash(T) == hash(U)

    @pytest.mark.parametrize(
        "obj,text",
        [
            (poly(3, 1, 2, 1), "Poly(p=3, x^2+2*x+1)"),
            (Sequence(C, [(1, 2), (2, 1)]), "Sequence[g*2;inf]"),
            (Sequence.empty(C), "Sequence[]"),
            (C, "FiniteSemigroup(kind='cyclic_with_zero', size=3)"),
            (INF, "inf"),
        ],
    )
    def test_repr(self, obj, text):
        assert repr(obj) == text

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            poly(3, 1) ** -1

    @pytest.mark.parametrize("op", [operator.add, operator.mul, divmod])
    def test_mixed_moduli_rejected(self, op):
        with pytest.raises(ValueError, match="mixed moduli"):
            op(poly(3, 1, 1), poly(5, 1, 1))

    @pytest.mark.parametrize(
        "op",
        [operator.add, operator.sub, operator.mul, operator.mod, divmod,
         lambda a, b: b + a, lambda a, b: b * a],
        ids=["+", "-", "*", "%", "divmod", "int+", "int*"],
    )
    def test_int_operand_rejected(self, op):
        with pytest.raises(TypeError):
            op(poly(3, 1, 1), 1)

    def test_empty_sequence_has_no_reduction(self):
        assert find_reduction(Sequence.empty(self.C)) is None
