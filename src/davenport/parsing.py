"""Text front end: polynomial expressions, element literals, sequences.

Polynomial grammar (whitespace ignored, coefficients reduced mod p as
they are parsed):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := uint | 'x' | '(' expr ')'

A power or product whose degree would exceed ``MAX_DEGREE`` is a
``ParseError``, raised before it is expanded.

The explicit form ``coeffs:c0,c1,...,cn`` lists little-endian
coefficients directly. Printing uses descending-degree form with explicit
``*`` and ``^``, so printed polynomials re-parse to themselves.

Sequence literals are semicolon-separated element literals, each with an
optional top-level ``*m`` multiplicity suffix (``2*4`` is four copies of
the constant 2; write ``(x*2)`` or ``2*x`` for the polynomial). Elements
of adjoined-zero cyclic semigroups are written ``g^k`` / ``g`` / ``inf``,
product elements as parenthesized comma-separated tuples. A sequence
longer than ``MAX_SEQUENCE_LENGTH`` in total is a ``ParseError``.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

from .gfpoly import Poly, validate_prime
from .semigroup import INF, FiniteSemigroup
from .zerosum import Sequence


MAX_DEGREE = 1024
"""Largest degree a product or power may reach while an expression is parsed."""

MAX_SEQUENCE_LENGTH = 1 << 16
"""Largest total length of a sequence literal. Universes have at most 256
elements, so a longer sequence has two equal prefix products and is
reducible: the cap loses no sequence of interest."""


class ParseError(ValueError):
    """Syntax error with the offending offset into the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


@contextmanager
def _at(offset: int):
    """Shift the offset of a ParseError raised inside the block by ``offset``:
    a part parsed on its own reports where it sits in the enclosing text."""
    try:
        yield
    except ParseError as err:
        raise ParseError(err.message, err.position + offset) from None


class _PolyParser:
    def __init__(self, text: str, p: int):
        self.text = text
        self.p = p
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

    def parse(self) -> Poly:
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return result

    def expr(self) -> Poly:
        negate = False
        if self.peek() == "-":
            self.eat("-")
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.eat(op)
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def check_degree(self, degree: int):
        if degree > MAX_DEGREE:
            raise self.error(f"degree {degree} exceeds the cap of {MAX_DEGREE}")

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek() == "*":
            self.eat("*")
            rhs = self.factor()
            self.check_degree(acc.degree + rhs.degree)
            acc = acc * rhs
        return acc

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() == "^":
            self.eat("^")
            k = self.uint()
            self.check_degree(base.degree * k)
            return base ** k
        return base

    def atom(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            self.eat("(")
            inner = self.expr()
            self.eat(")")
            return inner
        if ch == "x":
            self.pos += 1
            return Poly(self.p, [0, 1])
        if ch.isdigit():
            return Poly(self.p, [self.uint()])
        raise self.error("expected a coefficient, 'x', or '('")


def parse_poly_expr(text: str, p: int) -> Poly:
    """Parse a polynomial over F_p from expression or ``coeffs:`` form."""
    validate_prime(p)
    stripped = text.strip()
    if stripped.startswith("coeffs:"):
        body = stripped[len("coeffs:") :]
        try:
            coeffs = [int(c.strip()) for c in body.split(",")] if body else []
        except ValueError:
            raise ParseError("coeffs: form needs comma-separated integers",
                             text.find(":") + 1) from None
        return Poly(p, coeffs)
    parser = _PolyParser(text, p)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.pos) from None


def _parse_cyclic_literal(text: str, n: int, allow_inf: bool):
    t = text.strip()
    if t == "inf":
        if not allow_inf:
            raise ParseError("this semigroup has no absorbing element", 0)
        return INF
    if t == "g":
        return 1 % n
    if t.startswith("g^"):
        body = t[2:]
        if not body.isdigit():
            raise ParseError(f"bad exponent in {text!r}", 2)
        return int(body) % n
    raise ParseError(f"expected g^k, g, or inf, got {text!r}", 0)


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", i)
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '('", len(text))
    parts.append(text[start:])
    return parts


def _parts_at(text: str, sep: str) -> list[tuple[int, str]]:
    """The stripped top-level parts of text, each with the offset of its
    first non-blank character (of its end when it is blank)."""
    out = []
    start = 0
    for part in _split_top_level(text, sep):
        out.append((start + len(part) - len(part.lstrip()), part.strip()))
        start += len(part) + 1
    return out


def parse_element(S: FiniteSemigroup, text: str) -> int:
    """Parse one element literal of S; returns its universe index."""
    value = _parse_element_value(S, text)
    idx = S.index_of.get(value)
    if idx is None:
        raise ParseError(f"{text!r} is not an element of this semigroup", 0)
    return idx


def _parse_element_value(S: FiniteSemigroup, text: str):
    t = text.strip()
    if S.kind == "quotient":
        return parse_poly_expr(t, S.p) % S.modulus
    if S.kind == "cyclic_with_zero":
        return _parse_cyclic_literal(t, S.n, allow_inf=True)
    if S.kind == "abelian_group":
        orders = getattr(S, "orders", None) or ()
        if len(orders) == 1:
            return _parse_cyclic_literal(t, orders[0], allow_inf=False)
        coords = [partial(_parse_cyclic_literal, n=n, allow_inf=False) for n in orders]
    elif S.kind == "product":
        coords = [partial(_parse_element_value, f) for f in S.factors or ()]
    else:
        raise ParseError(f"no element syntax for semigroup kind {S.kind!r}", 0)
    if not (t.startswith("(") and t.endswith(")")):
        raise ParseError(f"expected a tuple literal, got {text!r}", 0)
    with _at(1):
        comps = _parts_at(t[1:-1], ",")
    if len(comps) != len(coords):
        raise ParseError(f"tuple arity mismatch in {text!r}", 0)
    out = []
    for (at, c), parse in zip(comps, coords):
        with _at(1 + at):
            out.append(parse(c))
    return tuple(out)


def _split_multiplicity(item: str) -> tuple[str, int]:
    """Strip a trailing top-level ``*m`` multiplicity from one sequence item,
    which the split on ``;`` has already checked to be balanced."""
    *_, suffix = _split_top_level(item, "*")
    if suffix != item and suffix.strip().isdigit():
        star = len(item) - len(suffix) - 1
        mult = int(suffix)
        if mult < 1:
            raise ParseError("multiplicity must be >= 1", star + 1)
        return item[:star], mult
    return item, 1


def parse_sequence(S: FiniteSemigroup, text: str) -> Sequence:
    """Parse a sequence literal (semicolon-separated, ``*m`` multiplicities)."""
    t = text.strip()
    if not t:
        return Sequence.empty(S)
    pairs = []
    length = 0
    with _at(len(text) - len(text.lstrip())):
        for at, item in _parts_at(t, ";"):
            with _at(at):
                if not item:
                    raise ParseError("empty sequence item", 0)
                lit, mult = _split_multiplicity(item)
                length += mult
                if length > MAX_SEQUENCE_LENGTH:
                    raise ParseError(
                        f"sequence length {length} exceeds the cap of {MAX_SEQUENCE_LENGTH}", 0
                    )
                pairs.append((parse_element(S, lit), mult))
    return Sequence(S, pairs)
