"""Text front end: polynomial expressions, element literals, sequences.

Polynomial grammar (whitespace ignored, coefficients reduced mod p as
they are parsed):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := uint | 'x' | '(' expr ')'

The explicit form ``coeffs:c0,c1,...,cn`` lists little-endian
coefficients directly. Printing uses descending-degree form with explicit
``*`` and ``^``, so printed polynomials re-parse to themselves.

Sequence literals are semicolon-separated element literals, each with an
optional top-level ``*m`` multiplicity suffix (``2*4`` is four copies of
the constant 2; write ``(x*2)`` or ``2*x`` for the polynomial). Elements
of adjoined-zero cyclic semigroups are written ``g^k`` / ``g`` / ``inf``,
product elements as parenthesized comma-separated tuples.
"""

from __future__ import annotations

from .gfpoly import Poly, validate_prime
from .semigroup import INF, FiniteSemigroup
from .zerosum import Sequence


class ParseError(ValueError):
    """Syntax error with the offending offset into the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class _PolyParser:
    def __init__(self, text: str, p: int):
        self.text = text
        self.p = p
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start : self.pos])

    def parse(self) -> Poly:
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
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

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek() == "*":
            self.eat("*")
            acc = acc * self.factor()
        return acc

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() == "^":
            self.eat("^")
            return base ** self.uint()
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
        self.error("expected a coefficient, 'x', or '('")
        raise AssertionError  # unreachable


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
        orders = getattr(S, "orders", None)
        if orders is not None and len(orders) == 1:
            return _parse_cyclic_literal(t, orders[0], allow_inf=False)
        if not (t.startswith("(") and t.endswith(")")):
            raise ParseError(f"expected a tuple literal, got {text!r}", 0)
        comps = _split_top_level(t[1:-1], ",")
        if orders is None or len(comps) != len(orders):
            raise ParseError(f"tuple arity mismatch in {text!r}", 0)
        return tuple(
            _parse_cyclic_literal(c, n, allow_inf=False)
            for c, n in zip(comps, orders)
        )
    if S.kind == "product":
        if not (t.startswith("(") and t.endswith(")")):
            raise ParseError(f"expected a tuple literal, got {text!r}", 0)
        comps = _split_top_level(t[1:-1], ",")
        if S.factors is None or len(comps) != len(S.factors):
            raise ParseError(f"tuple arity mismatch in {text!r}", 0)
        return tuple(
            _parse_element_value(f, c) for f, c in zip(S.factors, comps)
        )
    raise ParseError(f"no element syntax for semigroup kind {S.kind!r}", 0)


def _split_multiplicity(item: str) -> tuple[str, int]:
    """Strip a trailing top-level ``*m`` multiplicity from one sequence item."""
    depth = 0
    star = -1
    for i, ch in enumerate(item):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "*" and depth == 0:
            star = i
    if star >= 0:
        suffix = item[star + 1 :].strip()
        if suffix.isdigit():
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
    for item in _split_top_level(t, ";"):
        if not item.strip():
            raise ParseError("empty sequence item", 0)
        lit, mult = _split_multiplicity(item.strip())
        pairs.append((parse_element(S, lit), mult))
    return Sequence(S, pairs)
