"""Expression and sequence-literal parsing, including round trips."""

import random

import pytest

from davenport import (
    INF,
    Sequence,
    build_abelian_group,
    build_cyclic_with_zero,
    build_product,
    build_quotient_semigroup,
    monic_polys,
    poly,
    random_sequence,
)
from davenport.gfpoly import Poly
from davenport.parsing import (
    MAX_SEQUENCE_LENGTH,
    ParseError,
    parse_element,
    parse_poly_expr,
    parse_sequence,
)


def multiplicity(T, value) -> int:
    return dict(T.pairs).get(T.parent.index_of[value], 0)


class TestPolyExpressions:
    def test_square_expansion(self):
        assert parse_poly_expr("(x+1)^2", 3) == poly(3, 1, 2, 1)

    def test_coeffs_form(self):
        assert parse_poly_expr("coeffs:0,1", 5) == poly(5, 0, 1)
        assert parse_poly_expr("coeffs:4,0,1", 3) == poly(3, 1, 0, 1)

    def test_product_form(self):
        assert parse_poly_expr("x*(x+1)*(x+2)", 3) == poly(3, 0, 2, 0, 1)

    def test_reduction_while_parsing(self):
        assert parse_poly_expr("7*x+9", 3) == poly(3, 0, 1)

    def test_unary_minus(self):
        assert parse_poly_expr("-x+1", 3) == poly(3, 1, 2)
        assert parse_poly_expr("(-x)^2", 3) == poly(3, 0, 0, 1)

    def test_binary_minus(self):
        assert parse_poly_expr("x^2-1", 3) == poly(3, 2, 0, 1)
        assert parse_poly_expr("x-x", 3).is_zero()

    def test_whitespace_tolerated(self):
        assert parse_poly_expr("  x ^ 2 + 2 * x + 1 ", 3) == poly(3, 1, 2, 1)

    @pytest.mark.parametrize(
        "bad,offset",
        [
            ("x+", 2),
            ("(x+1", 4),
            ("x^", 2),
            ("y+1", 0),
            ("x++1", 2),
            ("2**x", 2),
        ],
    )
    def test_error_positions(self, bad, offset):
        with pytest.raises(ParseError) as exc:
            parse_poly_expr(bad, 3)
        assert exc.value.position == offset

    def test_round_trip_exhaustive_p3(self):
        for d in (1, 2, 3):
            for g in monic_polys(3, d):
                assert parse_poly_expr(str(g), 3) == g

    def test_round_trip_random_p5(self):
        rng = random.Random(23)
        for _ in range(200):
            f = Poly(5, [rng.randrange(5) for _ in range(rng.randrange(6))])
            assert parse_poly_expr(str(f), 5) == f


class TestElementLiterals:
    def test_quotient_elements(self, quotient_p3_sq):
        S = quotient_p3_sq
        assert S.values[parse_element(S, "x+2")] == poly(3, 2, 1)
        # residues are canonicalized mod f
        assert S.values[parse_element(S, "x^2")] == poly(3, 2, 1)

    def test_cyclic_literals(self):
        C = build_cyclic_with_zero(4)
        assert C.values[parse_element(C, "g^2")] == 2
        assert C.values[parse_element(C, "g")] == 1
        assert C.values[parse_element(C, "g^0")] == 0
        assert C.values[parse_element(C, "inf")] is INF

    def test_group_has_no_inf(self):
        G = build_abelian_group([4])
        with pytest.raises(ParseError):
            parse_element(G, "inf")

    def test_tuples(self, c2z_squared):
        P = c2z_squared
        assert P.values[parse_element(P, "(g, inf)")] == (1, INF)
        with pytest.raises(ParseError):
            parse_element(P, "(g, g, g)")

    def test_group_tuple(self):
        G = build_abelian_group([2, 3])
        assert G.values[parse_element(G, "(g, g^2)")] == (1, 2)


class TestSequenceLiterals:
    def test_constant_with_multiplicity(self, quotient_p3_sq):
        T = parse_sequence(quotient_p3_sq, "2*4")
        assert len(T) == 4
        assert multiplicity(T, poly(3, 2)) == 4

    def test_trailing_star_int_is_multiplicity(self, quotient_p3_sq):
        T = parse_sequence(quotient_p3_sq, "x*2")
        assert len(T) == 2
        assert multiplicity(T, poly(3, 0, 1)) == 2

    def test_parenthesized_product_is_an_element(self, quotient_p3_sq):
        T = parse_sequence(quotient_p3_sq, "(x*2)")
        assert len(T) == 1
        assert multiplicity(T, poly(3, 0, 2)) == 1

    def test_mixed_items(self, quotient_p3_sq):
        T = parse_sequence(quotient_p3_sq, "x;2*2;(x+1)*3")
        assert len(T) == 6

    def test_empty_text_is_empty_sequence(self, quotient_p3_sq):
        assert len(parse_sequence(quotient_p3_sq, "")) == 0

    def test_cyclic_sequence(self):
        C = build_cyclic_with_zero(3)
        T = parse_sequence(C, "g^2*3;inf")
        assert len(T) == 4
        assert multiplicity(T, 2) == 3
        assert multiplicity(T, INF) == 1

    def test_tuple_sequence(self, c2z_squared):
        T = parse_sequence(c2z_squared, "(g, inf)*2;(g^0, g)")
        assert len(T) == 3

    def test_zero_multiplicity_rejected(self, quotient_p3_sq):
        with pytest.raises(ParseError):
            parse_sequence(quotient_p3_sq, "x*0")

    def test_format_round_trip(self, quotient_p3_sq, c2z_squared):
        rng = random.Random(29)
        G = build_abelian_group([2, 3])
        for S in (quotient_p3_sq, c2z_squared, build_cyclic_with_zero(5), G):
            for _ in range(50):
                T = random_sequence(S, rng.randrange(1, 8), rng)
                assert parse_sequence(S, T.format()) == T

    def test_sequence_not_in_universe(self, quotient_p3_sq):
        with pytest.raises(ParseError):
            parse_sequence(quotient_p3_sq, "w+1")

    def test_total_length_capped(self, quotient_p3_sq):
        # the cap is on the total over the items, and the error points at
        # the item that crosses it
        cap = MAX_SEQUENCE_LENGTH
        assert len(parse_sequence(quotient_p3_sq, f"x*{cap - 1};2")) == cap
        with pytest.raises(ParseError, match=f"length {cap + 1} exceeds the cap") as exc:
            parse_sequence(quotient_p3_sq, f"x*{cap};2")
        assert exc.value.position == len(f"x*{cap};")


class TestSequenceOffsets:
    """A parse error inside a sequence item reports its offset into the
    whole sequence text, not into the item."""

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("x;x;y", 4),  # the y
            ("x;2*0", 4),  # the multiplicity 0
            ("x;;x", 2),  # the empty item
            ("x; x+)", 5),  # the unbalanced ')'
            ("  x; (x+1)*2; x^", 16),  # leading blanks; the missing exponent
            ("x; w", 3),  # not an element, reported at the item
        ],
    )
    def test_quotient_items(self, quotient_p3_sq, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_sequence(quotient_p3_sq, text)
        assert exc.value.position == offset
        assert str(exc.value).endswith(f"(at offset {offset})")

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("(g, g);(g, h)", 11),
            ("(g, g);( g,g^x)", 13),
            ("(g, g);(g, (g)", 14),
        ],
    )
    def test_tuple_components(self, c2z_squared, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_sequence(c2z_squared, text)
        assert exc.value.position == offset

    def test_group_tuple_component(self):
        G = build_abelian_group([2, 3])
        with pytest.raises(ParseError) as exc:
            parse_sequence(G, "(g, g^2);(g, h)")
        assert exc.value.position == 13


class TestSequenceType:
    def test_empty_representable(self, quotient_p3_sq):
        lam = Sequence.empty(quotient_p3_sq)
        assert len(lam) == 0
        assert lam.format() == ""
