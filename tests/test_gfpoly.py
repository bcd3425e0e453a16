"""Polynomial arithmetic over F_p: worked examples and property checks."""

import random

import pytest

from davenport import (
    factor,
    is_prime,
    monic_polys,
    poly,
    poly_divrem,
    poly_mul,
    primitive_root,
)
from davenport.gfpoly import (
    MAX_TRIAL_STEPS,
    Poly,
    multiplicative_order,
    prime_factors,
    validate_prime,
)
from davenport.parsing import parse_poly_expr

from conftest import derivative, evaluate, is_irreducible, is_monic, poly_gcd


def random_poly(rng, p, max_deg):
    return Poly(p, [rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))])


class TestPrimes:
    def test_primality(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_validate_rejects_composites(self):
        with pytest.raises(ValueError):
            validate_prime(9)
        with pytest.raises(ValueError):
            validate_prime(1)

    def test_entry_points_reject_composites(self):
        # arithmetic trusts its operands' prime; these are where it is checked
        for make in (lambda: Poly(9, [1]), lambda: list(monic_polys(9, 1)),
                     lambda: parse_poly_expr("x+1", 9)):
            with pytest.raises(ValueError, match="must be prime"):
                make()

    def test_small_factors_found_past_the_cap(self):
        # the cap bounds the divisors tried, not the size of n
        big = 1_000_000_000_000_000_003
        assert big > (2 * MAX_TRIAL_STEPS) ** 2
        assert not is_prime(2 * big)
        assert prime_factors(2**60 * 3**5) == {2: 60, 3: 5}

    @pytest.mark.parametrize("n", [0, -6])
    def test_prime_factors_need_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="positive integer required"):
            prime_factors(n)

    def test_prime_factors_of_one(self):
        assert prime_factors(1) == {}


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert poly(3, 1, 2, 0, 0).coeffs == (1, 2)

    def test_zero_poly_is_empty(self):
        assert poly(5, 0, 0).coeffs == ()
        assert poly(5).is_zero()

    def test_coefficients_reduced(self):
        assert poly(3, 4, -1).coeffs == (1, 2)

    def test_mixed_prime_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            poly_mul(poly(3, 1), poly(5, 1))
        with pytest.raises(ValueError):
            poly_divrem(poly(3, 1, 1), poly(5, 1, 1))


class TestDivRem:
    def test_worked_example_p3(self):
        # (x^2+1) / (x+1) over F_3: re-multiplying (x+1)(x+2)+2 gives x^2+1
        q, r = poly_divrem(poly(3, 1, 0, 1), poly(3, 1, 1))
        assert q == poly(3, 2, 1)
        assert r == poly(3, 2)
        assert poly_mul(q, poly(3, 1, 1)) + r == poly(3, 1, 0, 1)

    def test_self_division(self):
        a = poly(7, 3, 1, 4)
        q, r = poly_divrem(a, a)
        assert q == poly(7, 1) and r.is_zero()

    def test_monomials(self):
        q, r = poly_divrem(poly(5, 0, 0, 0, 1), poly(5, 0, 0, 1))
        assert q == poly(5, 0, 1) and r.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divrem(poly(3, 1), poly(3))

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            a = random_poly(rng, p, 5)
            b = random_poly(rng, p, 3)
            if b.is_zero():
                continue
            q, r = poly_divrem(a, b)
            assert poly_mul(q, b) + r == a
            assert r.degree < b.degree


class TestMul:
    def test_square_p3(self):
        assert poly_mul(poly(3, 1, 1), poly(3, 1, 1)) == poly(3, 1, 2, 1)

    def test_cross_terms_cancel(self):
        # (x+2)(x+1) = x^2+3x+2 = x^2+2 over F_3
        assert poly_mul(poly(3, 2, 1), poly(3, 1, 1)) == poly(3, 2, 0, 1)

    def test_identity(self):
        a = poly(5, 2, 0, 3)
        assert poly_mul(a, poly(5, 1)) == a

    def test_degrees_add(self):
        rng = random.Random(11)
        for _ in range(100):
            a = random_poly(rng, 5, 4)
            b = random_poly(rng, 5, 4)
            if a.is_zero() or b.is_zero():
                assert poly_mul(a, b).is_zero()
            else:
                assert poly_mul(a, b).degree == a.degree + b.degree


class TestGcd:
    def test_shared_linear_factor(self):
        # x^2+4 = x^2-1 = (x-1)(x+1) over F_5
        assert poly_gcd(poly(5, 4, 0, 1), poly(5, 1, 1)) == poly(5, 1, 1)

    def test_gcd_with_zero_is_monic_scaled(self):
        assert poly_gcd(poly(3, 0, 2), poly(3)) == poly(3, 0, 1)

    def test_coprime_linears(self):
        assert poly_gcd(poly(3, 1, 1), poly(3, 2, 1)) == poly(3, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(poly(3), poly(3))

    def test_divides_both(self):
        rng = random.Random(13)
        for _ in range(200):
            a = random_poly(rng, 3, 4)
            b = random_poly(rng, 3, 4)
            if a.is_zero() and b.is_zero():
                continue
            g = poly_gcd(a, b)
            assert (a % g).is_zero()
            assert (b % g).is_zero()
            assert is_monic(g)


class TestIrreducibility:
    def test_x2_plus_1_p3(self):
        assert is_irreducible(poly(3, 1, 0, 1))

    def test_x2_plus_1_p5_has_root_2(self):
        assert evaluate(poly(5, 1, 0, 1), 2) == 0
        assert not is_irreducible(poly(5, 1, 0, 1))

    def test_linear_always_irreducible(self):
        for p in (2, 3, 5, 7):
            for g in monic_polys(p, 1):
                assert is_irreducible(g)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(poly(3, 2))

    def test_matches_factor_structure(self):
        for p in (2, 3, 5):
            for g in monic_polys(p, 2):
                fac = factor(g)
                single = len(fac.factors) == 1 and fac.factors[0][1] == 1
                assert is_irreducible(g) == single
                if single:
                    assert fac.factors[0][0] == g


class TestFactor:
    def test_split_cubic_p3(self):
        fac = factor(poly(3, 0, 2, 0, 1))  # x^3+2x = x(x+1)(x+2)
        assert fac.unit == 1
        assert fac.factors == (
            (poly(3, 0, 1), 1),
            (poly(3, 1, 1), 1),
            (poly(3, 2, 1), 1),
        )

    def test_repeated_factor(self):
        fac = factor(poly(3, 1, 2, 1))
        assert fac.factors == ((poly(3, 1, 1), 2),)
        assert not fac.is_squarefree

    def test_unit_extraction(self):
        fac = factor(poly(3, 2, 2))
        assert fac.unit == 2
        assert fac.factors == ((poly(3, 1, 1), 1),)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            factor(poly(5, 3))

    def test_reconstruction_exhaustive_p3(self):
        for d in (1, 2, 3, 4):
            for g in monic_polys(3, d):
                for unit in (1, 2):
                    f = poly(3, unit) * g
                    fac = factor(f)
                    assert fac.expand() == f
                    assert fac.unit == unit
                    assert all(is_monic(h) for h, _ in fac.factors)
                    assert all(is_irreducible(h) for h, _ in fac.factors)

    def test_reconstruction_random_p5_p7(self):
        rng = random.Random(17)
        for _ in range(150):
            p = rng.choice([5, 7])
            f = random_poly(rng, p, 5)
            if f.degree < 1:
                continue
            assert factor(f).expand() == f

    def test_factors_sorted_and_distinct(self):
        rng = random.Random(19)
        for _ in range(100):
            f = random_poly(rng, 3, 6)
            if f.degree < 1:
                continue
            fac = factor(f)
            keys = [(g.degree, g.coeffs[::-1]) for g, _ in fac.factors]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_squarefree_iff_coprime_with_derivative(self):
        for p in (3, 5):
            for d in (1, 2, 3):
                for g in monic_polys(p, d):
                    fac = factor(g)
                    deriv = derivative(g)
                    if deriv.is_zero():
                        coprime = False
                    else:
                        coprime = poly_gcd(g, deriv) == poly(p, 1)
                    assert coprime == fac.is_squarefree


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p,g", [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2)])
    def test_known_least_roots(self, p, g):
        assert primitive_root(p) == g

    def test_p2_degenerate(self):
        assert primitive_root(2) == 1

    def test_no_smaller_power_hits_one(self):
        for p in (3, 5, 7, 11, 13):
            g = primitive_root(p)
            assert all(pow(g, k, p) != 1 for k in range(1, p - 1))
            assert pow(g, p - 1, p) == 1

    def test_orders(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 7) == 6

    @pytest.mark.parametrize("a", [0, 7, -14])
    def test_zero_has_no_order(self, a):
        with pytest.raises(ValueError, match="zero has no multiplicative order"):
            multiplicative_order(a, 7)


class TestPrinting:
    def test_descending_form(self):
        assert str(poly(3, 1, 2, 1)) == "x^2+2*x+1"
        assert str(poly(3)) == "0"
        assert str(poly(5, 0, 1)) == "x"
        assert str(poly(5, 0, 3)) == "3*x"
        assert str(poly(7, 4)) == "4"
