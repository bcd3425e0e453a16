"""Semigroup models: construction, axioms, units, CRT, projections."""

import random
from itertools import combinations, product as iproduct

import pytest

from davenport import (
    INF,
    HypothesisViolation,
    build_abelian_group,
    build_cyclic_group,
    build_cyclic_with_zero,
    build_product,
    build_quotient_semigroup,
    crt_decompose,
    is_group,
    is_irreducible,
    j_set,
    monic_polys,
    poly,
    psi_projection,
    units_of,
)
from davenport.gfpoly import Poly, factor, is_prime
from davenport.semigroup import (
    FiniteSemigroup,
    build_adjoined_zero_product,
    invariant_factors_from_cyclic_orders,
    projection_indices,
    zero_coordinate_sets,
)

from conftest import value_product


def exhaustive_axioms(S):
    n = S.size
    for i in range(n):
        for j in range(n):
            assert S.op(i, j) == S.op(j, i)
    if n <= 30:
        for i, j, k in iproduct(range(n), repeat=3):
            assert S.op(S.op(i, j), k) == S.op(i, S.op(j, k))
    if S.identity is not None:
        assert all(S.op(S.identity, i) == i for i in range(n))
    if S.zero is not None:
        assert all(S.op(S.zero, i) == S.zero for i in range(n))


class TestQuotient:
    def test_universe_and_special_elements(self, quotient_p3_sq):
        S = quotient_p3_sq
        assert S.size == 9
        assert S.values[S.identity] == poly(3, 1)
        assert S.values[S.zero] == poly(3)

    def test_products(self, quotient_p3_sq):
        S = quotient_p3_sq
        assert S.mul(poly(3, 0, 1), poly(3, 2, 1)) == poly(3, 2)
        assert S.mul(poly(3, 1, 1), poly(3, 2, 2)) == poly(3)

    def test_degree_one_quotient_is_prime_field(self):
        S = build_quotient_semigroup(3, poly(3, 0, 1))
        assert [str(v) for v in S.values] == ["0", "1", "2"]
        assert S.mul(poly(3, 2), poly(3, 2)) == poly(3, 1)

    def test_axioms(self, quotient_p3_sq):
        exhaustive_axioms(quotient_p3_sq)
        exhaustive_axioms(build_quotient_semigroup(3, poly(3, 0, 2, 0, 1)))

    def test_constant_modulus_rejected(self):
        with pytest.raises(ValueError):
            build_quotient_semigroup(3, poly(3, 2))

    def test_mismatched_prime_rejected(self):
        with pytest.raises(ValueError):
            build_quotient_semigroup(5, poly(3, 1, 1))

    def test_little_endian_indexing(self):
        S = build_quotient_semigroup(3, poly(3, 1, 2, 1))
        assert S.values[5] == poly(3, 2, 1)  # 5 = 2 + 1*3 -> x+2
        assert S.index_of[poly(3, 0, 2)] == 6


class TestCyclicWithZero:
    def test_small_orders(self):
        C2 = build_cyclic_with_zero(2)
        assert C2.mul(1, 1) == 0
        C3 = build_cyclic_with_zero(3)
        assert C3.mul(1, INF) is INF
        C4 = build_cyclic_with_zero(4)
        assert C4.mul(2, 3) == 1

    def test_size_and_specials(self):
        C = build_cyclic_with_zero(6)
        assert C.size == 7
        assert C.values[C.identity] == 0
        assert C.values[C.zero] is INF
        exhaustive_axioms(C)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_cyclic_with_zero(1)


class TestProduct:
    def test_universe_size(self, c2z_squared):
        assert c2z_squared.size == 9

    def test_componentwise_op(self, c2z_squared):
        P = c2z_squared
        assert P.mul((1, INF), (1, 1)) == (0, INF)

    def test_identity_and_zero_tuples(self, c2z_squared):
        P = c2z_squared
        assert P.values[P.identity] == (0, 0)
        assert P.values[P.zero] == (INF, INF)
        exhaustive_axioms(P)

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            build_product([])

    def test_zero_absent_when_factor_lacks_one(self):
        P = build_product([build_cyclic_with_zero(2), build_cyclic_group(3)])
        assert P.zero is None

    def test_mixed_radix_indexing(self):
        P = build_product([build_cyclic_with_zero(2), build_cyclic_with_zero(3)])
        # first factor is the most significant digit
        assert P.values[0] == (0, 0)
        assert P.values[4] == (1, 0)


class TestGroups:
    def test_cyclic_group(self):
        G = build_cyclic_group(6)
        assert G.size == 6
        assert is_group(G)
        exhaustive_axioms(G)

    def test_abelian_group_tuple_values(self):
        G = build_abelian_group([2, 4])
        assert G.size == 8
        assert G.mul((1, 3), (1, 2)) == (0, 1)
        assert is_group(G)

    def test_quotient_is_not_a_group(self, quotient_p3_sq):
        assert not is_group(quotient_p3_sq)


class TestTableOracle:
    """Every Cayley table, and its unit group's, against value arithmetic."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_quotient_semigroup(3, poly(3, 1, 2, 1)),
            lambda: build_quotient_semigroup(2, poly(2, 1, 1, 0, 1)),
            lambda: build_quotient_semigroup(5, poly(5, 0, 0, 1)),
            lambda: build_cyclic_with_zero(6),
            lambda: build_cyclic_group(7),
            lambda: build_abelian_group([2, 4]),
            lambda: build_product(
                [build_quotient_semigroup(2, poly(2, 0, 0, 1)), build_cyclic_group(3)]
            ),
            lambda: crt_decompose(3, poly(3, 0, 1) * poly(3, 1, 0, 1)).product,
            lambda: build_quotient_semigroup(2, poly(2, *[0] * 8, 1)),
            lambda: build_quotient_semigroup(13, poly(13, 1, 2, 1)),
        ],
        ids=["quotient", "quotient-field", "quotient-x2", "adjoined-zero",
             "cyclic", "abelian", "product", "crt", "x8-f2", "square-f13"],
    )
    def test_table_matches_value_products(self, build):
        assert_tables_match_values(build())

    @pytest.mark.parametrize(
        "p, d",
        [(p, d) for p in range(2, 64) if is_prime(p)
         for d in range(1, 7) if p**d <= 64],
    )
    def test_every_small_quotient(self, p, d):
        moduli = list(monic_polys(p, d))
        if p > 2:
            moduli.append(poly(p, *[2] * (d + 1)))  # 2(x^d + ... + 1)
        for f in moduli:
            assert_tables_match_values(build_quotient_semigroup(p, f))


def assert_tables_match_values(S):
    """S's table and its unit group's against value-level products; the
    constructor has checked both tables symmetric, so j >= i suffices."""
    G = units_of(S).group
    for T in (S, G):
        for i, a in enumerate(T.values):
            row = T.table[i]
            for j in range(i, T.size):
                assert row[j] == T.index_of[value_product(S, a, T.values[j])]


class TestConstructorChecks:
    """FiniteSemigroup rejects a malformed Cayley table."""

    @pytest.mark.parametrize(
        "table, specials, message",
        [
            ([[0, 1], [1, 0], [0, 0]], {}, "table is not 2x2"),
            ([[0, 1], [1]], {}, "table is not 2x2"),
            ([[0, 2], [2, 0]], {}, "escapes the universe"),
            ([[0, -1], [-1, 0]], {}, "escapes the universe"),
            ([[0, 0], [1, 1]], {}, "not commutative"),
            # rock-paper-scissors winner: (r*p)*s = s but r*(p*s) = r
            ([[0, 1, 0], [1, 1, 2], [0, 2, 2]], {}, "not associative"),
            ([[0, 0], [0, 0]], {"identity_value": "a"}, "identity is not neutral"),
            ([[0, 1], [1, 0]], {"zero_value": "a"}, "zero is not absorbing"),
        ],
        ids=["rows", "row-length", "entry-above", "entry-negative", "asymmetric",
             "non-associative", "identity", "zero"],
    )
    def test_malformed_table_rejected(self, table, specials, message):
        values = ["a", "b", "c"][: len(table[0])]
        with pytest.raises(ValueError, match=message):
            FiniteSemigroup("product", values, table, **specials)


class TestTableCap:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_quotient_semigroup(2, poly(2, *[0] * 40, 1)),
            lambda: build_cyclic_with_zero(256),
            lambda: build_cyclic_group(10**12),
            lambda: build_abelian_group([10**6, 10**6]),
            lambda: build_product([build_cyclic_with_zero(16)] * 2),
        ],
        ids=["quotient", "cyclic_with_zero", "cyclic_group", "abelian_group", "product"],
    )
    def test_builders_reject_before_enumerating(self, build):
        with pytest.raises(ValueError, match="exceeds the cap of 256"):
            build()

    def test_largest_tabled_universe(self):
        assert build_cyclic_group(256).size == 256


class TestUnits:
    def test_units_of_square_modulus(self, quotient_p3_sq):
        U = units_of(quotient_p3_sq)
        assert U.order == 6
        expected = {
            Poly(3, [b, a]) for a in range(3) for b in range(3) if a != b
        }
        assert {quotient_p3_sq.values[i] for i in U.elements} == expected
        assert U.invariant_factors == (6,)

    def test_units_of_field_extension(self):
        S = build_quotient_semigroup(3, poly(3, 1, 0, 1))
        U = units_of(S)
        assert U.order == 8
        assert U.invariant_factors == (8,)

    def test_units_of_cyclic_with_zero(self):
        C = build_cyclic_with_zero(5)
        U = units_of(C)
        assert {C.values[i] for i in U.elements} == set(range(5))
        assert U.invariant_factors == (5,)

    def test_inverse_witnesses(self, quotient_p3_sq):
        S = quotient_p3_sq
        U = units_of(S)
        for i, inv in U.inverses.items():
            assert S.op(i, inv) == S.identity

    def test_unit_closure(self, quotient_p3_sq):
        S = quotient_p3_sq
        U = units_of(S)
        unit_set = set(U.elements)
        for i in U.elements:
            for j in U.elements:
                assert S.op(i, j) in unit_set

    def test_census_matches_closed_forms(self):
        cases = [
            (3, poly(3, 0, 1) * poly(3, 1, 1), (2, 2)),
            (3, poly(3, 1, 2, 1), (6,)),
            (3, poly(3, 1, 0, 1), (8,)),
            (5, poly(5, 0, 1) * poly(5, 1, 1), (4, 4)),
            (5, poly(5, 1, 2, 1), (20,)),
        ]
        for p, f, expected in cases:
            U = units_of(build_quotient_semigroup(p, f))
            assert U.invariant_factors == expected
            product = 1
            for d in U.invariant_factors:
                product *= d
            assert product == U.order

    def test_census_only_case_high_degree_repeated(self):
        # (x+1)^3 over F_3 has no closed form here; census must still work
        U = units_of(build_quotient_semigroup(3, poly(3, 1, 1) ** 3))
        assert U.order == 18
        assert U.invariant_factors == (3, 6)

    def test_unit_counts_squarefree_exhaustive(self):
        # |U| = prod(p^d_i - 1) and |S| = p^deg f for squarefree f
        for p, max_deg in ((3, 3), (5, 2)):
            for d in range(1, max_deg + 1):
                for f in monic_polys(p, d):
                    fac = factor(f)
                    if not fac.is_squarefree:
                        continue
                    S = build_quotient_semigroup(p, f)
                    expected = 1
                    for g, _ in fac.factors:
                        expected *= p**g.degree - 1
                    assert S.size == p**d
                    assert units_of(S).order == expected

    def test_unit_group_as_semigroup_is_group(self, quotient_p3_sq):
        G = units_of(quotient_p3_sq).as_semigroup()
        assert is_group(G)
        exhaustive_axioms(G)

    def test_invariant_merge(self):
        assert invariant_factors_from_cyclic_orders([2, 2]) == (2, 2)
        assert invariant_factors_from_cyclic_orders([2, 6]) == (2, 6)
        assert invariant_factors_from_cyclic_orders([2, 3]) == (6,)
        assert invariant_factors_from_cyclic_orders([4, 6]) == (2, 12)
        assert invariant_factors_from_cyclic_orders([1, 1]) == ()


class TestIsomorphismToAdjoinedZero:
    @pytest.mark.parametrize(
        "p,f",
        [(3, poly(3, 1, 1)), (3, poly(3, 1, 0, 1)), (5, poly(5, 2, 1)), (2, poly(2, 1, 1, 1))],
    )
    def test_irreducible_quotient_census(self, p, f):
        # one identity, one zero, all the rest a cyclic unit group
        assert is_irreducible(f)
        S = build_quotient_semigroup(p, f)
        n = p**f.degree - 1
        U = units_of(S)
        assert U.order == n
        assert U.invariant_factors == ((n,) if n > 1 else ())
        identities = [i for i in range(S.size) if all(S.op(i, j) == j for j in range(S.size))]
        zeros = [i for i in range(S.size) if all(S.op(i, j) == i for j in range(S.size))]
        assert identities == [S.identity]
        assert zeros == [S.zero]
        model = build_cyclic_with_zero(n) if n >= 2 else None
        if model is not None:
            assert model.size == S.size


class TestCrt:
    def test_residue_vectors(self):
        crt = crt_decompose(3, poly(3, 0, 1) * poly(3, 1, 1))
        S = crt.source
        assert crt.map_value(poly(3, 2, 1)) == (poly(3, 2), poly(3, 1))
        assert crt.map_value(poly(3, 1)) == (poly(3, 1), poly(3, 1))
        assert crt.map_value(poly(3)) == (poly(3), poly(3))
        i = S.index_of[poly(3, 2, 1)]
        assert crt.product.values[crt.iso[i]] == (poly(3, 2), poly(3, 1))

    def test_non_squarefree_rejected(self):
        with pytest.raises(HypothesisViolation):
            crt_decompose(3, poly(3, 1, 2, 1))

    @pytest.mark.parametrize(
        "p,f",
        [
            (3, poly(3, 0, 1) * poly(3, 1, 1)),
            (3, poly(3, 0, 1) * poly(3, 1, 1) * poly(3, 2, 1)),
            (3, poly(3, 1, 0, 1)),
            (5, poly(5, 0, 1) * poly(5, 1, 1)),
        ],
    )
    def test_iso_is_bijective_homomorphism(self, p, f):
        crt = crt_decompose(p, f)
        S, P = crt.source, crt.product
        assert len(set(crt.iso.values())) == S.size == P.size
        rng = random.Random(31)
        for _ in range(1000):
            a = rng.randrange(S.size)
            b = rng.randrange(S.size)
            assert crt.iso[S.op(a, b)] == P.op(crt.iso[a], crt.iso[b])
        assert crt.iso[S.identity] == P.identity
        assert crt.iso[S.zero] == P.zero

    def test_cyclic_orders(self):
        crt = crt_decompose(3, poly(3, 0, 1) * poly(3, 1, 0, 1))
        assert crt.cyclic_orders == (2, 8)


class TestCoordinateMaps:
    def test_j_set_examples(self):
        P3 = build_product([build_cyclic_with_zero(2)] * 3)
        assert j_set(P3, (INF, 1, INF)) == {1, 3}
        P2 = build_product([build_cyclic_with_zero(3)] * 2)
        assert j_set(P2, (1, 2)) == frozenset()
        assert j_set(P2, (INF, INF)) == {1, 2}

    def test_j_set_empty_iff_unit(self, c2z_squared):
        P = c2z_squared
        unit_set = set(units_of(P).elements)
        for i, v in enumerate(P.values):
            assert (not j_set(P, v)) == (i in unit_set)

    def test_lone_adjoined_zero_cyclic_is_one_factor(self):
        C = build_cyclic_with_zero(3)
        assert j_set(C, INF) == {1}
        assert j_set(C, 2) == frozenset()
        assert psi_projection(C, {1}, INF) == 0
        assert psi_projection(C, set(), INF) is INF

    def test_quotient_has_no_coordinates(self, quotient_p3_sq):
        with pytest.raises(TypeError):
            j_set(quotient_p3_sq, quotient_p3_sq.values[0])
        with pytest.raises(TypeError):
            psi_projection(quotient_p3_sq, {1}, quotient_p3_sq.values[0])

    def test_psi_examples(self, c2z_squared):
        P = c2z_squared
        assert psi_projection(P, {1}, (INF, 1)) == (0, 1)
        assert psi_projection(P, set(), (INF, 1)) == (INF, 1)
        assert psi_projection(P, {1, 2}, (INF, 1)) == (0, 0)

    def test_index_is_not_an_element(self, c2z_squared):
        with pytest.raises(ValueError):
            j_set(c2z_squared, 3)
        with pytest.raises(ValueError):
            psi_projection(c2z_squared, {1}, 3)

    def test_psi_out_of_range(self, c2z_squared):
        with pytest.raises(ValueError):
            psi_projection(c2z_squared, {3}, (1, 1))

    def test_psi_is_homomorphism(self):
        P = build_product([build_cyclic_with_zero(2), build_cyclic_with_zero(3)])
        for I in (set(), {1}, {2}, {1, 2}):
            for a in P.values:
                for b in P.values:
                    lhs = psi_projection(P, I, P.mul(a, b))
                    rhs = P.mul(psi_projection(P, I, a), psi_projection(P, I, b))
                    assert lhs == rhs

    def test_psi_composition(self):
        P = build_product([build_cyclic_with_zero(2)] * 3)
        for a in P.values:
            one_then_two = psi_projection(P, {2}, psi_projection(P, {1}, a))
            both = psi_projection(P, {1, 2}, a)
            assert one_then_two == both

    @pytest.mark.parametrize(
        "orders", [[3], [2, 2], [2, 3], [3, 2], [2, 2, 2], [2, 3, 4]],
        ids=lambda o: "x".join(map(str, o)),
    )
    def test_index_tables_match_value_maps(self, orders):
        P = build_adjoined_zero_product(orders)
        k = len(orders)
        zero_sets = zero_coordinate_sets(P)
        assert zero_sets == [j_set(P, v) for v in P.values]
        for r in range(k + 1):
            for I in combinations(range(1, k + 1), r):
                assert projection_indices(P, I) == [
                    P.index_of[psi_projection(P, I, v)] for v in P.values
                ]

    def test_index_tables_kept_on_the_semigroup(self, c2z_squared):
        P = build_product([build_cyclic_with_zero(2)] * 2)
        assert zero_coordinate_sets(P) is zero_coordinate_sets(P)
        assert projection_indices(P, [1]) is projection_indices(P, {1})
        assert zero_coordinate_sets(P) is not zero_coordinate_sets(c2z_squared)

    def test_index_tables_reject_what_the_value_maps_reject(self, quotient_p3_sq):
        with pytest.raises(TypeError):
            zero_coordinate_sets(quotient_p3_sq)
        with pytest.raises(TypeError):
            projection_indices(quotient_p3_sq, {1})
        P = build_product([build_cyclic_with_zero(2)] * 2)
        with pytest.raises(ValueError):
            projection_indices(P, {3})


class TestDescriptions:
    def test_quotient_golden(self, quotient_p3_sq):
        assert quotient_p3_sq.describe() == {
            "kind": "quotient",
            "size": 9,
            "identity": 1,
            "zero": 0,
            "params": {"p": 3, "f": "x^2+2*x+1"},
        }

    def test_product_nested(self, c2z_squared):
        desc = c2z_squared.describe()
        assert desc["kind"] == "product"
        assert desc["size"] == 9
        assert [f["params"]["n"] for f in desc["params"]["factors"]] == [2, 2]
