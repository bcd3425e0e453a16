"""Semigroup models: construction, axioms, units, CRT, projections."""

import random
from itertools import combinations, combinations_with_replacement, product as iproduct

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
    monic_polys,
    poly,
    units_of,
)
from davenport import semigroup
from davenport.gfpoly import Poly, factor, is_prime
from davenport.semigroup import (
    FiniteSemigroup,
    build_adjoined_zero_product,
    format_value,
    invariant_factors_from_cyclic_orders,
    projection_indices,
    zero_coordinate_sets,
)

from conftest import (
    associativity_counterexample,
    digit_sum_quotient_table,
    generated_by,
    is_irreducible,
    j_set,
    psi_projection,
    value_product,
)


def mul(S, a, b):
    """Product of two element values, read off the Cayley table."""
    return S.values[S.op(S.index_of[a], S.index_of[b])]


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
        assert mul(S, poly(3, 0, 1), poly(3, 2, 1)) == poly(3, 2)
        assert mul(S, poly(3, 1, 1), poly(3, 2, 2)) == poly(3)

    def test_degree_one_quotient_is_prime_field(self):
        S = build_quotient_semigroup(3, poly(3, 0, 1))
        assert [str(v) for v in S.values] == ["0", "1", "2"]
        assert mul(S, poly(3, 2), poly(3, 2)) == poly(3, 1)

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
        assert mul(C2, 1, 1) == 0
        C3 = build_cyclic_with_zero(3)
        assert mul(C3, 1, INF) is INF
        C4 = build_cyclic_with_zero(4)
        assert mul(C4, 2, 3) == 1

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
        assert mul(P, (1, INF), (1, 1)) == (0, INF)

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
        assert mul(G, (1, 3), (1, 2)) == (0, 1)
        assert is_group(G)

    def test_quotient_is_not_a_group(self, quotient_p3_sq):
        assert not is_group(quotient_p3_sq)

    def test_identity_free_is_not_a_group(self):
        assert not is_group(FiniteSemigroup("null", [0, 1], [[0, 0], [0, 0]]))


def order_lists(cap):
    """Every non-decreasing list of cyclic orders >= 2 with product at
    most cap, divisibility chains or not."""
    def extend(orders, size):
        yield orders
        for n in range(orders[-1] if orders else 2, cap // size + 1):
            yield from extend(orders + [n], size * n)

    return [orders for orders in extend([], 1) if orders]


class TestInvariantFactors:
    """units_of reads the invariant factors off the group's checked cyclic
    coordinates; the reference merges the prime powers of given cyclic
    orders instead."""

    @pytest.mark.parametrize(
        "build, orders",
        [
            (lambda: build_cyclic_group(12), [12]),
            (lambda: build_abelian_group([2, 6]), [2, 6]),
            (lambda: build_abelian_group([3, 3, 3]), [3, 3, 3]),
            # x^2 (x+1): U(F_3[x]/<x^2>) = C_6 times F_3^* = C_2
            (lambda: build_quotient_semigroup(3, poly(3, 0, 0, 1, 1)), [6, 2]),
            (lambda: build_abelian_group([4, 4, 4]), [4, 4, 4]),
            (lambda: build_abelian_group([2, 4, 8]), [2, 4, 8]),
            (lambda: build_abelian_group([3, 24]), [3, 24]),
            (lambda: build_abelian_group([2, 42]), [2, 42]),
        ],
        ids=["C12", "C2xC6", "C3^3", "U(x^3+x^2 over F_3)", "C4^3", "C2xC4xC8",
             "C3xC24", "C2xC42"],
    )
    def test_match_cyclic_orders(self, build, orders):
        assert units_of(build()).invariant_factors == invariant_factors_from_cyclic_orders(orders)

    def test_every_small_order_list(self):
        # every cyclic and abelian group of the search oracle (27 elements),
        # and the products that are not divisibility chains, like C2 x C3
        lists = order_lists(27)
        assert [2, 3] in lists and [3, 3, 3] in lists and len(lists) == 59
        for orders in [[1]] + lists:
            G = build_abelian_group(orders)
            assert units_of(G).invariant_factors == invariant_factors_from_cyclic_orders(orders)

    def test_non_group_rejected(self, quotient_p3_sq):
        # the zero's walk never reaches the identity; it stops after |S| steps
        S = quotient_p3_sq
        with pytest.raises(AssertionError, match="miss the identity"):
            semigroup._coordinates(S.table, S.identity)


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


    @pytest.mark.parametrize(
        "p, d",
        [(p, d) for p in range(2, 14) if is_prime(p)
         for d in range(1, 9) if 64 < p**d <= 256],
    )
    def test_composed_rows_match_digit_sums(self, p, d):
        for f in list(monic_polys(p, d))[::8]:
            assert semigroup._quotient_table(p, f) == digit_sum_quotient_table(p, f)


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
            ([[0, 1], [1, 1]], {"identity_value": "z"}, "identity 'z' is not an element"),
            ([[0, 1], [1, 1]], {"zero_value": "z"}, "zero 'z' is not an element"),
            ([], {}, "universe is empty"),
        ],
        ids=["rows", "row-length", "entry-above", "entry-negative", "asymmetric",
             "non-associative", "identity", "zero", "identity-absent", "zero-absent",
             "empty"],
    )
    def test_malformed_table_rejected(self, table, specials, message):
        values = ["a", "b", "c"][: len(table[0]) if table else 0]
        with pytest.raises(ValueError, match=message):
            FiniteSemigroup("product", values, table, **specials)


class TestLightsTest:
    """The associativity check reads the rows of a generating set only;
    it must still reject exactly the tables the n^3 scan rejects."""

    BASES = {
        "x2-f3": lambda: build_quotient_semigroup(3, poly(3, 0, 0, 1)),
        "c8": lambda: build_cyclic_group(8),
        "c2z-c3z": lambda: build_adjoined_zero_product([2, 3]),
    }

    @pytest.mark.parametrize("base", BASES.values(), ids=BASES.keys())
    def test_one_changed_pair(self, base):
        S = base()
        n = S.size
        for i, j in combinations_with_replacement(range(n), 2):
            for v in range(n):
                if v == S.table[i][j]:
                    continue
                table = [row[:] for row in S.table]
                table[i][j] = table[j][i] = v
                bad = associativity_counterexample(table)
                try:
                    FiniteSemigroup("product", S.values, table)
                except ValueError as exc:
                    assert "not associative" in str(exc)
                    assert bad is not None, (i, j, v)
                else:
                    assert bad is None, (i, j, v, bad)
                assert generated_by(table, semigroup._generators(table)) == set(range(n))

    @pytest.mark.parametrize(
        "build",
        [*BASES.values(),
         lambda: build_quotient_semigroup(2, poly(2, 0, 0, 0, 1, 0, 0, 1)),
         lambda: build_quotient_semigroup(7, poly(7, 0, 1, 1)),
         lambda: build_abelian_group([2, 4, 4]),
         lambda: FiniteSemigroup("null", [0, 1], [[0, 0], [0, 0]])],
        ids=[*BASES.keys(), "x3-x3p1-f2", "xxp1-f7", "c2-c4-c4", "null"],
    )
    def test_generating_set_generates_the_table(self, build):
        S = build()
        assert generated_by(S.table, semigroup._generators(S.table)) == set(range(S.size))


def identity_free():
    """The one-element semigroup, with its element claimed neither identity nor zero."""
    return FiniteSemigroup("product", ["a"], [[0]])


class TestBuilderArguments:
    """What the builders and the value printer reject."""

    def test_duplicate_universe_values(self):
        with pytest.raises(ValueError, match="duplicate elements"):
            FiniteSemigroup("product", ["a", "a"], [[0, 1], [1, 0]])

    def test_format_value_of_an_unknown_value(self):
        with pytest.raises(TypeError, match="unknown element value"):
            format_value(1.5)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: build_cyclic_group(0), "group order must be >= 1"),
            (lambda: build_abelian_group([]), "at least one cyclic order"),
            (lambda: build_abelian_group([2, 0]), "cyclic orders must be >= 1"),
            (lambda: build_abelian_group([-3]), "cyclic orders must be >= 1"),
            (lambda: build_product([build_cyclic_group(2), identity_free()]),
             "every product factor needs an identity"),
            (lambda: units_of(identity_free()), "unit group needs an identity"),
        ],
        ids=["cyclic-0", "abelian-empty", "abelian-zero", "abelian-negative",
             "product-factor", "units"],
    )
    def test_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestInternalChecks:
    """Cross-checks that only a defect can trip; each raises AssertionError,
    which the CLI reports with exit code 4."""

    def test_closed_form_disagreeing_with_census(self, monkeypatch):
        monkeypatch.setattr(semigroup, "_closed_form_invariants", lambda S: (7,))
        with pytest.raises(AssertionError, match=r"closed-form unit structure \(7,\)"):
            units_of(build_quotient_semigroup(3, poly(3, 1, 2, 1)))

    def test_basis_orders_not_a_chain(self, monkeypatch):
        # greedy orders 2 then 3 describe C_6 but are no divisibility chain;
        # unchecked, davenport_group_formula would raise ValueError on them
        coordinates = semigroup._coordinates
        monkeypatch.setattr(
            semigroup, "_coordinates",
            lambda rows, e: (coordinates(rows, e)[0], [(1, 2), (2, 3)]),
        )
        with pytest.raises(AssertionError, match="not a divisibility chain"):
            units_of(build_cyclic_group(6))

    def test_residue_map_not_a_bijection(self):
        # a factorization of another modulus: x alone sends 9 residues to 3
        with pytest.raises(AssertionError, match="failed to be a bijection"):
            crt_decompose(3, poly(3, 0, 1, 1), factor(poly(3, 0, 1)))


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

    @pytest.mark.parametrize("p", [17, 19, 23])
    def test_quotient_tables_have_no_cap_of_their_own(self, monkeypatch, p):
        monkeypatch.setattr(semigroup, "TABLE_CAP", 529)
        S = build_quotient_semigroup(p, poly(p, 1, 2, 1))
        assert units_of(S).invariant_factors == (p * (p - 1),)
        a = poly(p, 1, 1)
        row = S.table[S.index_of[a]]
        assert [S.values[v] for v in row] == [value_product(S, a, b) for b in S.values]


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
        # (x+1)^3 over F_3 has no closed form here; the coordinates must
        # still give the structure
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

    def test_unit_group_is_its_own_unit_group(self, monkeypatch):
        # every element of the group units_of returns is a unit, so reading
        # it again takes the group itself and builds no copy, and it finds
        # what a fresh reading finds
        S = build_quotient_semigroup(13, poly(13, 1, 2, 1))
        G = units_of(S).as_semigroup()
        built = []
        init = FiniteSemigroup.__init__

        def spy(self, kind, *args, **kwargs):
            built.append(kind)
            init(self, kind, *args, **kwargs)

        monkeypatch.setattr(FiniteSemigroup, "__init__", spy)
        kept = units_of(G)
        assert built == []
        assert kept.group is G and kept.parent is G
        monkeypatch.undo()
        G._unit_cache = None
        fresh = units_of(G)
        assert (kept.elements, kept.inverses, kept.invariant_factors, kept.coordinates) == (
            fresh.elements, fresh.inverses, fresh.invariant_factors, fresh.coordinates
        )

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
                    lhs = psi_projection(P, I, mul(P, a, b))
                    rhs = mul(P, psi_projection(P, I, a), psi_projection(P, I, b))
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
