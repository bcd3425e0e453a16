"""Reducibility, sum sets, and Davenport searches, cross-checked against
brute-force enumeration."""

import dataclasses
import gc
import random
import tracemalloc
from itertools import combinations, permutations, product as iproduct
from math import comb, gcd
from operator import itemgetter

import pytest

from davenport import (
    INF,
    Sequence,
    build_abelian_group,
    build_cyclic_group,
    build_cyclic_with_zero,
    build_product,
    build_quotient_semigroup,
    davenport_exact,
    davenport_group_formula,
    davenport_montecarlo_upper,
    find_reduction,
    is_reducible,
    is_zero_sum_free,
    poly,
    proper_subsums,
    random_sequence,
    sigma,
    sumset,
    units_of,
)
from davenport import semigroup, zerosum
from davenport.semigroup import (
    FiniteSemigroup,
    automorphisms,
    build_adjoined_zero_product,
)
from davenport.verify import (
    assert_valid_reduction,
    build_witness_V,
    proposition_semigroup,
)
from davenport.zerosum import (
    _nilpotency_index,
    _search_tables,
    _symmetry_masks,
    _translate_mask,
    sigma_index,
)

from conftest import (
    all_multisets,
    backpointer_dp_collect,
    backpointer_dp_select,
    brute_is_reducible,
    brute_proper_subsums,
    brute_sumset,
    seq_of,
    unpruned_davenport,
    value_product,
)


class TestSigma:
    def test_empty_is_identity(self, quotient_p3_sq):
        assert sigma(Sequence.empty(quotient_p3_sq)) == poly(3, 1)

    def test_cyclic_exponent_addition(self):
        C = build_cyclic_with_zero(3)
        T = Sequence(C, [(C.index_of[1], 2)])
        assert sigma(T) == 2

    def test_quotient_product(self, quotient_p3_sq):
        T = seq_of(quotient_p3_sq, poly(3, 0, 1), poly(3, 2, 1))
        assert sigma(T) == poly(3, 2)

    def test_empty_without_identity_rejected(self):
        # build a tiny identity-free semigroup directly: every product is "a"
        from davenport.semigroup import FiniteSemigroup

        S = FiniteSemigroup("product", ["a", "b"], [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            sigma_index(Sequence.empty(S))


class TestProperSubsums:
    def test_quotient_example(self, quotient_p3_sq):
        T = seq_of(quotient_p3_sq, poly(3, 0, 1), poly(3, 2))
        assert proper_subsums(T) == {poly(3, 1), poly(3, 0, 1), poly(3, 2)}

    def test_single_term(self):
        C = build_cyclic_with_zero(2)
        T = seq_of(C, 1)
        assert proper_subsums(T) == {0}

    def test_pair_excludes_full_selection(self):
        C = build_cyclic_with_zero(2)
        T = Sequence(C, [(C.index_of[1], 2)])
        assert proper_subsums(T) == {0, 1}

    def test_matches_bruteforce(self, quotient_p3_sq, c2z_squared):
        for S in (quotient_p3_sq, c2z_squared):
            for length in (1, 2, 3, 4):
                for idx in all_multisets(S.size, length):
                    T = Sequence.from_indices(S, idx)
                    mine = {S.index_of[v] for v in proper_subsums(T)}
                    assert mine == brute_proper_subsums(T)


class TestReducibility:
    def test_identity_sum_pair(self):
        C = build_cyclic_with_zero(2)
        T = Sequence(C, [(C.index_of[1], 2)])
        assert is_reducible(T)
        assert find_reduction(T) == Sequence.empty(C)  # the empty witness

    def test_exhibit_pair_irreducible(self, quotient_p3_sq):
        T = seq_of(quotient_p3_sq, poly(3, 0, 1), poly(3, 2))
        assert not is_reducible(T)
        assert find_reduction(T) is None

    def test_absorbing_witness(self):
        C = build_cyclic_with_zero(2)
        T = seq_of(C, 1, INF)
        assert is_reducible(T)
        assert find_reduction(T) == seq_of(C, INF)

    def test_witness_contract(self, quotient_p3_sq):
        rng = random.Random(37)
        for _ in range(300):
            T = random_sequence(quotient_p3_sq, rng.randrange(1, 7), rng)
            red = find_reduction(T)
            if red is None:
                assert not brute_is_reducible(T)
            else:
                assert_valid_reduction(T, red)

    def test_three_routes_agree(self, quotient_p3_sq, c2z_squared):
        C = build_cyclic_with_zero(2)
        for S in (quotient_p3_sq, c2z_squared, C):
            for length in (1, 2, 3, 4, 5):
                for idx in all_multisets(S.size, length):
                    T = Sequence.from_indices(S, idx)
                    expected = brute_is_reducible(T)
                    assert is_reducible(T) == expected
                    assert (find_reduction(T) is not None) == expected

    def test_identity_free_semigroup(self):
        # the null semigroup: every product is 0, and no empty sub-multiset
        S = FiniteSemigroup("null", [0, 1], [[0, 0], [0, 0]])
        assert not is_reducible(Sequence(S, [(1, 2)]))  # 1*1 = 0, vs {1}
        assert is_reducible(Sequence(S, [(1, 3)]))
        assert find_reduction(Sequence(S, [(1, 3)])) == Sequence(S, [(1, 2)])

    def test_builds_no_search_tables(self, monkeypatch):
        # reducibility folds Cayley rows; only the exact search builds tables
        def refuse(S):
            raise AssertionError("search tables built")

        monkeypatch.setattr(zerosum, "_search_tables", refuse)
        S = proposition_semigroup(5)
        assert is_reducible(Sequence(S, [(S.index_of[poly(5, 2)], 4)]))
        assert not is_reducible(seq_of(S, poly(5, 0, 1), poly(5, 2)))
        report = davenport_montecarlo_upper(S, 20, samples=200, seed=3)
        assert report.all_reducible and report.checked == 200
        assert len(build_witness_V(S)) == 4
        with pytest.raises(AssertionError, match="search tables built"):
            davenport_exact(S)

    def test_hereditary_exhaustive(self, quotient_p3_sq, c2z_squared):
        for S in (quotient_p3_sq, c2z_squared):
            for length in (1, 2, 3):
                for idx in all_multisets(S.size, length):
                    T = Sequence.from_indices(S, idx)
                    if not is_reducible(T):
                        continue
                    for x in range(S.size):
                        extended = Sequence(S, T.pairs + ((x, 1),))
                        assert is_reducible(extended)


class TestTranslateTables:
    """The search tables against the table product: translates mask by
    mask, principal ideals and fibers element by element."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_cyclic_group(1),
            lambda: build_cyclic_with_zero(2),
            lambda: build_abelian_group([2, 4]),
            lambda: build_quotient_semigroup(3, poly(3, 1, 2, 1)),
            lambda: build_cyclic_with_zero(16),
            lambda: build_cyclic_with_zero(242),
        ],
        ids=["n1", "n3", "n8", "n9", "n17", "n243"],
    )
    def test_masks_match_products(self, build):
        S = build()
        n = S.size
        tables, ideal, fiber = _search_tables(S)
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]
        for x in range(n):
            assert ideal[x] == sum({1 << t for t in [x] + S.table[x]})
            # every r sits in the fiber of r*x, and the fibers hold n bits
            assert all(fiber[x][S.op(r, x)] >> r & 1 for r in range(n))
            assert sum(m.bit_count() for m in fiber[x]) == n
            chunks = tables[x]
            assert [len(c) for c in chunks] == [
                1 << min(8, n - base) for base in range(0, n, 8)
            ]
            for R in masks:
                expected = 0
                for r in range(n):
                    if (R >> r) & 1:
                        expected |= 1 << S.op(r, x)
                assert _translate_mask(chunks, R) == expected


class TestLayeredDP:
    """The back-pointer-free layered DP against the back-pointer one."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_cyclic_with_zero(3),
            lambda: build_product([build_cyclic_with_zero(2)] * 2),
            lambda: build_abelian_group([2, 2]),
            lambda: build_quotient_semigroup(3, poly(3, 1, 2, 1)),
            # identity-free: the null semigroup, and a <- a^2 = b -> 0
            lambda: FiniteSemigroup("null", [0, 1], [[0, 0], [0, 0]]),
            lambda: FiniteSemigroup(
                "nilpotent", [0, 1, 2], [[0, 0, 0], [0, 2, 0], [0, 0, 0]]
            ),
        ],
        ids=["c3z", "c2z^2", "c2^2", "p3sq", "null2", "nil3"],
    )
    def test_matches_backpointer_oracle(self, build):
        S = build()
        for length in range(5):
            for indices in all_multisets(S.size, length):
                pairs = Sequence.from_indices(S, indices).pairs
                for proper in (True, False):
                    assert zerosum._dp_collect(
                        S, pairs, proper=proper
                    ) == backpointer_dp_collect(S, pairs, proper=proper)
                    for target in range(S.size):
                        assert zerosum.dp_select(
                            S, pairs, target, proper=proper
                        ) == backpointer_dp_select(S, pairs, target, proper=proper)


class TestZeroSumFree:
    def test_generator_powers(self):
        G = build_cyclic_group(5)
        T = Sequence(G, [(1, 4)])
        assert is_zero_sum_free(T)
        assert not is_zero_sum_free(Sequence(G, [(1, 5)]))

    def test_inverse_pair(self):
        G = build_cyclic_group(7)
        T = seq_of(G, 2, 5)
        assert not is_zero_sum_free(T)

    def test_empty(self):
        G = build_cyclic_group(4)
        assert is_zero_sum_free(Sequence.empty(G))

    def test_nonunit_term_rejected(self, quotient_p3_sq):
        T = seq_of(quotient_p3_sq, poly(3, 1, 1))
        with pytest.raises(ValueError):
            is_zero_sum_free(T)

    def test_unit_terms_allowed_in_semigroup(self, quotient_p3_sq):
        T = seq_of(quotient_p3_sq, poly(3, 2))
        assert is_zero_sum_free(T)

    def test_matches_irreducibility_for_group_sequences(self):
        G = build_abelian_group([2, 4])
        rng = random.Random(41)
        for _ in range(200):
            T = random_sequence(G, rng.randrange(1, 6), rng)
            assert is_zero_sum_free(T) == (not is_reducible(T))


class TestSumset:
    def test_generator_powers_cover_nonidentity(self):
        for n in (3, 5, 8):
            G = build_cyclic_group(n)
            T = Sequence(G, [(1, n - 1)])
            assert sumset(T) == set(range(1, n))

    def test_singleton(self, quotient_p3_sq):
        T = seq_of(quotient_p3_sq, poly(3, 0, 1))
        assert sumset(T) == {poly(3, 0, 1)}

    def test_two_generators_c3(self):
        G = build_cyclic_group(3)
        T = Sequence(G, [(1, 2)])
        assert sumset(T) == {1, 2}

    def test_matches_bruteforce(self, c2z_squared):
        for length in (1, 2, 3, 4):
            for idx in all_multisets(c2z_squared.size, length):
                T = Sequence.from_indices(c2z_squared, idx)
                mine = {c2z_squared.index_of[v] for v in sumset(T)}
                assert mine == brute_sumset(T)

    def test_maximal_zero_sum_free_covers_nonidentity(self):
        # independent recursive enumeration of maximal zero-sum-free multisets
        for n in range(2, 13):
            G = build_cyclic_group(n)
            found = []

            def extend(prefix, start):
                if len(prefix) == n - 1:
                    found.append(tuple(prefix))
                    return
                for e in range(start, n):
                    cand = prefix + [e]
                    if is_zero_sum_free(Sequence.from_indices(G, cand)):
                        extend(cand, e)

            extend([], 0)
            assert found, f"no maximal zero-sum-free sequence over C_{n}"
            for idx in found:
                T = Sequence.from_indices(G, idx)
                assert sumset(T) == set(range(1, n))


def identity_alone(S, expired=None):
    """``automorphisms`` cut down to the identity: the search skips nothing."""
    return [tuple(range(S.size))]


class TestDavenportExact:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_cyclic_groups(self, n):
        res = davenport_exact(build_cyclic_group(n))
        assert res.value == n and res.complete
        assert res.witness.pairs == ((1, n - 1),)

    def test_adjoined_zero(self):
        res = davenport_exact(build_cyclic_with_zero(2))
        assert res.value == 2

    def test_product_of_adjoined_zero(self, c2z_squared):
        res = davenport_exact(c2z_squared)
        assert res.value == 3

    def test_witness_is_irreducible_and_maximal(self, quotient_p3_sq):
        res = davenport_exact(quotient_p3_sq)
        assert res.value == 6
        assert not is_reducible(res.witness)
        assert len(res.witness) == res.value - 1

    def test_budget_exhaustion_degrades_to_lower_bound(self):
        # the clock is read on the first node, so a zero budget stops there;
        # at n = 256 building the search tables alone outlasts the budget
        cases = [
            (build_cyclic_group(20), 20),
            (build_quotient_semigroup(2, poly(2, *[0] * 8, 1)), 257),
        ]
        for S, d_max in cases:
            res = davenport_exact(S, budget_ms=0)
            assert res.nodes == 1
            assert not res.complete
            assert res.value == 1 + len(res.witness) <= d_max
            if len(res.witness):
                assert not is_reducible(res.witness)

    def test_proposition_frontier_p7(self):
        # D = p(p-1) = 42 for (x+1)^2 over F_7; the ideal bound makes the
        # search finish well inside the budget
        S = build_quotient_semigroup(7, poly(7, 1, 2, 1))
        res = davenport_exact(S, budget_ms=30_000)
        assert res.complete
        assert res.value == 42
        assert len(res.witness) == 41
        assert not is_reducible(res.witness)
        assert find_reduction(res.witness) is None
        # the pruning floor D*(U) - 2 = 40 and the unit split bound (e = 2)
        # take the tree from 692,887 nodes to 16,041, and the lex-leader
        # test under the 72 automorphisms, at every depth, to this
        assert res.nodes == 3_786

    @pytest.mark.parametrize("p, witness", [(11, "(x+3)*109"), (13, "(x+3)*155")])
    def test_proposition_frontier_p11_p13(self, p, witness):
        # D = p(p-1) for (x+1)^2: n = 121 and 169, exact within the budget
        S = build_quotient_semigroup(p, poly(p, 1, 2, 1))
        res = davenport_exact(S, budget_ms=60_000)
        assert res.complete
        assert res.value == p * (p - 1)
        assert res.witness.format() == witness
        assert find_reduction(res.witness) is None
        if p == 13:
            # with all 576 automorphisms listed
            assert res.nodes == 41_503

    def test_floor_above_the_value_is_caught(self, monkeypatch):
        # a unit census claiming C_100 for C_6 puts the floor at 98; the
        # search then ends complete at or below it, which only a wrong
        # floor explains
        G = build_cyclic_group(6)
        U = units_of(G)
        monkeypatch.setattr(
            zerosum, "units_of", lambda S: dataclasses.replace(U, invariant_factors=(100,))
        )
        with pytest.raises(AssertionError, match="not above the floor 98"):
            davenport_exact(G)

    def test_capped_run_keeps_a_witnessed_lower_bound(self, monkeypatch):
        # the floor D*(U) - 2 = 154 only cuts branches; a run stopped by its
        # budget reports the longest sequence it has seen, with a witness.
        # The automorphisms are listed off the clock, so only the search
        # reads it, on nodes 1, 1025 and 2049; it runs out on the last
        monkeypatch.setattr(zerosum, "automorphisms", lambda S, expired=None: automorphisms(S))
        reads = iter([False, False, True])
        monkeypatch.setattr(zerosum.Budget, "expired", lambda self: next(reads))
        S = build_quotient_semigroup(13, poly(13, 1, 2, 1))
        res = davenport_exact(S, budget_ms=60_000)
        assert (res.nodes, res.complete) == (2049, False)
        assert 1 < res.value == 1 + len(res.witness) <= 156
        assert find_reduction(res.witness) is None

    @pytest.mark.parametrize(
        "f, pinned",
        [
            (poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3, (7, 15_655, True)),
            # one memo hit here re-explores a state whose bound is exact
            (poly(3, 1, 1) ** 3, (8, 1_343, True)),
        ],
        ids=["x^3(x+1)^3/F2", "(x+1)^3/F3"],
    )
    def test_tree_pinned(self, f, pinned):
        res = davenport_exact(build_quotient_semigroup(f.p, f))
        assert (res.value, res.nodes, res.complete) == pinned

    def test_frontier_x2_x1_2_over_f3(self):
        # n = 81: exact, and D(S) = D(U(S)) = 11 although f is not squarefree
        S = build_quotient_semigroup(3, poly(3, 0, 0, 1) * poly(3, 1, 1) ** 2)
        res = davenport_exact(S, budget_ms=60_000)
        assert res.complete
        assert res.value == 11
        assert davenport_group_formula(units_of(S).invariant_factors) == 11
        assert len(res.witness) == 10
        assert find_reduction(res.witness) is None

    def test_frontier_x3_x1_over_f3(self):
        # n = 81: exact once the terms are lex leaders, and D(S) = D(U(S))
        # = 11 again
        S = build_quotient_semigroup(3, poly(3, 0, 0, 0, 1) * poly(3, 1, 1))
        res = davenport_exact(S, budget_ms=60_000)
        assert res.complete
        assert res.value == 11
        assert davenport_group_formula(units_of(S).invariant_factors) == 11
        assert len(res.witness) == 10
        assert find_reduction(res.witness) is None

    def test_frontier_x4_over_f3(self):
        # n = 81, U = C3 x C18: exact with D(S) = D(U(S)) = 20 once terms
        # moved down by automorphisms fixing the state's products are
        # skipped at every depth (1,667,374 nodes)
        S = build_quotient_semigroup(3, poly(3, 0, 0, 0, 0, 1))
        res = davenport_exact(S, budget_ms=120_000)
        assert res.complete
        assert res.value == 20
        assert davenport_group_formula(units_of(S).invariant_factors) == 20
        assert len(res.witness) == 19
        assert find_reduction(res.witness) is None

    def test_frontier_rank_three_group(self):
        # C4^3, the unit group of x(x+1)(x+2) over F_5: exact with 4,006 of
        # its 86,016 automorphisms listed
        G = build_abelian_group([4, 4, 4])
        res = davenport_exact(G, budget_ms=60_000)
        assert (res.value, res.nodes, res.complete) == (10, 285_429, True)
        assert res.value == davenport_group_formula((4, 4, 4))
        assert find_reduction(res.witness) is None

    def test_skipping_acts_below_the_second_term(self):
        # U = C6 x C6 of x(x+1) over F_7: 70,828 nodes when only the first
        # two terms are tested, 336,355 with nothing skipped
        S = build_quotient_semigroup(7, poly(7, 0, 1, 1))
        res = davenport_exact(units_of(S).as_semigroup())
        assert (res.value, res.nodes, res.complete) == (11, 30_020, True)
        assert res.witness.format() == "3*5;(x+3)*5"
        # and S itself, under its 8 automorphisms
        res = davenport_exact(S)
        assert (res.value, res.nodes, res.complete) == (11, 159_740, True)
        assert res.witness.format() == "3*5;(x+3)*5"

    @pytest.mark.parametrize(
        "f, nodes",
        [(poly(7, 1, 2, 1), 16_041), (poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3, 89_800)],
        ids=["(x+1)^2/F7", "x^3(x+1)^3/F2"],
    )
    def test_identity_alone_gives_the_unskipped_tree(self, monkeypatch, f, nodes):
        monkeypatch.setattr(zerosum, "automorphisms", identity_alone)
        res = davenport_exact(build_quotient_semigroup(f.p, f))
        assert (res.nodes, res.complete) == (nodes, True)

    def test_working_set_freed_on_return(self):
        # explore refers to itself; once that cycle is broken the memo and
        # the search tables, both built inside the call, go by refcount,
        # with no cyclic garbage left
        S = build_quotient_semigroup(5, poly(5, 1, 2, 1))
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = davenport_exact(S)
            after, peak = tracemalloc.get_traced_memory()
            garbage = gc.collect()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert res.value == 20
        # what stays is interpreter free lists, not the memo
        assert after - before < (peak - before) // 4
        assert garbage == 0

    def test_key_fields_wider_than_a_byte(self, monkeypatch):
        # n = 257: element indices need 9 bits in the memo key
        monkeypatch.setattr(semigroup, "TABLE_CAP", 257)
        res = davenport_exact(build_cyclic_group(257))
        assert (res.value, res.complete) == (257, True)
        assert len(res.witness) == 256
        assert find_reduction(res.witness) is None

    def test_identityless_rejected(self):
        from davenport.semigroup import FiniteSemigroup

        S = FiniteSemigroup("product", ["a"], [[0]])
        with pytest.raises(ValueError):
            davenport_exact(S)

    def test_group_consistency_with_formula(self):
        cases = [([6], 6), ([2, 6], 7), ([3, 6], 8), ([2, 2, 2], 4), ([2, 2, 4], 6)]
        for orders, expected in cases:
            assert davenport_group_formula(orders) == expected
            res = davenport_exact(build_abelian_group(orders))
            assert res.value == expected

    def test_subgroup_chain_bound(self):
        # D(C_mn) >= D(C_n) + D(C_m) - 1, all mn <= 24, by exact search
        d = {k: davenport_exact(build_cyclic_group(k)).value for k in range(2, 25)}
        for m in range(2, 13):
            for n in range(2, 13):
                if m * n > 24:
                    continue
                assert d[m * n] >= d[n] + d[m] - 1

    def test_units_bound_for_semigroups(self, quotient_p3_sq, c2z_squared):
        for S in (quotient_p3_sq, c2z_squared, build_cyclic_with_zero(4)):
            dS = davenport_exact(S).value
            dU = davenport_exact(units_of(S).as_semigroup()).value
            assert dU <= dS


class TestNilpotencyIndex:
    """The least e with N^e = {0}, N the non-units, behind the split bound."""

    @pytest.mark.parametrize("p, e", [(2, 1), (2, 3), (2, 8), (3, 2), (5, 3), (7, 1)])
    def test_power_of_x(self, p, e):
        S = build_quotient_semigroup(p, poly(p, *[0] * e, 1))
        assert _nilpotency_index(S) == e

    def test_square_modulus(self):
        assert _nilpotency_index(proposition_semigroup(5)) == 2

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_adjoined_zero(self, n):
        # N = {inf}, which is N^1 already
        assert _nilpotency_index(build_cyclic_with_zero(n)) == 1

    def test_none_without_nilpotent_non_units(self, c2z_squared):
        for S in (
            build_cyclic_group(6),  # no zero
            build_abelian_group([2, 4]),
            build_quotient_semigroup(3, poly(3, 0, 1, 1)),  # x(x+1): N^2 = N
            # x^2(x+1): no power of x is 0
            build_quotient_semigroup(2, poly(2, 0, 1, 1) * poly(2, 0, 1)),
            c2z_squared,  # (inf, g) is a non-unit whose powers never reach 0
        ):
            assert _nilpotency_index(S) is None, S.describe()

    def test_trivial_monoid(self):
        # identity = zero: no non-unit
        S = FiniteSemigroup("product", ["e"], [[0]], identity_value="e", zero_value="e")
        assert _nilpotency_index(S) is None


class TestSearchAgainstBruteForce:
    def test_small_semigroups(self, c2z_squared):
        # independent oracle: smallest d with every length-d multiset
        # reducible by plain enumeration (hereditary closes lengths above)
        def brute_davenport(S):
            d = 1
            while True:
                if all(
                    brute_is_reducible(Sequence.from_indices(S, idx))
                    for idx in all_multisets(S.size, d)
                ):
                    return d
                d += 1

        small = [
            build_cyclic_with_zero(2),
            build_cyclic_with_zero(3),
            build_cyclic_group(3),
            build_cyclic_group(4),
            build_abelian_group([2, 2]),
            build_quotient_semigroup(3, poly(3, 0, 1)),
            build_quotient_semigroup(2, poly(2, 1, 1, 1)),
            c2z_squared,
        ]
        for S in small:
            assert davenport_exact(S).value == brute_davenport(S)


ORACLE_CAP = 27


def _small_universes(family):
    """Every universe of the family with at most ORACLE_CAP elements."""
    cap = ORACLE_CAP
    if family == "quotient":
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            deg = 1
            while p ** deg <= cap:
                for low in iproduct(range(p), repeat=deg):
                    yield build_quotient_semigroup(p, poly(p, *low, 1))
                deg += 1
    elif family == "cyclic":
        for n in range(1, cap + 1):
            yield build_cyclic_group(n)
    elif family == "cyclic_with_zero":
        for n in range(2, cap):
            yield build_cyclic_with_zero(n)
    elif family == "abelian":
        # divisibility chains of rank >= 2
        def chains(chain, size):
            if len(chain) >= 2:
                yield chain
            for d in range(chain[-1], cap // size + 1, chain[-1]):
                yield from chains(chain + [d], size * d)

        for d in range(2, cap + 1):
            for chain in chains([d], d):
                yield build_abelian_group(chain)
    elif family == "adjoined_zero_product":
        def order_lists(orders, size):
            if len(orders) >= 2:
                yield orders
            for n in range(orders[-1] if orders else 2, cap // size):
                yield from order_lists(orders + [n], size * (n + 1))

        for orders in order_lists([], 1):
            yield build_adjoined_zero_product(orders)


class TestBranchAndBoundOracle:
    """The pruned search against the unpruned one on every small universe:
    same value, same witness, both complete. Groups are their own unit
    groups, and U(C_n ∪ {inf}) has the table of C_n."""

    @pytest.mark.parametrize(
        "family, units",
        [
            ("quotient", False),
            ("quotient", True),
            ("cyclic", False),
            ("cyclic_with_zero", False),
            ("abelian", False),
            ("adjoined_zero_product", False),
            ("adjoined_zero_product", True),
        ],
    )
    def test_matches_unpruned_search(self, family, units):
        seen = set()
        for S in _small_universes(family):
            if units:
                S = units_of(S).as_semigroup()
            assert S.size <= ORACLE_CAP
            problem = (S.identity, tuple(map(tuple, S.table)))
            if problem in seen:
                continue
            seen.add(problem)
            res = davenport_exact(S)
            assert res.complete
            expected = unpruned_davenport(S)
            assert (res.value, res.witness.indices()) == expected, S.describe()

    def test_both_unit_rules_act_on_the_oracle_universes(self):
        # the oracle checks each rule where it acts: the split bound wherever
        # e exists (1, 2 and 3 occur), the floor wherever U is nontrivial
        # (up to C_26)
        quotients = list(_small_universes("quotient"))
        assert {_nilpotency_index(S) for S in quotients} >= {None, 1, 2, 3}
        assert max(sum(units_of(S).invariant_factors) for S in quotients) == 26

    def test_families_cover_the_cap(self):
        sizes = {
            family: sorted(S.size for S in _small_universes(family))
            for family in ("quotient", "cyclic", "cyclic_with_zero")
        }
        assert sizes["quotient"].count(27) == 27  # every monic cubic over F_3
        assert sizes["cyclic"] == list(range(1, 28))
        assert sizes["cyclic_with_zero"] == list(range(3, 28))
        assert all(
            units_of(S).as_semigroup().table == build_cyclic_group(S.n).table
            for S in _small_universes("cyclic_with_zero")
        )
        assert {tuple(S.orders) for S in _small_universes("abelian")} >= {
            (2, 2, 2, 2), (3, 9), (5, 5), (2, 12), (3, 3, 3)
        }
        assert max(S.size for S in _small_universes("adjoined_zero_product")) == 27


def _oracle_problems():
    """Every distinct oracle universe and unit group, each once."""
    seen = set()
    for family in ("quotient", "cyclic", "cyclic_with_zero", "abelian",
                   "adjoined_zero_product"):
        for S in _small_universes(family):
            for T in (S, units_of(S).as_semigroup()):
                problem = (T.identity, tuple(map(tuple, T.table)))
                if problem not in seen:
                    seen.add(problem)
                    yield T


class TestSymmetryOnTheOracle:
    def test_skipping_acts_on_most_oracle_universes(self, monkeypatch):
        # the oracle above checks values and witnesses with the skipping on;
        # with the identity alone nothing is skipped, and the tree grows
        searched = [(S, davenport_exact(S)) for S in _oracle_problems()]
        monkeypatch.setattr(zerosum, "automorphisms", identity_alone)
        fewer = 0
        for S, res in searched:
            plain = davenport_exact(S)
            assert (plain.value, plain.witness) == (res.value, res.witness)
            fewer += res.nodes < plain.nodes
        assert fewer > 0.9 * len(searched)

    def test_masks_match_brute_force_up_to_seven_elements(self):
        # one entry per distinct fixed set of a non-identity automorphism,
        # its down mask the OR over the automorphisms with that fixed set
        checked = 0
        for S in _oracle_problems():
            if S.size > 7:
                continue
            expected = {}
            for phi in brute_automorphisms(S):
                if phi == tuple(range(S.size)):
                    continue
                fixed = sum(1 << y for y, z in enumerate(phi) if z == y)
                down = sum(1 << y for y, z in enumerate(phi) if z < y)
                expected[fixed] = expected.get(fixed, 0) | down
            masks = _symmetry_masks(automorphisms(S))
            assert len({fixed for fixed, _ in masks}) == len(masks)
            assert dict(masks) == expected, S.describe()
            assert all(down for _, down in masks)
            checked += 1
        assert checked >= 20

    def test_any_subset_of_the_automorphisms_gives_the_same_result(self, monkeypatch):
        # the rule is sound for any subset: the identity plus a seeded random
        # subset of the full list gives the value and the witness of the
        # full list, which the test above matches with the identity alone
        rng = random.Random(2014)
        problems = [(S, automorphisms(S)) for S in _oracle_problems()]
        searched = [(S, davenport_exact(S)) for S, _ in problems]
        subsets = {
            id(S): [A[0]] + [phi for phi in A[1:] if rng.random() < 0.5]
            for S, A in problems
        }
        monkeypatch.setattr(
            zerosum, "automorphisms", lambda S, expired=None: subsets[id(S)]
        )
        for S, full in searched:
            part = davenport_exact(S)
            assert (part.value, part.witness) == (full.value, full.witness), S.describe()
        # most problems get a proper subset that is more than the identity
        proper = sum(1 < len(subsets[id(S)]) < len(A) for S, A in problems)
        assert proper > 0.75 * len(problems)


def euler_phi(n):
    return sum(gcd(k, n) == 1 for k in range(n))


def brute_automorphisms(S):
    """Every permutation of the universe that preserves products."""
    t, n = S.table, S.size
    return {
        phi
        for phi in permutations(range(n))
        if all(phi[t[a][b]] == t[phi[a]][phi[b]] for a in range(n) for b in range(a, n))
    }


def assert_value_automorphisms(S, A):
    """Each map is a bijection and a homomorphism by value-level products,
    away from the Cayley table, with the identity map first."""
    n = S.size
    assert A[0] == tuple(range(n))
    assert len(set(A)) == len(A)
    v = S.values
    products = [[S.index_of[value_product(S, v[a], v[b])] for b in range(n)]
                for a in range(n)]
    for phi in A:
        assert sorted(phi) == list(range(n))
        for a in range(n):
            for b in range(a, n):
                assert phi[products[a][b]] == products[phi[a]][phi[b]]


def assert_table_automorphisms(S, A):
    """Each map is a bijection with phi(a b) = phi(a) phi(b) for every a and
    b of the Cayley table, with the identity map first."""
    t, n = S.table, S.size
    assert A[0] == tuple(range(n))
    assert len(set(A)) == len(A)
    row_images = [itemgetter(*row) for row in t]  # phi -> phi(row a)
    for phi in A:
        assert sorted(phi) == list(range(n))
        of = itemgetter(*phi)  # row -> its entries at phi(b), b in order
        assert all(lhs(phi) == of(t[fa]) for lhs, fa in zip(row_images, phi))


class TestAutomorphisms:
    def test_matches_brute_force_up_to_seven_elements(self):
        checked = 0
        for S in _oracle_problems():
            if S.size <= 7:
                A = automorphisms(S)
                assert A[0] == tuple(range(S.size))
                assert len(set(A)) == len(A)
                assert set(A) == brute_automorphisms(S), S.describe()
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("n", range(1, 28))
    def test_cyclic_groups(self, n):
        A = automorphisms(build_cyclic_group(n))
        assert len(A) == euler_phi(n)
        assert_value_automorphisms(build_cyclic_group(n), A)

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda: build_abelian_group([3, 3]), 48),
            (lambda: build_abelian_group([2, 2, 2]), 168),
            (lambda: build_abelian_group([6, 6]), 288),
            (lambda: build_adjoined_zero_product([6, 6]), 8),
            # (C6 ∪ {0})^2 again, and Aut(C_20) times the 4 images of x+1
            (lambda: build_quotient_semigroup(7, poly(7, 0, 1, 1)), 8),
            (lambda: build_quotient_semigroup(5, poly(5, 1, 2, 1)), 32),
        ],
        ids=["C3^2", "C2^3", "C6^2", "(C6+inf)^2", "x(x+1)/F7", "(x+1)^2/F5"],
    )
    def test_known_counts(self, build, count):
        S = build()
        A = automorphisms(S)
        assert len(A) == count
        assert_value_automorphisms(S, A)

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda: build_quotient_semigroup(13, poly(13, 1, 2, 1)), 576),
            (lambda: build_abelian_group([10, 10]), 2_880),
            (lambda: build_abelian_group([2, 4, 8]), 2_048),
        ],
        ids=["(x+1)^2/F13", "C10^2", "C2xC4xC8"],
    )
    def test_whole_groups_within_the_work_cap(self, build, count):
        # every automorphism fits the work cap: a complete map costs n
        # lookups per generator to check
        S = build()
        A = automorphisms(S)
        assert len(A) == count
        assert_table_automorphisms(S, A)

    def test_capped_run_returns_a_verified_subset(self, monkeypatch):
        G = build_abelian_group([6, 6])
        every = set(automorphisms(G))
        monkeypatch.setattr(semigroup, "MAX_AUTOMORPHISM_STEPS", 20_000)
        A = automorphisms(G)
        assert 1 < len(A) < len(every)
        assert set(A) <= every
        assert_value_automorphisms(G, A)

    def test_expired_budget_keeps_only_the_identity(self):
        G = build_abelian_group([6, 6])
        assert automorphisms(G, expired=lambda: True) == [tuple(range(36))]
        # and the search still explores exactly one node
        res = davenport_exact(G, budget_ms=0)
        assert (res.nodes, res.complete) == (1, False)


class TestGroupFormula:
    def test_rank_one(self):
        assert davenport_group_formula([6]) == 6

    def test_rank_two(self):
        assert davenport_group_formula([2, 6]) == 7

    def test_p_group(self):
        assert davenport_group_formula([2, 2, 2]) == 4
        assert davenport_group_formula([2, 4, 8]) == 1 + 1 + 3 + 7

    def test_unknown_shape(self):
        assert davenport_group_formula([2, 6, 12]) is None

    def test_trivial(self):
        assert davenport_group_formula([]) == 1
        assert davenport_group_formula([1, 4]) == 4

    def test_non_chain_rejected(self):
        with pytest.raises(ValueError):
            davenport_group_formula([2, 3])
        with pytest.raises(ValueError):
            davenport_group_formula([4, 6])


class TestMonteCarlo:
    def test_all_reducible_at_davenport_length(self):
        C = build_cyclic_with_zero(2)
        rep = davenport_montecarlo_upper(C, 2, samples=500, seed=1)
        assert rep.all_reducible
        assert rep.reducible == rep.checked == 500

    def test_counterexample_below_davenport(self):
        G = build_cyclic_group(3)
        rep = davenport_montecarlo_upper(G, 2, samples=500, seed=1)
        assert rep.counterexample is not None
        assert not is_reducible(rep.counterexample)
        assert len(rep.counterexample) == 2

    def test_deterministic_given_seed(self, quotient_p3_sq):
        a = davenport_montecarlo_upper(quotient_p3_sq, 4, samples=100, seed=9)
        b = davenport_montecarlo_upper(quotient_p3_sq, 4, samples=100, seed=9)
        assert a.to_record() == b.to_record()

    def test_sampler_maps_subsets_onto_multisets(self):
        class EnumeratingRng:
            """Returns every k-subset in turn, largest pick first, since
            ``random.Random.sample`` does not sort its picks."""

            def __init__(self):
                self.subsets = None

            def sample(self, population, k):
                if self.subsets is None:
                    self.subsets = combinations(population, k)
                return list(next(self.subsets))[::-1]

        for n, k in ((3, 2), (4, 3), (5, 1), (1, 4)):
            G = build_cyclic_group(n)
            rng = EnumeratingRng()
            images = []
            for _ in range(comb(n + k - 1, k)):
                T = random_sequence(G, k, rng)
                assert len(T) == k
                images.append(tuple(i for i, m in T.pairs for _ in range(m)))
            with pytest.raises(StopIteration):
                next(rng.subsets)
            assert sorted(images) == list(all_multisets(n, k))


class TestResultRecord:
    def test_record_shape_and_determinism(self, quotient_p3_sq):
        a = davenport_exact(quotient_p3_sq).to_record()
        b = davenport_exact(quotient_p3_sq).to_record()
        assert a == b
        assert set(a) == {"value", "method", "witness", "nodes", "millis", "complete"}
        assert a["millis"] is None
