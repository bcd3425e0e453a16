"""Reducibility, sum sets, and Davenport searches, cross-checked against
brute-force enumeration."""

import random

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
from davenport.zerosum import _multiset_count, _unrank_multiset, sigma_index

from conftest import (
    all_multisets,
    brute_is_reducible,
    brute_proper_subsums,
    brute_sumset,
)


class TestSigma:
    def test_empty_is_identity(self, quotient_p3_sq):
        assert sigma(Sequence.empty(quotient_p3_sq)) == poly(3, 1)

    def test_cyclic_exponent_addition(self):
        C = build_cyclic_with_zero(3)
        T = Sequence(C, [(C.index_of[1], 2)])
        assert sigma(T) == 2

    def test_quotient_product(self, quotient_p3_sq):
        T = Sequence.of(quotient_p3_sq, poly(3, 0, 1), poly(3, 2, 1))
        assert sigma(T) == poly(3, 2)

    def test_empty_without_identity_rejected(self):
        # build a tiny identity-free semigroup directly: right-zero of INFs
        from davenport.semigroup import FiniteSemigroup

        S = FiniteSemigroup("product", ["a", "b"], lambda u, v: "a", zero_value=None)
        with pytest.raises(ValueError):
            sigma_index(Sequence.empty(S))


class TestProperSubsums:
    def test_quotient_example(self, quotient_p3_sq):
        T = Sequence.of(quotient_p3_sq, poly(3, 0, 1), poly(3, 2))
        assert proper_subsums(T) == {poly(3, 1), poly(3, 0, 1), poly(3, 2)}

    def test_single_term(self):
        C = build_cyclic_with_zero(2)
        T = Sequence.of(C, 1)
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
        T = Sequence.of(quotient_p3_sq, poly(3, 0, 1), poly(3, 2))
        assert not is_reducible(T)
        assert find_reduction(T) is None

    def test_absorbing_witness(self):
        C = build_cyclic_with_zero(2)
        T = Sequence.of(C, 1, INF)
        assert is_reducible(T)
        assert find_reduction(T) == Sequence.of(C, INF)

    def test_witness_contract(self, quotient_p3_sq):
        rng = random.Random(37)
        for _ in range(300):
            T = random_sequence(quotient_p3_sq, rng.randrange(1, 7), rng)
            red = find_reduction(T)
            if red is None:
                assert not brute_is_reducible(T)
            else:
                assert red.is_proper_subsequence_of(T)
                assert sigma_index(red) == sigma_index(T)

    def test_three_routes_agree(self, quotient_p3_sq, c2z_squared):
        C = build_cyclic_with_zero(2)
        for S in (quotient_p3_sq, c2z_squared, C):
            for length in (1, 2, 3, 4, 5):
                for idx in all_multisets(S.size, length):
                    T = Sequence.from_indices(S, idx)
                    expected = brute_is_reducible(T)
                    assert is_reducible(T) == expected
                    assert (find_reduction(T) is not None) == expected

    def test_hereditary_exhaustive(self, quotient_p3_sq, c2z_squared):
        for S in (quotient_p3_sq, c2z_squared):
            for length in (1, 2, 3):
                for idx in all_multisets(S.size, length):
                    T = Sequence.from_indices(S, idx)
                    if not is_reducible(T):
                        continue
                    for x in range(S.size):
                        extended = T.add(Sequence.from_indices(S, [x]))
                        assert is_reducible(extended)


class TestZeroSumFree:
    def test_generator_powers(self):
        G = build_cyclic_group(5)
        T = Sequence(G, [(1, 4)])
        assert is_zero_sum_free(T)
        assert not is_zero_sum_free(Sequence(G, [(1, 5)]))

    def test_inverse_pair(self):
        G = build_cyclic_group(7)
        T = Sequence.of(G, 2, 5)
        assert not is_zero_sum_free(T)

    def test_empty(self):
        G = build_cyclic_group(4)
        assert is_zero_sum_free(Sequence.empty(G))

    def test_nonunit_term_rejected(self, quotient_p3_sq):
        T = Sequence.of(quotient_p3_sq, poly(3, 1, 1))
        with pytest.raises(ValueError):
            is_zero_sum_free(T)

    def test_unit_terms_allowed_in_semigroup(self, quotient_p3_sq):
        T = Sequence.of(quotient_p3_sq, poly(3, 2))
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
        T = Sequence.of(quotient_p3_sq, poly(3, 0, 1))
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

    def test_identityless_rejected(self):
        from davenport.semigroup import FiniteSemigroup

        S = FiniteSemigroup("product", ["a"], lambda u, v: "a")
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

    def test_unranker_is_bijective(self):
        for n, k in ((3, 2), (4, 3), (5, 1)):
            total = _multiset_count(n, k)
            seen = {tuple(_unrank_multiset(n, k, r)) for r in range(total)}
            assert len(seen) == total
            assert all(list(t) == sorted(t) for t in seen)


class TestResultRecord:
    def test_record_shape_and_determinism(self, quotient_p3_sq):
        a = davenport_exact(quotient_p3_sq).to_record()
        b = davenport_exact(quotient_p3_sq).to_record()
        assert a == b
        assert set(a) == {"value", "method", "witness", "nodes", "millis", "complete"}
        assert a["millis"] is None
