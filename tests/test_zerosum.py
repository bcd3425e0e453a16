"""Reducibility, sum sets, and Davenport searches, cross-checked against
brute-force enumeration."""

import gc
import random
import tracemalloc
from itertools import combinations, product as iproduct
from math import comb

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
from davenport import zerosum
from davenport.semigroup import FiniteSemigroup, build_adjoined_zero_product
from davenport.verify import build_witness_V, proposition_semigroup
from davenport.zerosum import (
    _translate_mask,
    _translate_tables,
    sigma_index,
)

from conftest import (
    all_multisets,
    backpointer_dp_collect,
    backpointer_dp_select,
    brute_is_reducible,
    brute_proper_subsums,
    brute_sumset,
    unpruned_davenport,
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
        # build a tiny identity-free semigroup directly: every product is "a"
        from davenport.semigroup import FiniteSemigroup

        S = FiniteSemigroup("product", ["a", "b"], [[0, 0], [0, 0]])
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

    def test_builds_no_search_tables(self, monkeypatch):
        # reducibility folds Cayley rows; only the exact search builds tables
        def refuse(S):
            raise AssertionError("search tables built")

        monkeypatch.setattr(zerosum, "_translate_tables", refuse)
        S = proposition_semigroup(5)
        assert is_reducible(Sequence(S, [(S.index_of[poly(5, 2)], 4)]))
        assert not is_reducible(Sequence.of(S, poly(5, 0, 1), poly(5, 2)))
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
                        extended = T.add(Sequence.from_indices(S, [x]))
                        assert is_reducible(extended)


class TestTranslateTables:
    """Chunked translate tables against the table product, mask by mask."""

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
        tables = _translate_tables(S)
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]
        for x in range(n):
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
                        assert zerosum._dp_select(
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
        # the child test decides the same children as building rp*x did,
        # so the search tree keeps its size
        assert res.nodes == 692_887

    def test_tree_pinned_x3_x1_3_over_f2(self):
        S = build_quotient_semigroup(2, poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3)
        res = davenport_exact(S)
        assert (res.value, res.nodes, res.complete) == (7, 89_800, True)

    def test_frontier_x2_x1_2_over_f3(self):
        # n = 81: exact, and D(S) = D(U(S)) = 11 although f is not squarefree
        S = build_quotient_semigroup(3, poly(3, 0, 0, 1) * poly(3, 1, 1) ** 2)
        res = davenport_exact(S, budget_ms=60_000)
        assert res.complete
        assert res.value == 11
        assert davenport_group_formula(units_of(S).invariant_factors) == 11
        assert len(res.witness) == 10
        assert find_reduction(res.witness) is None

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
