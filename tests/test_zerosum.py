"""Reducibility, sum sets, and Davenport searches, cross-checked against
brute-force enumeration."""

import dataclasses
import gc
import json
import random
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product as iproduct
from math import comb, gcd, prod
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
from davenport import cli, semigroup, zerosum
from davenport.semigroup import (
    FiniteSemigroup,
    _coordinates,
    automorphisms,
    build_adjoined_zero_product,
)
from davenport.verify import (
    assert_valid_reduction,
    build_witness_V,
    proposition_semigroup,
)
from davenport.zerosum import (
    _fiber_row,
    _ideal_row,
    _inverse_chunks,
    _shift_moves,
    _shifted,
    _symmetry_masks,
    _translate_row,
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
    translate_mask,
    unpruned_davenport,
    unpruned_mixed_length,
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


class TestInputGuards:
    """Each public entry point rejects an input outside its domain with a
    ``ValueError`` that names the fault."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda C4, null: Sequence(C4, [(4, 1)]), "outside the universe"),
            (lambda C4, null: Sequence(C4, [(-1, 1)]), "outside the universe"),
            (lambda C4, null: Sequence(C4, [(1, -1)]), "negative multiplicity"),
            (lambda C4, null: proper_subsums(Sequence.empty(C4)), "nonempty"),
            (lambda C4, null: is_reducible(Sequence.empty(C4)), "nonempty"),
            (lambda C4, null: is_zero_sum_free(Sequence(null, [(1, 1)])), "needs an identity"),
            (lambda C4, null: davenport_group_formula([0, 2]), "must be positive"),
            (lambda C4, null: davenport_montecarlo_upper(C4, 0), "length must be >= 1"),
        ],
        ids=["index_above", "index_below", "negative_count", "proper_subsums_empty",
             "is_reducible_empty", "zero_sum_free_no_identity", "formula_zero_factor",
             "montecarlo_length_0"],
    )
    def test_rejected(self, call, message):
        null = FiniteSemigroup("null", [0, 1], [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match=message):
            call(build_cyclic_group(4), null)


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
        # reducibility folds Cayley rows; only the exact search builds rows
        # of its tables
        def refuse(row):
            raise AssertionError("search tables built")

        for builder in ("_translate_row", "_ideal_row", "_fiber_row"):
            monkeypatch.setattr(zerosum, builder, refuse)
        S = proposition_semigroup(5)
        assert is_reducible(Sequence(S, [(S.index_of[poly(5, 2)], 4)]))
        assert not is_reducible(seq_of(S, poly(5, 0, 1), poly(5, 2)))
        report = davenport_montecarlo_upper(S, 20, samples=200, seed=3)
        assert report.counterexample is None and report.checked == 200
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
    """The search-table rows against the table product: each row as the
    search builds it, translates mask by mask, principal
    ideals and fibers element by element, and a group run's inverse
    table."""

    UNIVERSES = [
        lambda: build_cyclic_group(1),
        lambda: build_cyclic_with_zero(2),
        lambda: build_abelian_group([2, 4]),
        lambda: build_quotient_semigroup(3, poly(3, 1, 2, 1)),
        lambda: build_cyclic_with_zero(16),
        lambda: build_cyclic_with_zero(242),
    ]
    IDS = ["n1", "n3", "n8", "n9", "n17", "n243"]

    @pytest.mark.parametrize("build", UNIVERSES, ids=IDS)
    def test_masks_match_products(self, build):
        S = build()
        n = S.size
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]
        for x in range(n):
            row = S.table[x]
            ideal = _ideal_row(row)
            assert ideal == sum({1 << t for t in row}) and ideal >> x & 1
            # every r sits in the fiber of r*x, and the fibers hold n bits
            fiber = _fiber_row(row)
            assert all(fiber[S.op(r, x)] >> r & 1 for r in range(n))
            assert sum(m.bit_count() for m in fiber) == n
            chunks = _translate_row(row)
            assert [len(c) for c in chunks] == [
                1 << min(8, n - base) for base in range(0, n, 8)
            ]
            for R in masks:
                expected = 0
                for r in range(n):
                    if (R >> r) & 1:
                        expected |= 1 << S.op(r, x)
                assert translate_mask(chunks, R) == expected

    @pytest.mark.parametrize("build", UNIVERSES, ids=IDS)
    def test_inverse_table_matches_products(self, build):
        # a group run's inverse test, on the unit group of each universe
        # (n8 and n1 are groups already): a mask R in coordinates gives the
        # mask of the labels x with x^-1 in R
        G = units_of(build()).as_semigroup()
        n, e = G.size, G.identity
        coord, axes = _coordinates(G.table, e)
        inverse = _inverse_chunks(coord, axes)
        rng = random.Random(n)
        for R in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]:
            expected = sum(
                1 << x for x in range(n)
                if any(R >> coord[r] & 1 and G.op(x, r) == e for r in range(n))
            )
            assert translate_mask(inverse, R) == expected

    @pytest.mark.parametrize("build", UNIVERSES, ids=IDS)
    def test_rows_built_on_first_use(self, monkeypatch, build):
        # a run over all of S builds each row at most once, each from the
        # Cayley row of its element; a group run over its unit group
        # translates by shifts and builds one chunk table, its inverse test,
        # and nothing else
        S = build()
        U = units_of(S).as_semigroup()
        # the floor D*(U) - 2 is below the longest length of both
        floor = sum(d - 1 for d in units_of(S).invariant_factors) - 1
        calls = spy_on_row_builders(monkeypatch)
        for T, group in ((S, False), (U, True)):
            calls.clear()
            _, _, complete = zerosum._branch_and_bound(
                T.table, T.identity, automorphisms(T), zerosum.Budget(None), floor,
                coordinates=units_of(T).coordinates if group else None,
            )
            assert complete
            index = {id(row): x for x, row in enumerate(T.table)}
            built = Counter((name, index.get(id(row), "inverse")) for name, row in calls)
            assert all(count == 1 for count in built.values())
            # unless its root is cut (C1)
            if group:
                assert built == ({("_translate_row", "inverse"): 1} if T.size > 1 else {})
            else:
                assert "inverse" not in {x for _, x in built}


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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_cyclic_with_zero(16),
            lambda: build_product([build_cyclic_with_zero(3), build_cyclic_with_zero(5)]),
            lambda: build_quotient_semigroup(5, poly(5, 1, 2, 1)),
            lambda: FiniteSemigroup(
                "nilpotent", [0, 1, 2], [[0, 0, 0], [0, 2, 0], [0, 0, 0]]
            ),
        ],
        ids=["c16z", "c3z*c5z", "p5sq", "nil3"],
    )
    def test_deep_stops_match_backpointer_oracle(self, monkeypatch, build):
        # 5-12 terms, so the forward pass can stop past layer 4
        S = build()
        built = record_dp_layers(monkeypatch)
        rng = random.Random(f"deep stops {S.size}")
        for _ in range(12):
            pairs = random_sequence(S, rng.randrange(5, 13), rng).pairs
            for proper in (True, False):
                for target in range(S.size):
                    assert zerosum.dp_select(
                        S, pairs, target, proper=proper
                    ) == backpointer_dp_select(S, pairs, target, proper=proper)
        if S.size > 3:  # nil3 has too few elements for 5 distinct terms
            # some pass stopped past layer 4 and short of the last layer
            assert any(4 < k < n for k, n in built)

    def test_stop_at_the_first_layer_holding_the_target(self, monkeypatch):
        G = build_cyclic_group(7)
        built = record_dp_layers(monkeypatch)
        # 1 + 2 is partial in layer 2: 1 taken once, 2 once of twice
        pairs = [(1, 1), (2, 2), (3, 1), (4, 1)]
        assert zerosum.dp_select(G, pairs, 3, proper=False) == {1: 1, 2: 1}
        assert built == [(2, 4)]

    def test_irreducible_input_builds_every_layer(self, monkeypatch):
        G = build_abelian_group([2, 2, 2, 2])
        T = seq_of(G, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        built = record_dp_layers(monkeypatch)
        assert find_reduction(T) is None
        assert built == [(4, 4)]

    def test_proper_identity_target_builds_no_layer(self, monkeypatch):
        S = build_quotient_semigroup(3, poly(3, 1, 2, 1))
        built = record_dp_layers(monkeypatch)
        pairs = random_sequence(S, 6, random.Random(5)).pairs
        assert zerosum.dp_select(S, pairs, S.identity, proper=True) == {}
        assert built == []


def record_dp_layers(monkeypatch) -> list:
    """Wrap ``zerosum._dp_layers``; each call appends (the last layer it
    built, the number of pairs), so a full pass appends (k, k)."""
    built = []
    layers_of = zerosum._dp_layers

    def wrapper(S, pairs, stop=None):
        layers = layers_of(S, pairs, stop)
        built.append((len(layers) - 1, len(pairs)))
        return layers

    monkeypatch.setattr(zerosum, "_dp_layers", wrapper)
    return built


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


def spy_on_row_builders(monkeypatch):
    """Patch the search-table row builders to log each call: the list of
    ``(builder name, argument)`` pairs, in call order."""
    calls = []
    for name in ("_translate_row", "_ideal_row", "_fiber_row"):
        def build_row(row, name=name, builder=getattr(zerosum, name)):
            calls.append((name, row))
            return builder(row)
        monkeypatch.setattr(zerosum, name, build_row)
    return calls


def run_kind(kwargs):
    """The run of ``davenport_exact`` that a kernel call with these keyword
    arguments makes: a group run passes its ``coordinates``, and the run
    over S does not."""
    return "S" if kwargs.get("coordinates") is None else "group"


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

    def test_a_budget_passed_in_is_the_one_the_search_uses(self, quotient_p3_sq):
        # a spent Budget stops at node 1, and millis count from the Budget's
        # start, not from the call
        assert davenport_exact(quotient_p3_sq, zerosum.Budget(0)).nodes == 1
        budget = zerosum.Budget(None)
        budget.start -= 0.05  # started 50 ms earlier
        res = davenport_exact(quotient_p3_sq, budget)
        assert res.complete and res.value == 6
        assert res.millis >= 50 and res.units.millis >= 50

    def test_zero_budget_builds_no_row(self, monkeypatch, capsys):
        # the clock is read on node 1, before the root builds any row of the
        # search tables, so a zero budget at n = 256 builds none of them
        built = spy_on_row_builders(monkeypatch)
        S = build_quotient_semigroup(2, poly(2, *[0] * 8, 1))
        res = davenport_exact(S, budget_ms=0)
        assert (res.nodes, res.complete) == (1, False)
        assert built == []
        # the same run through the CLI is a lower bound: exit 3
        monkeypatch.setattr(cli, "build_quotient_semigroup", lambda p, f: S)
        assert cli.main(["davenport", "-p", "2", "-f", "x^8", "--budget-ms", "0"]) == 3
        assert "nodes=1 " in capsys.readouterr().out
        assert built == []

    def test_later_runs_build_only_the_rows_they_read(self, monkeypatch):
        # x^3(x+1)^3 over F_2: the run over S, after the group runs, builds
        # every fiber and ideal row at its root, and expands a single chain,
        # which reads 2 of the 64 translate rows
        calls = spy_on_row_builders(monkeypatch)
        kernel = zerosum._branch_and_bound
        runs = []

        def counted(*args, **kwargs):
            calls.clear()
            path, nodes, complete = kernel(*args, **kwargs)
            runs.append((run_kind(kwargs), len(args[0]), Counter(name for name, _ in calls)))
            return path, nodes, complete

        monkeypatch.setattr(zerosum, "_branch_and_bound", counted)
        S = build_quotient_semigroup(2, poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3)
        assert davenport_exact(S).value == 7
        later = [(n, rows) for kind, n, rows in runs if kind != "group"]
        assert later == [(64, {"_ideal_row": 64, "_fiber_row": 64, "_translate_row": 2})]

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
        # 692,887 nodes for the whole of S with no pruning floor; split at
        # the unit group, the C42 run and the class-group runs take this
        # many, the class bound 6 <= D(U) - 2 leaving no mixed run (1,604
        # with the minimum next index in the memo key)
        assert res.nodes == 1_097

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
            # the C156 run and the class-group runs; the class bound proves
            # the mixed run empty (13,655 with the minimum next index in the
            # memo key)
            assert res.nodes == 7_807

    def test_floor_above_the_value_is_caught(self, monkeypatch):
        # coordinates claiming an axis of order 100 for C_6 put the floor at
        # 98; the search then ends complete at or below it, which only a
        # wrong floor explains
        G = build_cyclic_group(6)
        U = units_of(G)
        wrong = (U.coordinates[0], [(1, 100)])
        monkeypatch.setattr(
            zerosum, "units_of", lambda S: dataclasses.replace(U, coordinates=wrong)
        )
        with pytest.raises(AssertionError, match="not above the floor 98"):
            davenport_exact(G)

    def test_capped_run_keeps_a_witnessed_lower_bound(self, monkeypatch, capsys):
        # the floor D*(U) - 2 = 154 only cuts branches; a run stopped by its
        # budget reports the longest sequence it has seen, with a witness.
        # U = C156 is listed off the clock, so only the search reads it, on
        # nodes 1, 1025 and 2049 of the U run; it runs out on the last, and
        # the call ends before S's automorphisms are listed
        S = build_quotient_semigroup(13, poly(13, 1, 2, 1))

        def listing(T, expired=None):
            assert T is not S, "S's automorphisms listed"
            return automorphisms(T)

        monkeypatch.setattr(zerosum, "automorphisms", listing)
        reads = iter([False, False, True])
        monkeypatch.setattr(zerosum.Budget, "expired", lambda self: next(reads))
        res = davenport_exact(S, budget_ms=60_000)
        assert (res.nodes, res.complete) == (2049, False)
        assert res.witness.parent is S
        assert 1 < res.value == 1 + len(res.witness) <= 156
        assert all(i in units_of(S).inverses for i in res.witness.indices())
        assert find_reduction(res.witness) is None
        # the same cut through the CLI is a lower bound: exit 3
        reads = iter([False, False, True])
        monkeypatch.setattr(cli, "build_quotient_semigroup", lambda p, f: S)
        assert cli.main(["davenport", "-p", "13", "-f", "(x+1)^2", "--format", "record"]) == 3
        record = json.loads(capsys.readouterr().out)
        assert (record["nodes"], record["complete"]) == (2049, False)
        assert record["witness"] == res.witness.format()

    def test_capped_later_run_keeps_the_longest_witness(self, monkeypatch):
        # x^3(x+1)^3 over F_2, a tie at 6 terms: the run over S cut at its
        # first node, after 24 nodes of class-group runs, has no incumbent,
        # so U's witness, mapped into S, stays
        kernel = zerosum._branch_and_bound

        def cut(*args, **kwargs):
            if run_kind(kwargs) == "S":
                args = args[:3] + (zerosum.Budget(0),) + args[4:]
            return kernel(*args, **kwargs)

        monkeypatch.setattr(zerosum, "_branch_and_bound", cut)
        S = build_quotient_semigroup(2, poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3)
        res = davenport_exact(S)
        assert (res.value, res.nodes - res.units.nodes, res.complete) == (7, 24 + 1, False)
        assert res.witness.format() == "(x^2+x+1)*3;(x^3+x+1)*3"
        assert find_reduction(res.witness) is None

    def test_run_over_s_at_its_floor_is_caught(self, monkeypatch, capsys):
        # the run over S is floored at D(U) - 2 = 5, below the 6 terms of U's
        # witness; a complete run that ends at 5 is an internal error, exit
        # 4 through the CLI
        kernel = zerosum._branch_and_bound

        def short(*args, **kwargs):
            path, nodes, complete = kernel(*args, **kwargs)
            return (path if run_kind(kwargs) == "group" else path[:5]), nodes, complete

        monkeypatch.setattr(zerosum, "_branch_and_bound", short)
        S = build_quotient_semigroup(2, poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3)
        with pytest.raises(AssertionError, match="found 5 terms, not above the floor 5"):
            davenport_exact(S)
        assert cli.main(["davenport", "-p", "2", "-f", "x^3*(x+1)^3"]) == 4

    @pytest.mark.parametrize(
        "f, pinned",
        [
            (poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3, (7, 114, True)),
            (poly(3, 1, 1) ** 3, (8, 300, True)),
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
        # skipped at every depth (1,630,011 nodes, most of them in U)
        S = build_quotient_semigroup(3, poly(3, 0, 0, 0, 0, 1))
        res = davenport_exact(S, budget_ms=120_000)
        assert res.complete
        assert res.value == 20
        assert davenport_group_formula(units_of(S).invariant_factors) == 20
        assert len(res.witness) == 19
        assert find_reduction(res.witness) is None

    def test_frontier_rank_three_group(self):
        # C4^3, the unit group of x(x+1)(x+2) over F_5: exact with 4,006 of
        # its 86,016 automorphisms listed (249,539 nodes with the minimum
        # next index in the memo key)
        G = build_abelian_group([4, 4, 4])
        res = davenport_exact(G, budget_ms=60_000)
        assert (res.value, res.nodes, res.complete) == (10, 174_944, True)
        assert res.value == davenport_group_formula((4, 4, 4))
        assert find_reduction(res.witness) is None

    def test_frontier_rank_three_quotient(self):
        # x(x+1)(x+2) over F_5, n = 125: the C4^3 run of S's units (162,662
        # nodes), then 101 nodes of class-group runs, whose class bound
        # 7 <= D(U) - 2 proves D(S) = D(U) = 10 with no mixed run. That run
        # took 3,994,950 nodes, so its return would move the count
        S = build_quotient_semigroup(5, poly(5, 0, 1) * poly(5, 1, 1) * poly(5, 2, 1))
        res = davenport_exact(S, budget_ms=120_000)
        assert (res.nodes, res.units.nodes, res.complete) == (162_763, 162_662, True)
        assert res.value == 10 == davenport_group_formula((4, 4, 4))
        assert len(res.witness) == 9
        assert find_reduction(res.witness) is None

    def test_skipping_acts_below_the_second_term(self):
        # U = C6 x C6 of x(x+1) over F_7: 70,828 nodes when only the first
        # two terms are tested, 336,355 with nothing skipped, 30,020 with
        # the product and the minimum next index in the memo key, and
        # 25,205 with the minimum next index alone
        S = build_quotient_semigroup(7, poly(7, 0, 1, 1))
        res = davenport_exact(units_of(S).as_semigroup())
        assert (res.value, res.nodes, res.complete) == (11, 16_132, True)
        assert res.witness.format() == "3*5;(x+3)*5"
        # and S itself: that U run plus 15 nodes of class-group runs, which
        # prove the mixed run empty
        res = davenport_exact(S)
        assert (res.value, res.nodes, res.complete) == (11, 16_147, True)
        assert res.witness.format() == "3*5;(x+3)*5"

    @pytest.mark.parametrize(
        "f, nodes",
        [(poly(7, 1, 2, 1), 1_691), (poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3, 1_018)],
        ids=["(x+1)^2/F7", "x^3(x+1)^3/F2"],
    )
    def test_identity_alone_gives_the_unskipped_tree(self, monkeypatch, f, nodes):
        monkeypatch.setattr(zerosum, "automorphisms", identity_alone)
        res = davenport_exact(build_quotient_semigroup(f.p, f))
        assert (res.nodes, res.complete) == (nodes, True)

    def test_working_set_freed_on_return(self):
        # explore refers to itself; once that cycle is broken the memo and
        # the search tables, both built inside the call, go by refcount,
        # with no cyclic garbage left. The rows built on first use and a
        # group run's shift masks go the same way: x^3(x+1)^3 over F_2 runs
        # on its unit group C4^2, its class groups and then on S, whose
        # translate and fiber rows make the peak, and C6^2 is a group run
        # alone
        cases = [
            (build_quotient_semigroup(2, poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3), 7),
            (units_of(build_quotient_semigroup(7, poly(7, 0, 1, 1))).as_semigroup(), 11),
        ]
        for S, value in cases:
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
            assert res.value == value
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

    @pytest.mark.parametrize("p", [17, 23])
    def test_proposition_past_the_table_cap(self, monkeypatch, p):
        # n = p^2 up to 529: the class bound skips the run over S, and the
        # run over the cyclic unit group translates by shifts, with no
        # chunk table per element
        monkeypatch.setattr(semigroup, "TABLE_CAP", 529)
        res = davenport_exact(proposition_semigroup(p))
        assert (res.value, res.complete) == (p * (p - 1), True)
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
            # the kernel over S itself, with no floor and no stop, which
            # davenport_exact skips wherever the class bound lets it: its
            # memo entries serve only minimum next indices from their own
            # on (a field such as F_25 needs that)
            path, _, complete = zerosum._branch_and_bound(
                S.table, S.identity, automorphisms(S), zerosum.Budget(None), 0
            )
            assert complete and (len(path) + 1, path) == expected, S.describe()
            U = units_of(S).as_semigroup()
            if U.size == S.size:
                assert res.units is None
                continue
            # D(U) as the split's run 1 is the standalone search of U
            alone = davenport_exact(U)
            assert res.units.to_record() == alone.to_record(), S.describe()
            expected = unpruned_davenport(U)
            assert (res.units.value, res.units.witness.indices()) == expected

    def test_both_unit_rules_act_on_the_oracle_universes(self, monkeypatch):
        # the oracle checks each unit rule where it acts: the floor D*(U) - 2
        # wherever U is nontrivial (up to C_26), and the split at the unit
        # group on each witness path. A group is one run. Otherwise U's
        # witness serves when the class bound proves B <= D(U) - 2, and a
        # run over S floored at D(U) - 2 gives it when B is larger
        quotients = list(_small_universes("quotient"))
        assert max(sum(units_of(S).invariant_factors) for S in quotients) == 26
        kernel = zerosum._branch_and_bound
        runs = []

        def counted(*args, **kwargs):
            runs.append(kwargs)
            return kernel(*args, **kwargs)

        def path_of(S):
            runs.clear()
            res = davenport_exact(S)
            kinds = {run_kind(run) for run in runs}
            if units_of(S).order == S.size:
                return res, "group"
            return res, "S" if "S" in kinds else "class bound"

        monkeypatch.setattr(zerosum, "_branch_and_bound", counted)
        searched = [(S, *path_of(S)) for S in _oracle_problems()]
        paths = Counter(path for _, _, path in searched)
        assert paths["group"] > 100 and paths["class bound"] > 50 and paths["S"] > 30
        # a tie: over F_2, x^3(x+1)^3 has D(U) = D(S) = 7, and its first
        # longest sequence x*6 has a non-unit term, so only the run over S
        # can give it; it stops at the class bound B = 6
        S = build_quotient_semigroup(2, poly(2, 0, 0, 0, 1) * poly(2, 1, 1) ** 3)
        res, path = path_of(S)
        assert path == "S"
        assert [run["stop_at"] for run in runs if run_kind(run) == "S"] == [6]
        assert davenport_exact(units_of(S).as_semigroup()).value == res.value == 7
        assert res.witness.format() == "x*6"
        # with every class bound unknown (a class-group run cut by the
        # budget) the run over S runs without a stop, also where the bound
        # proved D(S) = D(U): its floor D(U) - 2 lies below the longest
        # length, so the value and the witness stay the same
        monkeypatch.setattr(zerosum, "_class_bound", lambda *args: (None, 0))
        for S, res, path in searched:
            if path != "group":
                plain, _ = path_of(S)
                assert (plain.value, plain.witness) == (res.value, res.witness)
                assert [run["stop_at"] for run in runs if run_kind(run) == "S"] == [None]

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


class TestClassBound:
    def test_bound_holds_on_the_oracle(self):
        # B >= L_N on every oracle semigroup that is not a group, L_N from
        # the brute-force oracle; B is tight on each of them, so a bound one
        # lower anywhere fails here
        checked = 0
        for S in _oracle_problems():
            U = units_of(S)
            if U.order == S.size:
                continue
            d_units = davenport_exact(U.as_semigroup()).value
            bound, _ = zerosum._class_bound(S, U, d_units, zerosum.Budget(None))
            assert bound >= unpruned_mixed_length(S, U.inverses), S.describe()
            checked += 1
        assert checked > 100

    def test_bound_at_d_u_keeps_the_run_over_s(self, monkeypatch):
        # x^4 + x over F_2: U = C_3, so D(U) = 3, but B = L_N = 4, and
        # D(S) = 5 needs the run over S, which stops at its first sequence
        # of B terms
        S = build_quotient_semigroup(2, poly(2, 0, 1, 0, 0, 1))
        U = units_of(S)
        assert zerosum._class_bound(S, U, 3, zerosum.Budget(None))[0] == 4
        kernel = zerosum._branch_and_bound
        kinds = []

        def counted(*args, **kwargs):
            kinds.append(run_kind(kwargs))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(zerosum, "_branch_and_bound", counted)
        res = davenport_exact(S)
        assert (res.value, res.units.value, res.complete) == (5, 3, True)
        assert kinds.count("S") == 1 and kinds[-1] == "S"
        assert res.witness.format() == "x*3;x+1"
        assert find_reduction(res.witness) is None

    @pytest.mark.parametrize(
        "f, value, witness",
        [(poly(3, 0, 1) * poly(3, 1, 1), 3, "2;x"), (poly(2, 0, 1, 0, 0, 1), 5, "x*3;x+1")],
        ids=["x(x+1)-f3", "x4+x-f2"],
    )
    def test_cut_class_group_run_leaves_the_run_over_s_unstopped(
        self, monkeypatch, f, value, witness
    ):
        # the second group run of the call, a class group's, reports itself
        # cut: B is unknown, so the run over S gets no stop and still ends
        # with the value and the witness of the uncut call
        group_run = zerosum._group_run
        kernel = zerosum._branch_and_bound
        group_calls = []
        stops = []

        def second_cut(*args):
            path, nodes, complete = group_run(*args)
            group_calls.append(complete)
            return path, nodes, complete and len(group_calls) != 2

        def recorded(*args, **kwargs):
            if run_kind(kwargs) == "S":
                stops.append(kwargs.get("stop_at"))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(zerosum, "_group_run", second_cut)
        monkeypatch.setattr(zerosum, "_branch_and_bound", recorded)
        res = davenport_exact(build_quotient_semigroup(f.p, f))
        assert len(group_calls) == 2 and stops == [None]
        assert (res.value, res.complete) == (value, True)
        assert res.witness.format() == witness


class TestGroupKey:
    """A group run keys its states by the subsum set r_all alone. Against
    the same kernel on the same table with the product kept in the key, it
    gives the same value and witness, with no more nodes."""

    @staticmethod
    def both_keys(G):
        maps = automorphisms(G)
        coordinates = units_of(G).coordinates
        floor = sum(d - 1 for _, d in coordinates[1]) - 1
        return [
            zerosum._branch_and_bound(
                G.table, G.identity, maps, zerosum.Budget(None), floor, coordinates=c
            )
            for c in (coordinates, None)
        ]

    def test_every_oracle_group(self):
        checked = fewer = 0
        for G in _oracle_problems():
            if units_of(G).order != G.size:
                continue
            (path, nodes, complete), (kept, kept_nodes, kept_complete) = self.both_keys(G)
            assert complete and kept_complete
            assert path == kept, G.describe()
            assert nodes <= kept_nodes, G.describe()
            checked += 1
            fewer += nodes < kept_nodes
        assert checked > 100 and fewer > 40

    @pytest.mark.parametrize(
        "build, value, nodes",
        [
            (lambda: units_of(build_quotient_semigroup(7, poly(7, 0, 1, 1))).as_semigroup(),
             11, (16_132, 19_038)),
            (lambda: build_abelian_group([4, 4, 4]), 10, (174_944, 199_986)),
        ],
        ids=["C6^2", "C4^3"],
    )
    def test_larger_groups(self, build, value, nodes):
        G = build()
        (path, keyed, complete), (kept, kept_nodes, kept_complete) = self.both_keys(G)
        assert complete and kept_complete
        assert path == kept and len(path) + 1 == value
        assert (keyed, kept_nodes) == nodes


class TestCoordinates:
    """A group run's mixed-radix coordinates: a bijection onto range(n)
    that adds axis-wise, and shift translations that match the Cayley
    rows."""

    @staticmethod
    def check(G):
        n, rows = G.size, G.table
        # units_of keeps the coordinates of G's own table
        coord, axes = units_of(G).coordinates
        assert (coord, axes) == _coordinates(rows, G.identity)
        assert sorted(coord) == list(range(n))
        assert [s for s, _ in axes] == [prod(d for _, d in axes[:i]) for i in range(len(axes))]
        assert prod(d for _, d in axes) == n

        def add(a, b):
            return sum((a // s + b // s) % d * s for s, d in axes)

        for x in range(n):
            cx = coord[x]
            assert all(coord[z] == add(cx, coord[y]) for y, z in enumerate(rows[x]))
        # R -> R x by shifts against the Cayley row, on random masks
        elems = sorted(range(n), key=coord.__getitem__)
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(4)]
        for x, moves in enumerate(_shift_moves(coord, axes)):
            row = rows[x]
            for R in masks:
                expected = sum(1 << coord[row[elems[c]]] for c in range(n) if R >> c & 1)
                assert _shifted(R, moves) == expected

    def test_every_oracle_group(self):
        checked = 0
        for G in _oracle_problems():
            if units_of(G).order == G.size:
                self.check(G)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize(
        "p, f",
        [
            (13, poly(13, 1, 2, 1)),
            (2, poly(2, *[0] * 8, 1)),
            (3, poly(3, *[0] * 5, 1)),
            (5, poly(5, 0, 1) * poly(5, 1, 1) * poly(5, 2, 1)),
            (11, poly(11, 0, 1) * poly(11, 1, 1)),
        ],
        ids=["(x+1)^2/F13", "x^8/F2", "x^5/F3", "x(x+1)(x+2)/F5", "x(x+1)/F11"],
    )
    def test_unit_groups(self, p, f):
        self.check(units_of(build_quotient_semigroup(p, f)).as_semigroup())

    def test_corrupted_tables_raise(self):
        # C4 x C2 with its basis g (coordinate 1) and h (coordinate 4): two
        # entries of row g swapped outside <g> keep the greedy span a
        # bijection, but row g no longer adds 1 on its axis; with the
        # column swapped to match, h g lands on a label the span already
        # holds. And a table whose element 1 has powers 1, 2, 1, ... that
        # miss the identity 0: the check stops after n powers, with no hang
        G = build_abelian_group([2, 4])
        coord, axes = _coordinates(G.table, G.identity)
        assert axes == [(1, 4), (4, 2)]
        g, a, b = (coord.index(c) for c in (1, 4, 5))
        row_only = [list(row) for row in G.table]
        row_only[g][a], row_only[g][b] = row_only[g][b], row_only[g][a]
        symmetric = [list(row) for row in row_only]
        symmetric[a][g], symmetric[b][g] = symmetric[g][a], symmetric[g][b]
        no_cycle = [[0, 1, 2], [1, 2, 1], [2, 1, 0]]
        for table, identity, message in (
            (row_only, G.identity, "does not act as"),
            (symmetric, G.identity, "bijectively"),
            (no_cycle, 0, "miss the identity"),
        ):
            with pytest.raises(AssertionError, match=message):
                _coordinates(table, identity)


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
        searched = [(S, davenport_exact(S)) for S in _oracle_problems()]
        # every semigroup whose automorphisms a search lists: each problem
        # and, unless it is a group, its unit group and its class groups.
        # Each table gets a subset of its own the first time it is listed
        listed = {}
        subsets = {}

        def subset(T, expired=None):
            key = (T.identity, tuple(map(tuple, T.table)))
            if key not in listed:
                A = listed[key] = automorphisms(T)
                subsets[key] = [A[0]] + [phi for phi in A[1:] if rng.random() < 0.5]
            return subsets[key]

        monkeypatch.setattr(zerosum, "automorphisms", subset)
        for S, full in searched:
            part = davenport_exact(S)
            assert (part.value, part.witness) == (full.value, full.witness), S.describe()
        # most of those with more than two automorphisms (129 of 143) get a
        # proper subset that is more than the identity
        proper = sum(1 < len(subsets[key]) < len(A) for key, A in listed.items())
        assert proper > 0.75 * sum(len(A) > 2 for A in listed.values())


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
        assert rep.counterexample is None and rep.checked == 500

    def test_counterexample_below_davenport(self):
        G = build_cyclic_group(3)
        rep = davenport_montecarlo_upper(G, 2, samples=500, seed=1)
        assert rep.counterexample is not None
        assert not is_reducible(rep.counterexample)
        assert len(rep.counterexample) == 2

    def test_deterministic_given_seed(self, quotient_p3_sq):
        a = davenport_montecarlo_upper(quotient_p3_sq, 4, samples=100, seed=9)
        b = davenport_montecarlo_upper(quotient_p3_sq, 4, samples=100, seed=9)
        assert a == b

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

    @staticmethod
    def reference_report(S, d, samples, seed):
        """The sampler as a plain loop: ``random_sequence``, then ``is_reducible``."""
        rng = random.Random(seed)
        for checked in range(1, samples + 1):
            T = random_sequence(S, d, rng)
            if not is_reducible(T):
                return zerosum.MonteCarloReport(d, samples, checked, T, seed)
        return zerosum.MonteCarloReport(d, samples, samples, None, seed)

    @pytest.mark.parametrize("case", ["quotient", "cyclic3", "cyclic2_zero", "null"])
    def test_matches_the_reference_loop(self, case, quotient_p3_sq):
        S, lengths = {
            "quotient": (quotient_p3_sq, (2, 4, 6)),
            "cyclic3": (build_cyclic_group(3), (2,)),
            "cyclic2_zero": (build_cyclic_with_zero(2), (1, 2)),
            "null": (FiniteSemigroup("null", [0, 1, 2], [[0] * 3] * 3, zero_value=0),
                     (1, 2, 3)),
        }[case]
        counterexamples = 0
        for d in lengths:
            for seed in range(10):
                got = davenport_montecarlo_upper(S, d, samples=200, seed=seed)
                assert got == self.reference_report(S, d, 200, seed)
                counterexamples += got.counterexample is not None
        # the counterexamples are compared too, not only the counts
        assert counterexamples > 0

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="sample count"):
            davenport_montecarlo_upper(build_cyclic_group(3), 2, samples=-5)

    def test_builds_a_sequence_only_for_the_counterexample(self, monkeypatch):
        built = []
        init = Sequence.__init__

        def counting_init(self, parent, pairs):
            built.append(parent)
            init(self, parent, pairs)

        monkeypatch.setattr(Sequence, "__init__", counting_init)
        rep = davenport_montecarlo_upper(build_cyclic_with_zero(2), 2, samples=500, seed=1)
        assert rep.counterexample is None and rep.checked == 500
        assert built == []
        # seed 4 folds five reducible draws before the sixth is irreducible
        rep = davenport_montecarlo_upper(build_cyclic_group(3), 2, samples=500, seed=4)
        assert rep.counterexample is not None and rep.checked == 6
        assert len(built) == 1


class TestResultRecord:
    def test_record_shape_and_determinism(self, quotient_p3_sq):
        a = davenport_exact(quotient_p3_sq).to_record()
        b = davenport_exact(quotient_p3_sq).to_record()
        assert a == b
        assert set(a) == {"value", "method", "witness", "nodes", "millis", "complete"}
        assert a["millis"] is None
