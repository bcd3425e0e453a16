"""Verification harness: claim checks, constructive reductions, reports."""

import hashlib
import random

import pytest

from davenport import (
    INF,
    HypothesisViolation,
    Sequence,
    build_cyclic_with_zero,
    build_product,
    build_quotient_semigroup,
    davenport_exact,
    is_reducible,
    poly,
    random_sequence,
    sumset,
    units_of,
)
from davenport import cli
from davenport.verify import (
    STATUS_INCOMPLETE,
    STATUS_OUTSIDE,
    STATUS_VERIFIED,
    assert_valid_reduction,
    build_witness_V,
    conjecture_probe,
    constructive_reduction,
    proposition_semigroup,
    quadratic_modulus,
    reduce_quadratic_case,
    verify_lemma_product,
    verify_proposition,
    verify_theorem1,
)
from davenport.gfpoly import factor
from davenport.semigroup import build_adjoined_zero_product
from davenport.zerosum import sigma_index

from conftest import is_proper_subsequence, seq_of


def count_quotient_builds(monkeypatch) -> list:
    """The moduli of every quotient semigroup built from now on."""
    import davenport.semigroup
    import davenport.verify

    moduli = []
    for module in (davenport.semigroup, davenport.verify):
        build = module.build_quotient_semigroup

        def counting(p, g, build=build):
            moduli.append(g)
            return build(p, g)

        monkeypatch.setattr(module, "build_quotient_semigroup", counting)
    return moduli


def count_factor_calls(monkeypatch) -> list:
    """The moduli, as text, of every factorization from now on."""
    import davenport.semigroup
    import davenport.verify

    factored = []
    for module in (davenport.semigroup, davenport.verify):
        def counting(f, factor=module.factor):
            factored.append(str(f))
            return factor(f)

        monkeypatch.setattr(module, "factor", counting)
    return factored


class TestTheorem1:
    def test_split_quadratic(self):
        report = verify_theorem1(3, poly(3, 0, 1) * poly(3, 1, 1))
        assert report.status == STATUS_VERIFIED
        assert report.lhs.value == 3 and report.rhs.value == 3
        assert report.artifacts["crt_route_value"] == 3
        assert report.artifacts["unit_invariants"] == [2, 2]

    def test_irreducible_quadratic(self):
        report = verify_theorem1(3, poly(3, 1, 0, 1))
        assert report.status == STATUS_VERIFIED
        assert report.lhs.value == 8 and report.rhs.value == 8

    def test_linear(self):
        report = verify_theorem1(3, poly(3, 0, 1))
        assert report.status == STATUS_VERIFIED
        assert report.lhs.value == 2 and report.rhs.value == 2

    def test_non_squarefree_rejected(self):
        with pytest.raises(HypothesisViolation):
            verify_theorem1(3, poly(3, 1, 2, 1))

    def test_p2_outside_hypothesis(self):
        report = verify_theorem1(2, poly(2, 0, 1))
        assert report.status == STATUS_OUTSIDE
        # trivial unit group at p=2 with a linear factor: sides differ
        assert report.lhs.value == 2 and report.rhs.value == 1

    def test_p2_without_linear_factors_still_equal(self):
        report = verify_theorem1(2, poly(2, 1, 1, 1))  # irreducible x^2+x+1
        assert report.status == STATUS_OUTSIDE
        assert report.lhs.value == report.rhs.value == 3

    def test_record_shape(self):
        report = verify_theorem1(3, poly(3, 0, 1))
        rec = report.to_record()
        assert rec["claim"] == "theorem1"
        assert rec["status"] == STATUS_VERIFIED
        assert rec["lhs"]["complete"] and rec["rhs"]["complete"]

    @pytest.mark.parametrize(
        "f",
        [poly(3, 0, 1) * poly(3, 1, 1), poly(3, 1, 0, 1)],
        ids=["x^2+x", "x^2+1"],
    )
    def test_builds_the_quotient_once(self, monkeypatch, f):
        moduli = count_quotient_builds(monkeypatch)
        verify_theorem1(3, f)
        assert moduli.count(f) == 1

    def test_factors_the_modulus_once(self, monkeypatch):
        factored = count_factor_calls(monkeypatch)
        # the searches stop on their first node; factoring precedes them
        verify_theorem1(7, poly(7, 0, 1, 1), budget_ms=0)
        assert factored == ["x^2+x"]

    def test_budget_zero_leaves_the_comparison_open(self):
        # the search stops on its first node, inside the U run
        report = verify_theorem1(3, poly(3, 0, 1) * poly(3, 1, 1), budget_ms=0)
        assert not (report.lhs.complete or report.rhs.complete)
        assert report.artifacts["units_le_semigroup"] is None
        assert report.status == STATUS_INCOMPLETE


def reduction_digest() -> str:
    """SHA-256 of input -> output lines of both reduction procedures on
    seeded threshold-length sequences, and on every one-non-unit sequence
    whose unit part is a generator power (the fixing-product case)."""
    h = hashlib.sha256()

    def record(T, T_prime):
        h.update(f"{T.format()} -> {T_prime.format()}\n".encode())

    for n_list in ([2], [3], [6], [2, 2], [2, 4], [3, 3], [2, 2, 2], [2, 2, 4], [3, 4]):
        S = build_adjoined_zero_product(n_list)
        d = davenport_exact(units_of(S).as_semigroup()).value
        rng = random.Random(f"lemma {n_list}")
        for _ in range(150):
            T = random_sequence(S, d + rng.randrange(2), rng)
            record(T, constructive_reduction(S, T, d_units=d))
    for p in (3, 5, 7):
        S = proposition_semigroup(p)
        rng = random.Random(f"proposition {p}")
        for _ in range(150):
            T = random_sequence(S, p * (p - 1) + rng.randrange(2), rng)
            record(T, reduce_quadratic_case(p, T))
        d = p * (p - 1)
        units = units_of(S).inverses
        for g in sorted(units):
            if is_reducible(Sequence(S, [(g, d - 1)])):
                continue
            for a in range(S.size):
                if a not in units:
                    T = Sequence(S, [(g, d - 1), (a, 1)])
                    record(T, reduce_quadratic_case(p, T))
    return h.hexdigest()


def stress_digest() -> str:
    """SHA-256 of the output pairs of both reductions on seeded sequences of
    exactly the threshold length, over the shapes the stress-reduce
    benchmark draws from: C16 ∪ {0}, two and three adjoined-zero factors,
    and F_p[x]/<(x+1)^2> for p = 3, 5."""
    h = hashlib.sha256()
    for n_list in ([16], [2, 7], [2, 2, 3]):
        S = build_adjoined_zero_product(n_list)
        d = davenport_exact(units_of(S).as_semigroup()).value
        rng = random.Random(f"stress {n_list}")
        for _ in range(200):
            T = random_sequence(S, d, rng)
            h.update(f"{constructive_reduction(S, T, d_units=d).pairs}\n".encode())
    for p in (3, 5):
        S = proposition_semigroup(p)
        rng = random.Random(f"stress proposition {p}")
        for _ in range(200):
            T = random_sequence(S, p * (p - 1), rng)
            h.update(f"{reduce_quadratic_case(p, T).pairs}\n".encode())
    return h.hexdigest()


class TestConstructiveReduction:
    def test_all_units_zero_sum_gives_empty(self, c2z_squared):
        P = c2z_squared
        T = seq_of(P, (1, 0), (1, 1), (0, 1))
        T_prime = constructive_reduction(P, T, d_units=3)
        assert T_prime == Sequence.empty(P)

    def test_absorbing_coordinate_case(self, c2z_squared):
        P = c2z_squared
        T = Sequence(P, [(P.index_of[(INF, 1)], 1), (P.index_of[(1, 1)], 2)])
        T_prime = constructive_reduction(P, T, d_units=3)
        assert T_prime == seq_of(P, (INF, 1))
        assert sigma_index(T_prime) == sigma_index(T)

    def test_single_factor_degenerate(self):
        C = build_cyclic_with_zero(2)
        T = Sequence(C, [(C.index_of[INF], 1), (C.index_of[1], 2)])
        T_prime = constructive_reduction(C, T, d_units=2)
        assert is_proper_subsequence(T_prime, T)
        assert sigma_index(T_prime) == sigma_index(T)

    def test_below_threshold_rejected(self, c2z_squared):
        T = seq_of(c2z_squared, (1, 1))
        with pytest.raises(ValueError):
            constructive_reduction(c2z_squared, T, d_units=3)

    def test_wrong_kind_rejected(self, quotient_p3_sq):
        T = seq_of(quotient_p3_sq, poly(3, 2))
        with pytest.raises(TypeError):
            constructive_reduction(quotient_p3_sq, T, d_units=1)

    def test_outputs_pinned(self):
        # the digest of the outputs before the reductions moved to index pairs
        assert reduction_digest() == (
            "9a8dd7007eaeee42dd07e353bba9c135aecfa08f87ddae1f2989ce5588baef48"
        )

    def test_stress_shape_outputs_pinned(self):
        # the digest of the outputs while the DP still built every layer
        assert stress_digest() == (
            "fbdfdc13e823d34f3fd4a175416a0e86240800a92bd2ff5a5ab44cc33b991da8"
        )

    def test_coordinate_tables_built_once_per_semigroup(self, monkeypatch):
        import davenport.semigroup

        builds = []
        digits = davenport.semigroup._digits
        monkeypatch.setattr(
            davenport.semigroup, "_digits", lambda f: builds.append(f) or digits(f)
        )
        P = build_product([build_cyclic_with_zero(2), build_cyclic_with_zero(2)])
        inf_1 = P.index_of[(INF, 1)]
        for T in (
            Sequence(P, [(inf_1, 1), (P.index_of[(1, 1)], 2)]),
            Sequence(P, [(inf_1, 1), (P.index_of[(1, 0)], 1), (P.index_of[(0, 1)], 1)]),
        ):
            T_prime = constructive_reduction(P, T, d_units=3)
            assert is_proper_subsequence(T_prime, T)
            # the zero-coordinate sets and the projection away from {1}
            assert len(builds) == 2

    @pytest.mark.parametrize("n_list", [[2], [3], [2, 2], [2, 4], [3, 3], [2, 2, 2]])
    def test_random_threshold_sequences(self, n_list):
        if len(n_list) == 1:
            S = build_cyclic_with_zero(n_list[0])
        else:
            S = build_product([build_cyclic_with_zero(n) for n in n_list])
        d_units = davenport_exact(units_of(S).as_semigroup()).value
        rng = random.Random(43)
        for _ in range(200):
            T = random_sequence(S, d_units + rng.randrange(2), rng)
            T_prime = constructive_reduction(S, T, d_units=d_units)
            assert is_proper_subsequence(T_prime, T)
            assert sigma_index(T_prime) == sigma_index(T)


class TestLemmaProduct:
    def test_two_two(self):
        report = verify_lemma_product([2, 2], stress=100)
        assert report.status == STATUS_VERIFIED
        assert report.lhs.value == report.rhs.value == 3
        assert report.artifacts["stress_passed"] == 100
        assert report.artifacts["units_bound_k_plus_1"]

    def test_single_cyclic(self):
        report = verify_lemma_product([3], stress=50)
        assert report.status == STATUS_VERIFIED
        assert report.lhs.value == 3

    def test_mixed_orders(self):
        report = verify_lemma_product([2, 4], stress=50)
        assert report.status == STATUS_VERIFIED
        assert report.lhs.value == 5

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma_product([1, 2])

    def test_negative_stress_rejected(self):
        with pytest.raises(ValueError, match="stress"):
            verify_lemma_product([2, 2], stress=-1)

    def test_budget_zero_leaves_the_units_bound_open(self):
        # the search stops on its first node, inside the U run
        report = verify_lemma_product([2, 2], budget_ms=0, stress=5)
        assert not report.rhs.complete
        assert report.artifacts["units_bound_k_plus_1"] is None
        assert report.status == STATUS_INCOMPLETE


class TestWitnessFamily:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_irreducible_for_small_primes(self, p):
        V = build_witness_V(proposition_semigroup(p))
        assert len(V) == p - 1
        assert not is_reducible(V)

    def test_p3_exact_content(self):
        S = proposition_semigroup(3)
        V = build_witness_V(S)
        assert V.parent is S
        assert V == seq_of(S, poly(3, 0, 1), poly(3, 2))

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            build_witness_V(proposition_semigroup(2))


class TestQuadraticReduction:
    def test_all_units(self):
        S = proposition_semigroup(3)
        T = Sequence(S, [(S.index_of[poly(3, 2)], 6)])
        T_prime = reduce_quadratic_case(3, T)
        assert T_prime == Sequence(S, [(S.index_of[poly(3, 2)], 4)])

    def test_two_nonunits_absorb(self):
        S = proposition_semigroup(3)
        T = Sequence(S, [
            (S.index_of[poly(3, 1, 1)], 1),
            (S.index_of[poly(3, 2, 2)], 1),
            (S.index_of[poly(3, 2)], 4),
        ])
        T_prime = reduce_quadratic_case(3, T)
        assert T_prime == seq_of(S, poly(3, 1, 1), poly(3, 2, 2))
        assert sigma_index(T_prime) == S.zero == sigma_index(T)

    def test_one_nonunit_uses_fixing_product(self):
        S = proposition_semigroup(3)
        x = poly(3, 0, 1)
        T = Sequence(S, [(S.index_of[poly(3, 2, 2)], 1), (S.index_of[x], 5)])
        T_prime = reduce_quadratic_case(3, T)
        assert is_proper_subsequence(T_prime, T)
        assert sigma_index(T_prime) == sigma_index(T)
        # the unit part x^5 is zero-sum free, so a product-(x+2) block W
        # was removed: x^2 = x+2 fixes 2(x+1), leaving x^3 and the non-unit
        assert T_prime == Sequence(S, [(S.index_of[poly(3, 2, 2)], 1), (S.index_of[x], 3)])

    def test_nonunit_pairs_absorb_exhaustively(self):
        for p in (3, 5):
            S = proposition_semigroup(p)
            unit_set = set(units_of(S).elements)
            nonunits = [i for i in range(S.size) if i not in unit_set]
            assert len(nonunits) == p
            for i in nonunits:
                for j in nonunits:
                    assert S.op(i, j) == S.zero

    def test_maximal_unit_sumsets_cover(self):
        # every maximal zero-sum-free unit sequence misses only the identity
        S = proposition_semigroup(3)
        U = units_of(S)
        unit_values = {S.values[i] for i in U.elements}
        G = U.as_semigroup()
        found = []

        def extend(prefix, start):
            if len(prefix) == 5:
                found.append(tuple(prefix))
                return
            for e in range(start, G.size):
                cand = prefix + [e]
                T = Sequence.from_indices(G, cand)
                if not is_reducible(T):
                    extend(cand, e)

        extend([], 0)
        assert found
        for idx in found:
            T = Sequence.from_indices(G, idx)
            assert sumset(T) == unit_values - {poly(3, 1)}

    def test_below_threshold_rejected(self):
        S = proposition_semigroup(3)
        T = Sequence(S, [(S.index_of[poly(3, 2)], 3)])
        with pytest.raises(ValueError):
            reduce_quadratic_case(3, T)

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            reduce_quadratic_case(2, Sequence.empty(proposition_semigroup(2)))

    def test_random_threshold_sequences_p5(self):
        S = proposition_semigroup(5)
        rng = random.Random(47)
        for _ in range(100):
            T = random_sequence(S, 20, rng)
            T_prime = reduce_quadratic_case(5, T)
            assert is_proper_subsequence(T_prime, T)
            assert sigma_index(T_prime) == sigma_index(T)

    def test_builds_no_modulus(self, monkeypatch):
        import davenport.verify

        S = proposition_semigroup(5)
        rng = random.Random(53)
        inputs = [random_sequence(S, 20, rng) for _ in range(100)]
        built = []
        monkeypatch.setattr(
            davenport.verify, "quadratic_modulus",
            lambda p: built.append(p) or quadratic_modulus(p),
        )
        for T in inputs:
            reduce_quadratic_case(5, T)
        assert built == []

    def test_other_modulus_rejected(self):
        S = build_quotient_semigroup(5, poly(5, 1, 0, 1))
        with pytest.raises(ValueError, match="quotient by"):
            reduce_quadratic_case(5, Sequence(S, [(S.identity, 20)]))


class TestProposition:
    def test_p3_verified(self):
        report = verify_proposition(3, stress=100)
        assert report.status == STATUS_VERIFIED
        assert report.lhs.value == report.rhs.value == 6
        assert report.artifacts["lower_bound"] == 6
        assert report.artifacts["exhibit_V_bound"] == 3
        assert report.artifacts["stress_passed"] == 100

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            verify_proposition(2)

    @pytest.mark.parametrize("counts", [{"stress": -1}])
    def test_negative_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="stress count must be >= 0"):
            verify_proposition(3, **counts)

    def test_builds_the_quotient_once(self, monkeypatch):
        moduli = count_quotient_builds(monkeypatch)
        verify_proposition(3, stress=5)
        assert moduli == [quadratic_modulus(3)]

    def test_cut_report_stays_incomplete(self, capsys):
        # a cut search has spent the budget, so nothing runs after it and
        # neither side is filled in
        report = verify_proposition(5, budget_ms=0, stress=10)
        assert report.status == STATUS_INCOMPLETE
        assert report.rhs is report.lhs.units
        assert not report.rhs.complete
        assert "montecarlo" not in report.artifacts
        assert report.artifacts["lower_bound"] == 20
        assert report.artifacts["stress_sequences"] == 10
        assert report.artifacts["stress_passed"] == 0
        argv = ["verify", "proposition", "-p", "5", "--budget-ms", "0", "--stress", "10"]
        assert cli.main(argv) == 3
        assert "status: incomplete" in capsys.readouterr().out
        lemma = verify_lemma_product([2, 4], budget_ms=0, stress=5)
        assert lemma.status == STATUS_INCOMPLETE
        assert lemma.artifacts["stress_sequences"] == 5
        assert lemma.artifacts["stress_passed"] == 0

    @pytest.mark.parametrize(
        "reduction, report",
        [
            ("reduce_quadratic_case", lambda: verify_proposition(3, stress=10)),
            ("constructive_reduction", lambda: verify_lemma_product([2, 2], stress=10)),
        ],
    )
    def test_stress_cut_short_is_not_verified(self, monkeypatch, reduction, report):
        # both sides finish; the budget runs out after the second reduction
        from davenport import verify as verify_module

        reduce = getattr(verify_module, reduction)
        calls = []

        def reduce_then_expire(*args, **kwargs):
            out = reduce(*args, **kwargs)
            calls.append(out)
            if len(calls) == 2:
                monkeypatch.setattr(verify_module.Budget, "expired", lambda self: True)
            return out

        monkeypatch.setattr(verify_module, reduction, reduce_then_expire)
        rep = report()
        assert rep.lhs.complete and rep.rhs.complete
        assert rep.artifacts["stress_sequences"] == 10
        assert rep.artifacts["stress_passed"] == 2
        assert rep.status == STATUS_INCOMPLETE


class TestConjectureProbe:
    def test_p3_square(self):
        report = conjecture_probe(3, poly(3, 0, 0, 1))
        assert report.status == STATUS_VERIFIED
        assert report.lhs.value == report.rhs.value == 6
        assert report.artifacts["sides_equal"]

    def test_p2_outside_hypothesis_with_unequal_sides(self):
        report = conjecture_probe(2, quadratic_modulus(2))
        assert report.status == STATUS_OUTSIDE
        assert report.lhs.value == 3 and report.rhs.value == 2
        assert report.artifacts["sides_equal"] is False

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            conjecture_probe(3, poly(3, 1))

    def test_factors_the_modulus_once(self, monkeypatch):
        factored = count_factor_calls(monkeypatch)
        report = conjecture_probe(3, poly(3, 0, 0, 1))
        assert factored == ["x^2"]
        assert report.artifacts["factorization"] == str(factor(poly(3, 0, 0, 1)))


class TestOneUnitSearch:
    @pytest.mark.parametrize(
        "report, searched_kinds, d",
        [
            (lambda: verify_theorem1(3, poly(3, 0, 1) * poly(3, 1, 1)),
             ["quotient", "product"], 3),
            (lambda: verify_lemma_product([2, 2], stress=5), ["product"], 3),
            (lambda: verify_proposition(7, stress=0), ["quotient"], 42),
            (lambda: conjecture_probe(3, poly(3, 0, 0, 1)), ["quotient"], 6),
        ],
        ids=["theorem1", "lemma", "proposition", "probe"],
    )
    def test_units_come_from_the_search_of_s(self, monkeypatch, report, searched_kinds, d):
        # D(U) is run 1 of the search of S; theorem1 also searches its CRT model
        import davenport.verify

        searched = []

        def recording(S, budget_ms=None):
            searched.append(S.kind)
            return davenport_exact(S, budget_ms)

        monkeypatch.setattr(davenport.verify, "davenport_exact", recording)
        rep = report()
        assert searched == searched_kinds
        assert rep.rhs is rep.lhs.units
        assert rep.lhs.value == rep.rhs.value == d
        assert rep.status == STATUS_VERIFIED


class TestValidator:
    def test_accepts_valid(self, quotient_p3_sq):
        S = quotient_p3_sq
        T = Sequence(S, [(S.index_of[poly(3, 2)], 2)])
        assert_valid_reduction(T, Sequence.empty(S))

    def test_rejects_non_subsequence(self, quotient_p3_sq):
        S = quotient_p3_sq
        T = seq_of(S, poly(3, 2))
        other = seq_of(S, poly(3, 0, 1))
        with pytest.raises(AssertionError):
            assert_valid_reduction(T, other)

    def test_rejects_changed_product(self, quotient_p3_sq):
        S = quotient_p3_sq
        T = seq_of(S, poly(3, 0, 1), poly(3, 2))
        sub = seq_of(S, poly(3, 0, 1))
        with pytest.raises(AssertionError):
            assert_valid_reduction(T, sub)
