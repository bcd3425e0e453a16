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
from davenport.semigroup import build_adjoined_zero_product
from davenport.zerosum import sigma_index


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
        import davenport.semigroup
        import davenport.verify

        factored = []
        for module in (davenport.semigroup, davenport.verify):
            def counting(f, factor=module.factor):
                factored.append(str(f))
                return factor(f)

            monkeypatch.setattr(module, "factor", counting)
        # the searches stop on their first node; factoring precedes them
        verify_theorem1(7, poly(7, 0, 1, 1), budget_ms=0)
        assert factored == ["x^2+x"]


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


class TestConstructiveReduction:
    def test_all_units_zero_sum_gives_empty(self, c2z_squared):
        P = c2z_squared
        T = Sequence.of(P, (1, 0), (1, 1), (0, 1))
        T_prime = constructive_reduction(P, T, d_units=3)
        assert T_prime == Sequence.empty(P)

    def test_absorbing_coordinate_case(self, c2z_squared):
        P = c2z_squared
        T = Sequence(P, [(P.index_of[(INF, 1)], 1), (P.index_of[(1, 1)], 2)])
        T_prime = constructive_reduction(P, T, d_units=3)
        assert T_prime == Sequence.of(P, (INF, 1))
        assert sigma_index(T_prime) == sigma_index(T)

    def test_single_factor_degenerate(self):
        C = build_cyclic_with_zero(2)
        T = Sequence(C, [(C.index_of[INF], 1), (C.index_of[1], 2)])
        T_prime = constructive_reduction(C, T, d_units=2)
        assert T_prime.is_proper_subsequence_of(T)
        assert sigma_index(T_prime) == sigma_index(T)

    def test_below_threshold_rejected(self, c2z_squared):
        T = Sequence.of(c2z_squared, (1, 1))
        with pytest.raises(ValueError):
            constructive_reduction(c2z_squared, T, d_units=3)

    def test_wrong_kind_rejected(self, quotient_p3_sq):
        T = Sequence.of(quotient_p3_sq, poly(3, 2))
        with pytest.raises(TypeError):
            constructive_reduction(quotient_p3_sq, T, d_units=1)

    def test_outputs_pinned(self):
        # the digest of the outputs before the reductions moved to index pairs
        assert reduction_digest() == (
            "9a8dd7007eaeee42dd07e353bba9c135aecfa08f87ddae1f2989ce5588baef48"
        )

    def test_coordinate_tables_built_once_per_semigroup(self, monkeypatch):
        import davenport.semigroup
        import davenport.verify

        value_maps = []
        for module in (davenport.semigroup, davenport.verify):
            for name in ("j_set", "psi_projection"):
                if hasattr(module, name):
                    monkeypatch.setattr(
                        module, name, lambda *args, name=name: value_maps.append(name)
                    )
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
            assert T_prime.is_proper_subsequence_of(T)
            # the zero-coordinate sets and the projection away from {1}
            assert len(builds) == 2
        assert value_maps == []

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
            assert T_prime.is_proper_subsequence_of(T)
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
        assert V == Sequence.of(S, poly(3, 0, 1), poly(3, 2))

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
        assert T_prime == Sequence.of(S, poly(3, 1, 1), poly(3, 2, 2))
        assert sigma_index(T_prime) == S.zero == sigma_index(T)

    def test_one_nonunit_uses_fixing_product(self):
        S = proposition_semigroup(3)
        x = poly(3, 0, 1)
        T = Sequence(S, [(S.index_of[poly(3, 2, 2)], 1), (S.index_of[x], 5)])
        T_prime = reduce_quadratic_case(3, T)
        assert T_prime.is_proper_subsequence_of(T)
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
            assert T_prime.is_proper_subsequence_of(T)
            assert sigma_index(T_prime) == sigma_index(T)


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

    def test_builds_the_quotient_once(self, monkeypatch):
        moduli = count_quotient_builds(monkeypatch)
        verify_proposition(3, stress=5, samples=10)
        assert moduli == [quadratic_modulus(3)]

    def test_semigroup_side_searched_first(self):
        # D(U) is fixed by the unit census; a short budget goes to D(S)
        report = verify_proposition(7, budget_ms=500, stress=0, samples=1)
        assert report.lhs.nodes > 1
        assert (report.rhs.method, report.rhs.value) == ("formula", 42)

    def test_incomplete_when_budget_zero(self):
        report = verify_proposition(5, budget_ms=0, stress=10, samples=50)
        assert report.status == STATUS_INCOMPLETE
        assert report.rhs.method == "formula"
        assert report.rhs.value == 20
        assert report.artifacts["montecarlo"]["counterexample"] is None
        assert report.artifacts["lower_bound"] == 20

    def test_formula_side_carries_the_generator_power_witness(self):
        # a capped D(U) search keeps none of its partial witness
        report = verify_proposition(7, budget_ms=0, stress=0, samples=1)
        rhs = report.rhs
        assert (rhs.method, rhs.value, rhs.complete) == ("formula", 42, True)
        assert len(rhs.witness) == rhs.value - 1 == 41
        assert len(rhs.witness.pairs) == 1
        assert (rhs.witness.parent.kind, rhs.witness.parent.size) == ("abelian_group", 42)
        assert not is_reducible(rhs.witness)

    def test_sampling_and_stress_stop_with_the_budget(self):
        report = verify_proposition(5, budget_ms=0, stress=50, samples=5000)
        assert report.status == STATUS_INCOMPLETE
        assert report.artifacts["montecarlo"]["checked"] < 5000
        assert report.artifacts["stress_sequences"] == 50
        assert report.artifacts["stress_passed"] < 50

    @pytest.mark.parametrize(
        "reduction, report",
        [
            ("reduce_quadratic_case", lambda: verify_proposition(3, stress=10)),
            ("constructive_reduction", lambda: verify_lemma_product([2, 2], stress=10)),
        ],
    )
    def test_stress_cut_short_is_not_verified(self, monkeypatch, reduction, report):
        # both searches finish; the budget runs out after the second reduction
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


class TestValidator:
    def test_accepts_valid(self, quotient_p3_sq):
        S = quotient_p3_sq
        T = Sequence(S, [(S.index_of[poly(3, 2)], 2)])
        assert_valid_reduction(T, Sequence.empty(S))

    def test_rejects_non_subsequence(self, quotient_p3_sq):
        S = quotient_p3_sq
        T = Sequence.of(S, poly(3, 2))
        other = Sequence.of(S, poly(3, 0, 1))
        with pytest.raises(AssertionError):
            assert_valid_reduction(T, other)

    def test_rejects_changed_product(self, quotient_p3_sq):
        S = quotient_p3_sq
        T = Sequence.of(S, poly(3, 0, 1), poly(3, 2))
        sub = Sequence.of(S, poly(3, 0, 1))
        with pytest.raises(AssertionError):
            assert_valid_reduction(T, sub)
