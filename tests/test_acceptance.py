"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion lines. Every tolerance here is exact equality; time limits
are asserted where the criterion states one.
"""

import random
import time
from itertools import product as iproduct

from davenport import (
    Sequence,
    build_abelian_group,
    build_cyclic_group,
    build_cyclic_with_zero,
    build_product,
    build_quotient_semigroup,
    crt_decompose,
    davenport_exact,
    davenport_montecarlo_upper,
    factor,
    find_reduction,
    is_reducible,
    monic_polys,
    poly,
    units_of,
)
from davenport.verify import (
    STATUS_VERIFIED,
    build_witness_V,
    conjecture_probe,
    proposition_semigroup,
    verify_lemma_product,
    verify_proposition,
    verify_theorem1,
)
from davenport.zerosum import sigma_index

from conftest import all_multisets, brute_is_reducible


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_classical_group_values():
    """Exact search reproduces D(C_n) = n and D(C_m x C_n) = m+n-1."""
    start = time.monotonic()
    for n in range(2, 13):
        res = davenport_exact(build_cyclic_group(n))
        assert res.complete and res.value == n, f"D(C_{n}) = {res.value}"
    for m, n in ((2, 2), (2, 4), (3, 3), (2, 6), (3, 6)):
        res = davenport_exact(build_abelian_group([m, n]))
        assert res.complete and res.value == m + n - 1, f"D(C_{m} x C_{n})"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"D(C_n)=n for n in [2,12] and five rank-2 products ({elapsed:.1f}s)")


def _lemma_instances():
    out = [[n] for n in range(2, 17)]
    for a in range(2, 17):
        for b in range(a, 17):
            if a * b <= 16:
                out.append([a, b])
    for a in range(2, 17):
        for b in range(a, 17):
            for c in range(b, 17):
                if a * b * c <= 16:
                    out.append([a, b, c])
    return out


def test_criterion_2_lemma_product_desk_scale():
    """D of the adjoined-zero product equals D of its unit group, with the
    constructive reduction validated on 1000 random threshold sequences."""
    instances = _lemma_instances()
    assert len(instances) == 29
    for n_list in instances:
        report = verify_lemma_product(n_list, stress=1000, seed=0)
        assert report.status == STATUS_VERIFIED, f"{n_list}: {report.status}"
        assert report.lhs.value == report.rhs.value
        assert report.artifacts["stress_passed"] == 1000
    _report(2, f"{len(instances)} n-lists with product <= 16, k <= 3, 1000 reductions each")


def test_criterion_3_theorem1_desk_scale():
    """Exact two-sided verification on the listed squarefree moduli."""
    cases = [
        (3, poly(3, 0, 1), 2),
        (3, poly(3, 1, 1), 2),
        (3, poly(3, 0, 1) * poly(3, 1, 1), 3),
        (3, poly(3, 0, 1) * poly(3, 1, 1) * poly(3, 2, 1), 4),
        (3, poly(3, 1, 0, 1), 8),
        (5, poly(5, 0, 1), 4),
        (5, poly(5, 0, 1) * poly(5, 1, 1), 7),
    ]
    for p, f, expected in cases:
        start = time.monotonic()
        report = verify_theorem1(p, f, budget_ms=120_000)
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"p={p} f={f} took {elapsed:.1f}s"
        assert report.status == STATUS_VERIFIED, f"p={p} f={f}: {report.status}"
        assert report.lhs.value == report.rhs.value == expected
        assert report.artifacts["crt_route_value"] == expected
    _report(3, "seven squarefree moduli verified exactly on both sides")


def test_criterion_4_proposition_p3():
    """D = 6 on the 9-element square-modulus semigroup, 1000 reductions."""
    start = time.monotonic()
    report = verify_proposition(3, stress=1000, seed=0)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 4 took {elapsed:.1f}s"
    assert report.status == STATUS_VERIFIED
    assert report.lhs.value == report.rhs.value == 6
    assert report.artifacts["stress_passed"] == 1000
    _report(4, f"D(S) = D(U) = 6 at p=3, 1000 quadratic reductions ({elapsed:.1f}s)")


def test_criterion_5_proposition_p5_stretch():
    """Lower bound 20 by explicit witness; upper side exact within 10
    minutes, else Monte-Carlo with 1e5 all-reducible samples."""
    report = verify_proposition(5, budget_ms=600_000, stress=1000, samples=100_000, seed=0)
    # certified lower bound: an explicit irreducible sequence of length 19
    assert report.artifacts["lower_bound"] == 20
    S = report.lhs.witness.parent
    from davenport.parsing import parse_sequence

    witness = parse_sequence(S, report.artifacts["lower_bound_witness"])
    assert len(witness) == 19
    assert not is_reducible(witness)
    # upper side: exact search or the sampling fallback
    if report.lhs.complete:
        assert report.lhs.value == 20
        assert report.status == STATUS_VERIFIED
        upper = "exact search"
    else:
        mc = report.artifacts["montecarlo"]
        assert mc["samples"] == 100_000
        assert mc["counterexample"] is None
        assert mc["reducible"] == mc["checked"] == 100_000
        upper = "Monte-Carlo 1e5 samples"
    _report(5, f"p=5 lower bound 20 certified; upper side by {upper}")


def test_criterion_6_witness_family():
    """x * g^(p-2) is irreducible for p in {3, 5, 7, 11}."""
    for p in (3, 5, 7, 11):
        V = build_witness_V(proposition_semigroup(p))
        assert len(V) == p - 1
        assert not is_reducible(V)
    _report(6, "exhibit sequences irreducible for p in {3, 5, 7, 11}")


def test_criterion_7_property_suite():
    """Hereditary reducibility, oracle equivalence, unit-group bounds,
    chain bound, residue-map isomorphism, factor round trips."""
    S9 = build_quotient_semigroup(3, poly(3, 1, 2, 1))
    P9 = build_product([build_cyclic_with_zero(2)] * 2)

    # hereditary reducibility, exhaustive to length 4 over 9-element universes
    for S in (S9, P9):
        for length in (1, 2, 3):
            for idx in all_multisets(S.size, length):
                T = Sequence.from_indices(S, idx)
                if is_reducible(T):
                    for x in range(S.size):
                        assert is_reducible(Sequence(S, T.pairs + ((x, 1),)))

    # DP-vs-enumeration equivalence to length 5
    for S in (S9, P9):
        for length in (1, 2, 3, 4, 5):
            for idx in all_multisets(S.size, length):
                T = Sequence.from_indices(S, idx)
                expected = brute_is_reducible(T)
                assert is_reducible(T) == expected
                assert (find_reduction(T) is not None) == expected

    # unit-group inequality on every instance computed here
    battery = [
        S9,
        P9,
        build_cyclic_with_zero(6),
        build_quotient_semigroup(3, poly(3, 0, 2, 0, 1)),
        build_quotient_semigroup(5, poly(5, 1, 2, 1)),
    ]
    for S in battery:
        assert (
            davenport_exact(units_of(S).as_semigroup()).value
            <= davenport_exact(S).value
        )

    # chain bound D(U) >= k+1 on adjoined-zero products
    for n_list in ([2], [3], [2, 2], [2, 4], [2, 2, 2]):
        parts = [build_cyclic_with_zero(n) for n in n_list]
        S = parts[0] if len(parts) == 1 else build_product(parts)
        dU = davenport_exact(units_of(S).as_semigroup()).value
        assert dU >= len(n_list) + 1

    # residue-map isomorphism checks
    rng = random.Random(51)
    for p, f in ((3, poly(3, 0, 1) * poly(3, 1, 1)), (5, poly(5, 0, 1) * poly(5, 1, 1))):
        crt = crt_decompose(p, f)
        assert len(set(crt.iso.values())) == crt.source.size
        for _ in range(1000):
            a, b = rng.randrange(crt.source.size), rng.randrange(crt.source.size)
            assert crt.iso[crt.source.op(a, b)] == crt.product.op(crt.iso[a], crt.iso[b])

    # factorization round trips
    for p in (3, 5):
        for d in (1, 2, 3):
            for g in monic_polys(p, d):
                assert factor(g).expand() == g
    _report(7, "hereditary, oracle-equivalence, unit bounds, chain bound, "
               "residue isomorphism, factor round trips")


def test_criterion_8_conjecture_probes():
    """Probes at p=3 for repeated-factor moduli complete exactly."""
    cases = [
        (poly(3, 0, 0, 1), "x^2"),
        (poly(3, 0, 0, 1) * poly(3, 1, 1), "x^2*(x+1)"),
        (poly(3, 1, 1) ** 3, "(x+1)^3"),
    ]
    values = []
    for f, name in cases:
        start = time.monotonic()
        report = conjecture_probe(3, f, budget_ms=600_000)
        elapsed = time.monotonic() - start
        assert elapsed < 600, f"{name} took {elapsed:.1f}s"
        assert report.lhs.complete and report.rhs.complete
        assert report.status == STATUS_VERIFIED  # evidence: sides equal, exact
        assert report.artifacts["interpretation"].startswith("conjecture evidence")
        values.append((name, report.lhs.value))
    _report(8, "probes complete exactly as evidence: "
               + ", ".join(f"D={v} for {n}" for n, v in values))
