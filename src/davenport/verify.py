"""Executable verification of the Davenport identities D(S) = D(U(S)).

Four claim families are checked, each by computing both sides exactly
and, where the underlying argument is constructive, by running the
construction itself on random threshold-length sequences:

* ``theorem1`` — quotient semigroups F_p[x]/<f> with squarefree f,
  cross-checked through the residue-vector decomposition;
* ``lemma_product`` — products of adjoined-zero cyclic semigroups, with
  the coordinate-projection reduction procedure;
* ``proposition`` — the square modulus (x+1)^2, with its three-case
  reduction procedure;
* ``conjecture_probe`` — arbitrary moduli, reported as evidence only.

Reports distinguish verified / refuted / incomplete / outside-hypothesis;
a verifier never turns "did not finish" into an answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence as Seq

from .gfpoly import Poly, factor, primitive_root
from .semigroup import (
    FiniteSemigroup,
    HypothesisViolation,
    build_adjoined_zero_product,
    build_quotient_semigroup,
    crt_decompose,
    modulus_factorization,
    projection_indices,
    units_of,
    zero_coordinate_sets,
)
from .zerosum import (
    Budget,
    DavenportResult,
    Sequence,
    dp_select,
    product_index,
    davenport_exact,
    is_reducible,
    random_sequence,
)

STATUS_VERIFIED = "verified"
STATUS_REFUTED = "refuted"
STATUS_INCOMPLETE = "incomplete"
STATUS_OUTSIDE = "outside-hypothesis"

CLAIM_THEOREM1 = "theorem1"
CLAIM_LEMMA_PRODUCT = "lemma_product"
CLAIM_PROPOSITION = "proposition"
CLAIM_CONJECTURE = "conjecture_probe"


@dataclass
class VerificationReport:
    """Machine-checkable outcome of one claim instance."""

    claim: str
    params: dict
    lhs: Optional[DavenportResult]  # D(S)
    rhs: Optional[DavenportResult]  # D(U(S))
    status: str
    artifacts: dict = field(default_factory=dict)
    millis: int = 0

    @property
    def semigroup(self) -> FiniteSemigroup:
        """The semigroup S of D(S), where the lhs witness lives."""
        return self.lhs.witness.parent

    def to_record(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs.to_record() if self.lhs else None,
            "rhs": self.rhs.to_record() if self.rhs else None,
            "artifacts": self.artifacts,
        }

    def summary(self) -> str:
        lines = [
            f"claim: {self.claim}",
            f"params: {self.params}",
            f"status: {self.status}",
        ]
        if self.lhs:
            lines.append(f"D(S):    {self.lhs.summary()}")
        if self.rhs:
            lines.append(f"D(U(S)): {self.rhs.summary()}")
        for k in sorted(self.artifacts):
            lines.append(f"{k}: {self.artifacts[k]}")
        lines.append(f"millis: {self.millis}")
        return "\n".join(lines)


def _status_for(
    p: Optional[int],
    lhs: DavenportResult,
    rhs: DavenportResult,
    extra_complete: bool = True,
) -> str:
    """Outside the hypothesis for p <= 2; else incomplete unless both sides
    and the extra route are complete exact searches, and then verified or
    refuted as the two values agree or differ."""
    if p is not None and p <= 2:
        return STATUS_OUTSIDE
    if not (lhs.complete and rhs.complete and extra_complete):
        return STATUS_INCOMPLETE
    return STATUS_VERIFIED if lhs.value == rhs.value else STATUS_REFUTED


def _both_sides(S: FiniteSemigroup, budget: Budget):
    """``(lhs, rhs, artifacts)``: D(S) from one exact search of S on
    ``budget``, D(U(S)) as that search's first run, and U's order and
    invariant factors."""
    U = units_of(S)
    lhs = davenport_exact(S, budget)
    return lhs, lhs.units, {
        "unit_order": U.order,
        "unit_invariants": list(U.invariant_factors),
    }


def assert_valid_reduction(T: Sequence, T_prime: Sequence) -> None:
    """Independent check: T' is a proper sub-multiset with the same product."""
    S = T.parent
    have = dict(T.pairs)
    if (
        T_prime.parent is not S
        or len(T_prime) >= len(T)
        or any(c > have.get(i, 0) for i, c in T_prime.pairs)
    ):
        raise AssertionError("reduction output is not a proper subsequence")
    if product_index(S, T_prime.pairs) != product_index(S, T.pairs):
        raise AssertionError("reduction output changed the product")


def _remove_subproduct(S: FiniteSemigroup, pairs, source, target: int) -> list:
    """``pairs`` minus the canonical nonempty sub-multiset of ``source`` with
    product ``target``, where ``source`` is part of ``pairs``; all three are
    (index, count) pairs.

    Raises AssertionError when there is none: on threshold-length input
    that would falsify the claim.
    """
    counts = dp_select(S, source, target, proper=False)
    if counts is None:
        raise AssertionError(
            f"no nonempty subsequence multiplies to {S.format_element(target)}; "
            "this would falsify the claim"
        )
    return [(i, c - counts.get(i, 0)) for i, c in pairs]


def _stress(
    S: FiniteSemigroup, length: int, reduce, stress: int, seed: int, budget: Budget
) -> dict:
    """Run ``reduce`` on ``stress`` seeded random sequences of ``length``.

    Each reduction validates its own output, so every sequence run passed.
    The loop stops once ``budget`` has run out, so ``stress_passed`` (the
    sequences run) may fall short of ``stress_sequences`` (those asked for).
    """
    rng = random.Random(seed)
    ran = 0
    while ran < stress and not budget.expired():
        reduce(random_sequence(S, length, rng))
        ran += 1
    return {"stress_sequences": stress, "stress_passed": ran}


# -- lemma_product: products of adjoined-zero cyclic semigroups --------------


def constructive_reduction(
    S: FiniteSemigroup, T: Sequence, d_units: int
) -> Sequence:
    """Produce a proper sub-multiset of T with the same product.

    Follows the constructive argument for products of adjoined-zero cyclic
    semigroups: if every term is invertible, strip a nonempty subsequence
    with identity product; otherwise pick a short subsequence V whose
    product hits the absorbing coordinates of sigma(T), find a nonempty W
    in T minus V whose projection away from those coordinates has identity
    product, and drop W. Requires |T| >= D(U(S)); the caller passes D(U(S))
    as ``d_units``.
    """
    # a product has a zero exactly when every coordinate has one
    if S.kind not in ("product", "cyclic_with_zero") or S.zero is None:
        raise TypeError(
            "constructive reduction expects a product of adjoined-zero cyclic "
            "semigroups (or a single one)"
        )
    if T.parent is not S:
        raise ValueError("sequence does not live in the given semigroup")
    if len(T) < d_units:
        raise ValueError(
            f"hypothesis |T| >= D(U(S)) not met: {len(T)} < {d_units}"
        )
    # the procedure runs on (index, count) pairs; T' is the only Sequence built
    e = S.identity
    pairs = T.pairs
    zero_sets = zero_coordinate_sets(S)
    j_sigma = zero_sets[product_index(S, pairs)]

    if not j_sigma:
        # every term is invertible: remove a nonempty identity-product V
        T_prime = Sequence(S, _remove_subproduct(S, pairs, pairs, e))
        assert_valid_reduction(T, T_prime)
        return T_prime

    # for each absorbing coordinate, pick the first term (canonical order)
    # absorbing there; coordinates the pick also covers are crossed off, so
    # V has at most |j_sigma| distinct terms
    covered: set[int] = set()
    v_indices: list[int] = []
    for coord in sorted(j_sigma):
        if coord in covered:
            continue
        for i, _ in pairs:
            coords = zero_sets[i]
            if coord in coords:
                if i not in v_indices:
                    v_indices.append(i)
                covered |= coords
                break
        else:
            raise AssertionError("sigma(T) absorbs a coordinate no term absorbs")

    # project T minus V away from the absorbing coordinates; terms become units
    proj_of = projection_indices(S, j_sigma)
    proj_pairs: dict[int, int] = {}
    for i, c in pairs:
        c -= i in v_indices
        if c:
            proj_pairs[proj_of[i]] = proj_pairs.get(proj_of[i], 0) + c
    counts = dp_select(S, sorted(proj_pairs.items()), e, proper=False)
    if counts is None:
        raise AssertionError(
            "no projected identity-product subsequence of the required "
            "length; this would falsify the claim"
        )
    # lift the projected selection W back to terms of T minus V, canonical
    # first, and drop it from T
    need = dict(counts)
    t_prime_pairs = []
    for i, c in pairs:
        pv = proj_of[i]
        take = min(c - (i in v_indices), need.get(pv, 0))
        if take:
            need[pv] -= take
        t_prime_pairs.append((i, c - take))
    if any(need.values()):
        raise AssertionError("projected witness could not be lifted")
    T_prime = Sequence(S, t_prime_pairs)
    assert_valid_reduction(T, T_prime)
    return T_prime


def verify_lemma_product(
    n_list: Seq[int],
    budget_ms: Optional[int] = 60_000,
    stress: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Check D(S) = D(U(S)) for S = product of C_{n_i} with adjoined zeros.

    One exact search of S gives both constants, D(U(S)) as its first run
    (``lhs.units``); the constructive reduction then runs on ``stress``
    random sequences of length D(U(S)), within what is left of the budget.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or any(n < 2 for n in n_list):
        raise ValueError("need cyclic orders n_i >= 2")
    if stress < 0:
        raise ValueError("stress count must be >= 0")
    budget = Budget(budget_ms)
    S = build_adjoined_zero_product(n_list)
    lhs, rhs, artifacts = _both_sides(S, budget)
    artifacts["units_bound_k_plus_1"] = (
        rhs.value >= len(n_list) + 1 if rhs.complete else None
    )
    if stress > 0:
        reduce = partial(constructive_reduction, S, d_units=rhs.value)
        artifacts.update(_stress(S, rhs.value, reduce, stress, seed, budget))
    return VerificationReport(
        claim=CLAIM_LEMMA_PRODUCT,
        params={"n_list": n_list},
        lhs=lhs,
        rhs=rhs,
        status=_status_for(
            None, lhs, rhs, artifacts.get("stress_passed", stress) == stress
        ),
        artifacts=artifacts,
        millis=budget.elapsed_ms(),
    )


# -- theorem1: squarefree quotient moduli ------------------------------------


def verify_theorem1(
    p: int, f: Poly, budget_ms: Optional[int] = 120_000
) -> VerificationReport:
    """Check D(S) = D(U(S)) for the quotient semigroup of a squarefree f.

    Also re-computes D on the product of adjoined-zero cyclic semigroups
    that the residue-vector decomposition exhibits, as an independent
    route to the same number.
    """
    if f.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    fac = factor(f)
    if not fac.is_squarefree:
        raise HypothesisViolation(
            f"{f} = {fac} has a repeated factor; this claim needs a squarefree "
            "modulus (use the conjecture probe instead)"
        )
    budget = Budget(budget_ms)
    crt = crt_decompose(p, f, fac)
    lhs, rhs, artifacts = _both_sides(crt.source, budget)

    orders = crt.cyclic_orders
    if all(n >= 2 for n in orders):
        model = build_adjoined_zero_product(orders)
        model_note = f"adjoined-zero cyclic orders {list(orders)}"
    else:
        model = crt.product
        model_note = "residue-factor product (trivial unit coordinate present)"
    route = davenport_exact(model, budget)
    if route.complete and lhs.complete and route.value != lhs.value:
        raise AssertionError(
            "decomposition route disagrees with the direct search; "
            f"{route.value} != {lhs.value}"
        )

    artifacts.update({
        "factorization": str(fac),
        "crt_route_value": route.value if route.complete else None,
        "crt_route_model": model_note,
        "units_le_semigroup": (
            rhs.value <= lhs.value if lhs.complete and rhs.complete else None
        ),
    })
    return VerificationReport(
        claim=CLAIM_THEOREM1,
        params={"p": p, "f": str(f)},
        lhs=lhs,
        rhs=rhs,
        status=_status_for(p, lhs, rhs, extra_complete=route.complete),
        artifacts=artifacts,
        millis=budget.elapsed_ms(),
    )


# -- proposition: the square modulus (x+1)^2 ----------------------------------


def quadratic_modulus(p: int) -> Poly:
    """(x+1)^2 over F_p."""
    return Poly(p, [1, 1]) ** 2


def proposition_semigroup(p: int) -> FiniteSemigroup:
    return build_quotient_semigroup(p, quadratic_modulus(p))


def _is_square_quotient(S: FiniteSemigroup) -> bool:
    """True when S is F_p[x]/<(x+1)^2>, read off the modulus's coefficients
    (x^2 + 2x + 1) without building a polynomial."""
    return S.kind == "quotient" and S.modulus.coeffs == (1, 2 % S.p, 1)


def build_witness_V(S: FiniteSemigroup) -> Sequence:
    """The irreducible exhibit x * g^(p-2) over ``proposition_semigroup(p)``,
    with g the least primitive root.

    Its existence shows an irreducible sequence of length p-1, hence
    D(U) >= p for the square modulus.
    """
    if not _is_square_quotient(S) or S.p <= 2:
        raise ValueError("the witness family lives in F_p[x]/<(x+1)^2>, p > 2")
    p = S.p
    g = primitive_root(p)
    x = Poly(p, [0, 1])
    V = Sequence(
        S, [(S.index_of[x], 1), (S.index_of[Poly(p, [g])], p - 2)]
    )
    if is_reducible(V):
        raise AssertionError("the exhibit sequence turned out reducible")
    return V


def reduce_quadratic_case(p: int, T: Sequence) -> Sequence:
    """Reduce a threshold-length sequence over F_p[x]/<(x+1)^2>, p > 2.

    Case split on the number of non-invertible terms: none - strip a
    nonempty identity-product subsequence; two or more - the first two
    non-units multiply to the absorbing element, which already equals
    sigma(T); exactly one, say a1 = m(x+1) - reduce through the unit part
    if it is reducible, else find W among the units with product x+2,
    which fixes a1, and drop W.
    """
    if p <= 2:
        raise ValueError("the quadratic-case reduction needs p > 2")
    S = T.parent
    if not _is_square_quotient(S) or S.p != p:
        raise ValueError(f"sequence must live in the quotient by (x+1)^2 over F_{p}")
    U = units_of(S)
    d_units = p * (p - 1)
    if len(T) < d_units:
        raise ValueError(
            f"hypothesis |T| >= D(U(S)) = {d_units} not met: |T| = {len(T)}"
        )

    pairs = T.pairs
    nonunit_pairs = [(i, c) for i, c in pairs if i not in U.inverses]
    n_nonunits = sum(c for _, c in nonunit_pairs)

    if n_nonunits == 0:
        t_prime_pairs = _remove_subproduct(S, pairs, pairs, S.identity)
    elif n_nonunits >= 2:
        # the product of any two non-units lands on the absorbing element
        first_two = []
        for i, c in nonunit_pairs:
            take = min(c, 2 - len(first_two))
            first_two.extend([i] * take)
            if len(first_two) == 2:
                break
        t_prime_pairs = [(i, 1) for i in first_two]
        if (product_index(S, t_prime_pairs) != S.zero
                or product_index(S, pairs) != S.zero):
            raise AssertionError("non-unit pair failed to absorb the product")
    else:
        a1 = nonunit_pairs[0][0]
        unit_pairs = [(i, c) for i, c in pairs if i != a1]
        counts = dp_select(
            S, unit_pairs, product_index(S, unit_pairs), proper=True
        )
        if counts is not None:
            # a reduction of the unit part, with a1 kept
            t_prime_pairs = [*counts.items(), (a1, 1)]
        else:
            # x+2 (index 2 + p in base-p digits) fixes every m(x+1)
            t_prime_pairs = _remove_subproduct(S, pairs, unit_pairs, 2 + p)
    T_prime = Sequence(S, t_prime_pairs)
    assert_valid_reduction(T, T_prime)
    return T_prime


def verify_proposition(
    p: int,
    budget_ms: Optional[int] = 60_000,
    stress: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Check D(S) = D(U(S)) for the square modulus (x+1)^2, p > 2.

    The unit group is cyclic of order p(p-1). One exact search of S gives
    both sides, D(U) as its first run (``lhs.units``); the reduction then
    runs on ``stress`` random sequences of length p(p-1), within what is
    left of the budget. ``davenport_exact`` returns ``complete=False`` only
    once the budget has expired, and a ``Budget`` never un-expires, so
    after a cut the stress loop reads ``stress_passed: 0`` and nothing is
    filled in: the report is ``incomplete``.
    """
    if p <= 2:
        raise ValueError("the claim needs p > 2")
    if stress < 0:
        raise ValueError("stress count must be >= 0")
    budget = Budget(budget_ms)
    S = proposition_semigroup(p)
    U = units_of(S)
    d_formula = p * (p - 1)
    if U.invariant_factors != (d_formula,):
        raise AssertionError(
            f"unit group expected cyclic of order {d_formula}, its coordinates "
            f"give {U.invariant_factors}"
        )

    lhs, rhs, artifacts = _both_sides(S, budget)
    # a generator of the cyclic unit group repeated d-1 times is
    # irreducible (checked below), so D(S) >= D(U) always holds explicitly.
    # The unit at coordinate 1, the first of largest order, generates U
    generator = U.elements[U.coordinates[0].index(1)]
    lower_witness = Sequence(S, [(generator, d_formula - 1)])
    if is_reducible(lower_witness):
        raise AssertionError("generator-power witness unexpectedly reducible")
    artifacts["lower_bound_witness"] = lower_witness.format()
    artifacts["lower_bound"] = d_formula
    exhibit = build_witness_V(S)
    artifacts["exhibit_V"] = exhibit.format()
    artifacts["exhibit_V_bound"] = len(exhibit) + 1

    reduce = partial(reduce_quadratic_case, p)
    artifacts.update(_stress(S, d_formula, reduce, stress, seed, budget))
    return VerificationReport(
        claim=CLAIM_PROPOSITION,
        params={"p": p, "f": str(quadratic_modulus(p))},
        lhs=lhs,
        rhs=rhs,
        status=_status_for(p, lhs, rhs, artifacts["stress_passed"] == stress),
        artifacts=artifacts,
        millis=budget.elapsed_ms(),
    )


# -- conjecture probe ---------------------------------------------------------


def conjecture_probe(
    p: int, f: Poly, budget_ms: Optional[int] = 600_000
) -> VerificationReport:
    """Compute both sides for an arbitrary modulus and report evidence.

    Repeated factors are allowed; nothing is asserted beyond the computed
    numbers. Runs with p = 2 are labeled outside-hypothesis.
    """
    if f.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    budget = Budget(budget_ms)
    S = build_quotient_semigroup(p, f)
    lhs, rhs, artifacts = _both_sides(S, budget)
    artifacts.update({
        "factorization": str(modulus_factorization(S)),
        "interpretation": "conjecture evidence only, nothing is asserted",
        "sides_equal": (
            lhs.value == rhs.value if lhs.complete and rhs.complete else None
        ),
    })
    return VerificationReport(
        claim=CLAIM_CONJECTURE,
        params={"p": p, "f": str(f)},
        lhs=lhs,
        rhs=rhs,
        status=_status_for(p, lhs, rhs),
        artifacts=artifacts,
        millis=budget.elapsed_ms(),
    )
