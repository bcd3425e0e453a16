"""Check the class bound and the split at the unit group past the
27-element test oracle.

``davenport_exact`` makes three kinds of run: the unit group U, the class
groups, whose class bound B skips or stops the third, and one run over S.
So B must bound L_N, the length of the longest irreducible sequence with a
non-unit term, and D(S) - 1 = max(D(U) - 1, L_N) must come out of those
runs. This sweep checks both on

* every monic quotient F_p[x]/<f> with p in {2, 3, 5, 7} and p^deg <= 64
  (251 moduli), and
* every adjoined-zero product of one to three factors C_n ∪ {0},
  2 <= n <= 7, with at most 64 elements (35 products),

with L_N from a run of its own over a relabeled copy of S (``mixed_run``),
with no floor and no stop, and D(U) from a separate search of the unit
group, once per isomorphism type. It prints one summary line per family
and exits 1 if B < L_N, or D(S) from ``davenport_exact`` breaks the
identity, anywhere.

Every group run these searches make (each unit group and each class
group, keyed by the subsum set alone) is also run once per distinct Cayley
table as a run over S, which keys its states by (r_all, s), the product
kept beside the subsum set. The
sweep prints a summary line for those and exits 1 if the two differ in
value or witness anywhere. Both runs share the memo's dominance rule (an
entry serves its own minimum next index and every later one), so this
rerun checks the group key, not that rule; the reference for the rule
itself is the test suite's brute-force oracle, up to 27 elements. Run it
from the repository root:

    PYTHONPATH=src python scripts/class_bound_sweep.py
"""

from __future__ import annotations

import sys
import time
from itertools import product as iproduct

from davenport import zerosum
from davenport.gfpoly import Poly
from davenport.semigroup import (
    automorphisms,
    build_adjoined_zero_product,
    build_quotient_semigroup,
    units_of,
)

CAP = 64


def quotients():
    for p in (2, 3, 5, 7):
        deg = 1
        while p ** deg <= CAP:
            for low in iproduct(range(p), repeat=deg):
                f = Poly(p, low + (1,))
                yield str(f), build_quotient_semigroup(p, f)
            deg += 1


def adjoined_zero_products():
    def order_lists(orders, size):
        if orders:
            yield orders
        for n in range(orders[-1] if orders else 2, 8):
            if len(orders) < 3 and size * (n + 1) <= CAP:
                yield from order_lists(orders + [n], size * (n + 1))

    for orders in order_lists([], 1):
        yield str(orders), build_adjoined_zero_product(orders)


def mixed_run(S, U) -> int:
    """L_N of S with units U: the kernel run on S relabeled by pi, the
    non-units in index order and then the units, with each automorphism phi
    conjugated to pi^-1 phi pi, and only a non-unit allowed as the first
    term. In that order a sorted sequence has a non-unit term iff its first
    term is one, so the run covers exactly those sequences. The conjugated
    maps are automorphisms of the copy that map units to units, so that
    family is closed under them and the symmetry rule stays sound."""
    order = [x for x in range(S.size) if x not in U.inverses] + list(U.elements)
    pos = {x: i for i, x in enumerate(order)}
    rows = S.table
    path, _, complete = zerosum._branch_and_bound(
        [[pos[rows[x][y]] for y in order] for x in order],
        pos[S.identity],
        [tuple(pos[phi[x]] for x in order) for phi in automorphisms(S)],
        zerosum.Budget(None),
        floor=0,
        first_stop=S.size - U.order,
    )
    if not complete:
        raise AssertionError("an unbudgeted run ended incomplete")
    return len(path)


def check(S, d_of: dict) -> tuple[int, int, bool]:
    """``(B, L_N, D(S) - 1 == max(D(U) - 1, L_N))`` for S, each from
    complete runs; ``d_of`` maps the unit groups' invariant factors searched
    so far to their D."""
    U = units_of(S)
    if U.invariant_factors not in d_of:
        d_of[U.invariant_factors] = zerosum.davenport_exact(U.as_semigroup()).value
    d_units = d_of[U.invariant_factors]
    bound, _ = zerosum._class_bound(S, U, d_units, zerosum.Budget(None))
    result = zerosum.davenport_exact(S)
    if bound is None or not result.complete:
        raise AssertionError("an unbudgeted run ended incomplete")
    longest = mixed_run(S, U)
    return bound, longest, result.value - 1 == max(d_units - 1, longest)


def cross_checked(kernel, seen: dict, mismatches: list):
    """``kernel`` that reruns each group run once per distinct table with
    the product kept in the key, recording ``(keyed nodes, kept nodes)`` in
    ``seen`` and any value or witness mismatch in ``mismatches``."""

    def run(rows, identity, maps, budget, floor, *args, coordinates=None, **kwargs):
        result = kernel(rows, identity, maps, budget, floor, *args,
                        coordinates=coordinates, **kwargs)
        table = (identity, tuple(map(tuple, rows)))
        if coordinates is not None and table not in seen:
            kept = kernel(rows, identity, maps, zerosum.Budget(None), floor, *args,
                          coordinates=None, **kwargs)
            seen[table] = (result[1], kept[1])
            if (result[0], result[2]) != (kept[0], kept[2]):
                mismatches.append(
                    f"{len(rows)} elements: keyed {result[0]}, with the product {kept[0]}"
                )
        return result

    return run


def main() -> int:
    failed = False
    d_of: dict = {}
    seen: dict = {}
    mismatches: list = []
    zerosum._branch_and_bound = cross_checked(zerosum._branch_and_bound, seen, mismatches)
    for family, problems in (("quotient", quotients()),
                             ("adjoined_zero_product", adjoined_zero_products())):
        start = time.monotonic()
        count = tight = violations = wrong = 0
        for label, S in problems:
            bound, longest, split = check(S, d_of)
            count += 1
            tight += bound == longest
            if bound < longest:
                violations += 1
                print(f"VIOLATION {family} {label}: B = {bound} < L_N = {longest}")
            if not split:
                wrong += 1
                print(f"VIOLATION {family} {label}: D(S) - 1 != max(D(U) - 1, L_N)")
        print(f"{family}: {count} semigroups, B < L_N on {violations}, "
              f"B = L_N on {tight}, D(S) - 1 != max(D(U) - 1, L_N) on {wrong}, "
              f"{time.monotonic() - start:.1f} s")
        failed = failed or violations > 0 or wrong > 0
    keyed = sum(k for k, _ in seen.values())
    kept = sum(k for _, k in seen.values())
    for line in mismatches:
        print(f"MISMATCH group run, {line}")
    print(f"group runs: {len(seen)} tables, value or witness mismatch on "
          f"{len(mismatches)}, {keyed} nodes keyed by the subsum set, "
          f"{kept} with the product in the key")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
