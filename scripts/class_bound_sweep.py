"""Check the class bound B >= L_N past the 27-element test oracle.

``davenport_exact`` trusts the class bound B to skip or stop its mixed run,
so B must bound L_N, the length of the longest irreducible sequence with a
non-unit term. This sweep computes both on

* every monic quotient F_p[x]/<f> with p in {2, 3, 5, 7} and p^deg <= 64
  (251 moduli), and
* every adjoined-zero product of one to three factors C_n ∪ {0},
  2 <= n <= 7, with at most 64 elements (35 products),

L_N from a mixed run with no floor and no stop, and D(U) from a separate
search of the unit group, once per isomorphism type. It prints one summary line per family and exits 1
if B < L_N anywhere.

Every group run these searches make (each unit group and each class
group, keyed by the subsum set alone) is also run once per distinct Cayley
table with the product kept in the key, as the mixed and witness runs keep
it. The sweep prints a summary line for those and exits 1 if the two differ
in value or witness anywhere. Run it from the repository root:

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


def check(S, d_of: dict) -> tuple[int, int]:
    """``(B, L_N)`` for S, each from a complete run; ``d_of`` maps the unit
    groups' invariant factors searched so far to their D."""
    U = units_of(S)
    if U.invariant_factors not in d_of:
        d_of[U.invariant_factors] = zerosum.davenport_exact(U.as_semigroup()).value
    d_units = d_of[U.invariant_factors]
    bound, _ = zerosum._class_bound(S, U, d_units, zerosum.Budget(None))
    path, _, complete = zerosum._mixed_run(
        S, U, automorphisms(S), zerosum.Budget(None), floor=0
    )
    if bound is None or not complete:
        raise AssertionError("an unbudgeted run ended incomplete")
    return bound, len(path)


def cross_checked(kernel, seen: dict, mismatches: list):
    """``kernel`` that reruns each group run once per distinct table with
    the product kept in the key, recording ``(keyed nodes, kept nodes)`` in
    ``seen`` and any value or witness mismatch in ``mismatches``."""

    def run(rows, identity, maps, budget, floor, *args, group=False, **kwargs):
        result = kernel(rows, identity, maps, budget, floor, *args, group=group, **kwargs)
        table = (identity, tuple(map(tuple, rows)))
        if group and table not in seen:
            kept = kernel(rows, identity, maps, zerosum.Budget(None), floor, *args, **kwargs)
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
        count = tight = violations = 0
        for label, S in problems:
            bound, longest = check(S, d_of)
            count += 1
            tight += bound == longest
            if bound < longest:
                violations += 1
                print(f"VIOLATION {family} {label}: B = {bound} < L_N = {longest}")
        print(f"{family}: {count} semigroups, B < L_N on {violations}, "
              f"B = L_N on {tight}, {time.monotonic() - start:.1f} s")
        failed = failed or violations > 0
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
