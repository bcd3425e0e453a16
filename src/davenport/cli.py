"""Command-line front end.

Verbs: factor, units, davenport, davenport-group, verify, probe, reduce.
Exit codes: 0 verified / computed, 1 refuted, 2 usage or hypothesis
error, 3 incomplete or outside-hypothesis, 4 internal check failed.
``--budget-ms`` counts from the start of the verb, setup included.
``--format record`` emits line-delimited JSON with sorted keys and no
wall-clock fields, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod
from typing import Optional

from .gfpoly import Poly, factor as factor_poly
from .parsing import ParseError, parse_poly_expr, parse_sequence
from .semigroup import (
    TABLE_CAP,
    FiniteSemigroup,
    build_abelian_group,
    build_adjoined_zero_product,
    build_quotient_semigroup,
    invariant_factors_from_cyclic_orders,
    units_of,
)
from .verify import (
    STATUS_INCOMPLETE,
    STATUS_OUTSIDE,
    STATUS_REFUTED,
    STATUS_VERIFIED,
    VerificationReport,
    conjecture_probe,
    constructive_reduction,
    proposition_semigroup,
    quadratic_modulus,
    reduce_quadratic_case,
    verify_lemma_product,
    verify_proposition,
    verify_theorem1,
)
from .zerosum import Budget, davenport_exact, davenport_group_formula

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {
    STATUS_VERIFIED: EXIT_OK,
    STATUS_REFUTED: EXIT_REFUTED,
    STATUS_INCOMPLETE: EXIT_INCOMPLETE,
    STATUS_OUTSIDE: EXIT_INCOMPLETE,
}


def _emit(args, record: dict, text: str) -> None:
    if args.format == "record":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _maybe_dump(args, S: FiniteSemigroup) -> None:
    if args.dump:
        desc = S.describe()
        if args.format == "record":
            print(json.dumps({"semigroup": desc}, sort_keys=True))
        else:
            print(f"semigroup: {desc}")


def _poly_arg(args) -> Poly:
    return parse_poly_expr(args.poly, args.prime)


def _nlist_arg(text: str) -> list[int]:
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParseError(f"expected a comma-separated integer list, got {text!r}", 0)
    if not ns:
        raise ParseError("empty integer list", 0)
    return ns


def _count_arg(text: str) -> int:
    """The argparse type of the count options: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # reported below, as a negative count is
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _semigroup_from_args(args) -> FiniteSemigroup:
    if args.nlist:
        return build_adjoined_zero_product(_nlist_arg(args.nlist))
    if args.prime is None or args.poly is None:
        raise ParseError("need either -p/-f or -n to pick a semigroup", 0)
    return build_quotient_semigroup(args.prime, _poly_arg(args))


# -- verb handlers -----------------------------------------------------------


def _cmd_factor(args) -> int:
    f = _poly_arg(args)
    fac = factor_poly(f)
    _emit(
        args,
        {
            "p": args.prime,
            "f": str(f),
            "unit": fac.unit,
            "factors": [[str(g), m] for g, m in fac.factors],
            "squarefree": fac.is_squarefree,
        },
        f"{f} = {fac}  (squarefree: {'yes' if fac.is_squarefree else 'no'})",
    )
    return EXIT_OK


def _cmd_units(args) -> int:
    f = _poly_arg(args)
    S = build_quotient_semigroup(args.prime, f)
    _maybe_dump(args, S)
    U = units_of(S)
    names = [S.format_element(i) for i in U.elements]
    invariants = list(U.invariant_factors)
    structure = " x ".join(f"C_{d}" for d in invariants) or "trivial"
    _emit(
        args,
        {
            "p": args.prime,
            "f": str(f),
            "order": U.order,
            "invariant_factors": invariants,
            "elements": names,
        },
        f"|U| = {U.order}  structure: {structure}\nunits: {', '.join(names)}",
    )
    return EXIT_OK


def _cmd_davenport(args) -> int:
    budget = Budget(args.budget_ms)
    S = _semigroup_from_args(args)
    _maybe_dump(args, S)
    result = davenport_exact(S, budget)
    _emit(args, result.to_record(), result.summary())
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


def _cmd_davenport_group(args) -> int:
    budget = Budget(args.budget_ms)
    ns = _nlist_arg(args.orders)
    if any(n < 1 for n in ns):
        raise ParseError("cyclic orders must be positive", 0)
    chain = invariant_factors_from_cyclic_orders(ns)
    formula = davenport_group_formula(chain)
    search = None
    if prod(ns) <= TABLE_CAP:
        group = build_abelian_group(ns)
        search = davenport_exact(group, budget)
        if formula is not None and search.complete and search.value != formula:
            raise AssertionError(
                f"formula {formula} disagrees with search {search.value}"
            )
    if formula is None and (search is None or not search.complete):
        print(
            "error: no closed form applies and the group exceeds the search cap",
            file=sys.stderr,
        )
        return EXIT_USAGE if search is None else EXIT_INCOMPLETE
    value = formula if formula is not None else search.value
    rec = {
        "orders": ns,
        "invariant_factors": list(chain),
        "value": value,
        "formula": formula,
        "search": search.to_record() if search else None,
    }
    text = (
        f"D({' x '.join(f'C_{n}' for n in ns)}) = {value}"
        f"  invariant factors {list(chain)}"
        f"  formula={formula if formula is not None else 'unknown'}"
        f"  search={'-' if search is None else search.summary()}"
    )
    _emit(args, rec, text)
    return EXIT_OK


def _report_exit(args, report: VerificationReport) -> int:
    _emit(args, report.to_record(), report.summary())
    return _STATUS_EXIT[report.status]


def _cmd_verify(args) -> int:
    if args.claim == "theorem1":
        if args.prime is None or args.poly is None:
            raise ParseError("verify theorem1 needs -p and -f", 0)
        report = verify_theorem1(args.prime, _poly_arg(args), budget_ms=args.budget_ms)
    elif args.claim == "lemma":
        if not args.nlist:
            raise ParseError("verify lemma needs -n n1,n2,...", 0)
        report = verify_lemma_product(
            _nlist_arg(args.nlist),
            budget_ms=args.budget_ms,
            stress=args.stress,
            seed=args.seed,
        )
    else:  # proposition
        if args.prime is None:
            raise ParseError("verify proposition needs -p", 0)
        report = verify_proposition(
            args.prime,
            budget_ms=args.budget_ms,
            stress=args.stress,
            samples=args.samples,
            seed=args.seed,
        )
    # the semigroup the verification built, so --dump builds none of its own
    _maybe_dump(args, report.semigroup)
    return _report_exit(args, report)


def _cmd_probe(args) -> int:
    report = conjecture_probe(args.prime, _poly_arg(args), budget_ms=args.budget_ms)
    return _report_exit(args, report)


def _cmd_reduce(args) -> int:
    budget = Budget(args.budget_ms)
    if args.nlist:
        S = _semigroup_from_args(args)
        _maybe_dump(args, S)
        T = parse_sequence(S, args.seq)
        units = davenport_exact(units_of(S).as_semigroup(), budget)
        if not units.complete:
            print(f"error: D(U(S)) not exact within the budget: {units.summary()}",
                  file=sys.stderr)
            return EXIT_INCOMPLETE
        T_prime = constructive_reduction(S, T, units.value)
    else:
        if args.prime is None:
            raise ParseError("reduce needs -p (square modulus) or -n (product)", 0)
        if args.poly is not None:
            f = _poly_arg(args)
            if f != quadratic_modulus(args.prime):
                raise ParseError(
                    f"the quadratic reduction is specific to {quadratic_modulus(args.prime)}",
                    0,
                )
        S = proposition_semigroup(args.prime)
        _maybe_dump(args, S)
        T = parse_sequence(S, args.seq)
        T_prime = reduce_quadratic_case(args.prime, T)
    _emit(
        args,
        {
            "input": T.format(),
            "output": T_prime.format(),
            "input_length": len(T),
            "output_length": len(T_prime),
        },
        f"T  = {T.format()}\nT' = {T_prime.format()}  (|T|={len(T)} -> |T'|={len(T_prime)})",
    )
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_common(sub, *, prime=False, poly=False, nlist=False, budget=True,
                stress=False, samples=False, seed=False, dump=False):
    if prime:
        sub.add_argument("-p", "--prime", type=int, help="prime modulus p")
    if poly:
        sub.add_argument(
            "-f", "--poly", help="polynomial over F_p, e.g. \"x*(x+1)\" or coeffs:0,1"
        )
    if nlist:
        sub.add_argument(
            "-n", "--nlist", help="comma-separated cyclic orders, e.g. 2,4"
        )
    if budget:
        sub.add_argument(
            "--budget-ms", type=_count_arg, default=30_000,
            help="wall-clock budget in milliseconds (default 30000)",
        )
    if stress:
        sub.add_argument(
            "--stress", type=_count_arg, default=1000,
            help="random threshold-length sequences to reduce (default 1000)",
        )
    if samples:
        sub.add_argument(
            "--samples", type=_count_arg, default=10_000,
            help="Monte-Carlo sample count (default 10000)",
        )
    if seed:
        sub.add_argument(
            "--seed", type=int, default=0, help="random seed (default 0)"
        )
    if dump:
        sub.add_argument(
            "--dump", action="store_true",
            help="print the semigroup description record first",
        )
    sub.add_argument(
        "--format", choices=("text", "record"), default="text",
        help="text for humans, record for line-delimited JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="davenport",
        description=(
            "Davenport constants of finite commutative semigroups: quotient "
            "rings F_p[x]/<f>, adjoined-zero cyclic products, and abelian "
            "groups, with machine-checked verification reports."
        ),
        epilog=(
            "exit codes: 0 verified/computed, 1 refuted, 2 usage error, "
            "3 incomplete or outside-hypothesis, 4 internal check failed"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("factor", help="factor a polynomial over F_p")
    _add_common(s, prime=True, poly=True, budget=False)
    s.set_defaults(func=_cmd_factor)

    s = sub.add_parser("units", help="unit group of F_p[x]/<f>")
    _add_common(s, prime=True, poly=True, budget=False, dump=True)
    s.set_defaults(func=_cmd_units)

    s = sub.add_parser(
        "davenport",
        help="exact D(S) for a quotient semigroup (-p/-f) or an "
        "adjoined-zero cyclic product (-n)",
    )
    _add_common(s, prime=True, poly=True, nlist=True, dump=True)
    s.set_defaults(func=_cmd_davenport)

    s = sub.add_parser(
        "davenport-group",
        help="D of an abelian group given by cyclic orders (formula + search)",
    )
    s.add_argument("orders", help="comma-separated cyclic orders, e.g. 2,6")
    _add_common(s)
    s.set_defaults(func=_cmd_davenport_group)

    s = sub.add_parser("verify", help="verify a claim instance")
    s.add_argument("claim", choices=("theorem1", "lemma", "proposition"))
    _add_common(
        s, prime=True, poly=True, nlist=True, stress=True, samples=True,
        seed=True, dump=True,
    )
    s.set_defaults(func=_cmd_verify)

    s = sub.add_parser(
        "probe", help="conjecture evidence for an arbitrary modulus (no assertion)"
    )
    _add_common(s, prime=True, poly=True)
    s.set_defaults(func=_cmd_probe)

    s = sub.add_parser(
        "reduce",
        help="run a constructive reduction on a sequence literal "
        "(-p for the square modulus, -n for adjoined-zero products)",
    )
    s.add_argument("--seq", required=True, help="sequence literal, e.g. \"x;2*4\"")
    _add_common(s, prime=True, poly=True, nlist=True, dump=True)
    s.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
