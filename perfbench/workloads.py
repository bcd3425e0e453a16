"""The four benchmark workloads and their correctness gate.

Every workload calls only public functions of the ``davenport`` package.
A workload is split into ``setup`` (parse, factor, build the semigroups,
``units_of``, and the first ``is_reducible`` call, which builds the search
tables) and ``main`` (the searches, reports, Monte-Carlo samples and
reductions a user asks for). One pass runs both; a set-up round runs only
``setup``, to give ``setup_s`` more samples on workloads whose pass is long.

Expected values come from closed forms where the mathematics proves one,
and otherwise from the value the seed commit (d6d0cdf) computes by a
complete exact search; the provenance sits next to each number.
"""

from __future__ import annotations

import random
import resource
from collections import Counter
from functools import partial
from itertools import combinations_with_replacement
from math import prod

from davenport import (
    Sequence,
    build_cyclic_with_zero,
    build_product,
    build_quotient_semigroup,
    crt_decompose,
    davenport_exact,
    davenport_group_formula,
    davenport_montecarlo_upper,
    factor,
    find_reduction,
    is_reducible,
    units_of,
)
from davenport.parsing import parse_poly_expr
from davenport.semigroup import invariant_factors_from_cyclic_orders
from davenport.verify import (
    STATUS_VERIFIED,
    assert_valid_reduction,
    conjecture_probe,
    constructive_reduction,
    reduce_quadratic_case,
    verify_lemma_product,
    verify_proposition,
    verify_theorem1,
)

from tracing import Clock, Tracer


class Run:
    """State of one benchmark interpreter: tracer, clocks, counters, gate."""

    def __init__(self, tracer: Tracer, seed: int):
        self.tr = tracer
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self._problems: list[str] = []
        self.setup = Clock()  # builders, units_of, first table build
        self.aside = Clock()  # input generation and gate-only checks
        self.counts: Counter = Counter()
        self.verdicts: list[str] = []  # one line per search result seen
        self.peak_rss_mb = None  # set by mark_peak_rss, else read at the end
        self.largest = (0, None, ())  # (size, builder, args) for the memory probe

    # -- timed calls ----------------------------------------------------

    def call(self, span: str, fn, *args, **kwargs):
        with self.tr.span(span):
            return fn(*args, **kwargs)

    def _setup_call(self, span: str, fn, *args):
        with self.setup, self.tr.span(span):
            return fn(*args)

    def build(self, builder, *args):
        S = self._setup_call("semigroup.build", builder, *args)
        if S.size > self.largest[0]:
            self.largest = (S.size, builder, args)
        return S

    def units(self, S):
        return self._setup_call("semigroup.units", units_of, S)

    def tables(self, S):
        """First reducibility query on a fresh semigroup: builds its tables."""
        probe = Sequence.from_indices(S, [S.identity])
        return self._setup_call("zerosum.tables", is_reducible, probe)

    def prepare(self, builder, *args):
        S = self.build(builder, *args)
        U = self.units(S)
        self.tables(S)
        return S, U

    def parse(self, text: str, p: int):
        f = self.call("parsing.parse", parse_poly_expr, text, p)
        fac = self.call("gfpoly.factor", factor, f)
        with self.aside:
            self.check(fac.expand() == f, f"factorization of {f} does not expand back")
        return f, fac

    def mark_peak_rss(self):
        """Fix peak_rss_mb at the current high-water mark (first call only)."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- gate -----------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self._problems.append(message)

    def operation(self, label: str, body) -> None:
        """One counted operation; an exception or a failed check fails it."""
        self.attempted += 1
        self._problems = []
        try:
            body()
        except Exception as exc:  # the gate counts every exception as a failure
            self._problems.append(f"{type(exc).__name__}: {exc}")
        if self._problems:
            self.failures.append(f"{label}: {'; '.join(self._problems)}")
        self._problems = []

    def search_result(self, label, res, *, exact=None, lower=None):
        """Gate one DavenportResult and count it.

        ``exact`` is the known value of D, ``lower`` a proven lower bound.
        A complete result must hit ``exact`` and clear ``lower``; a
        budget-capped one is a lower bound, so it may not exceed ``exact``.
        The witness is re-checked through ``find_reduction`` (the layered
        DP), which is independent of the bitmask route the search uses.
        """
        w = res.witness
        fits = w is not None and len(w) == res.value - 1
        self.check(fits, f"{label}: witness length does not match D - 1 = {res.value - 1}")
        reducible = None
        if w is not None and len(w):
            reducible = self.call("zerosum.witness_check", find_reduction, w)
        self.check(reducible is None, f"{label}: witness {w} is reducible")
        self.counts["search_ms_reported"] += res.millis
        state = "exact" if res.complete else "lower bound, budget exhausted"
        self.verdicts.append(f"{label}: D = {res.value} [{state}], {res.nodes} nodes")
        if res.complete:
            if exact is not None:
                self.check(res.value == exact, f"{label}: D = {res.value}, expected {exact}")
            if lower is not None:
                self.check(res.value >= lower, f"{label}: D = {res.value} < D(U) = {lower}")
            if fits and reducible is None:
                self.counts["exact_solved"] += 1
            self.counts["search_nodes"] += res.nodes
        else:
            self.counts["capped_nodes"] += res.nodes
            if exact is not None:
                self.check(res.value <= exact,
                           f"{label}: lower bound {res.value} exceeds D = {exact}")

    def stress(self, label, reduce, S, inputs):
        """Run the program's reduction on each generated input, then gate
        every output; building inputs and checking outputs is set aside."""
        with self.aside:
            seqs = [Sequence.from_indices(S, indices) for indices in inputs]
        outputs = []
        for T in seqs:
            try:
                outputs.append(self.call("verify.reduce", reduce, T))
            except Exception as exc:  # the gate counts every exception as a failure
                outputs.append(exc)
        with self.aside:
            for k, (T, out) in enumerate(zip(seqs, outputs)):
                self.attempted += 1
                try:
                    if isinstance(out, Exception):
                        raise out
                    assert_valid_reduction(T, out)
                except Exception as exc:  # the gate counts every exception as a failure
                    self.failures.append(f"{label} #{k}: {type(exc).__name__}: {exc}")
        self.counts["reductions"] += len(inputs)


def stress_inputs(rng: random.Random, n: int, length: int, count: int):
    """Uniform random multisets of ``length`` indices below ``n``.

    Stars and bars: a sorted ``length``-subset of range(n + length - 1),
    shifted down by position, is a uniformly random multiset.
    """
    out = []
    for _ in range(count):
        picks = sorted(rng.sample(range(n + length - 1), length))
        out.append(tuple(c - i for i, c in enumerate(picks)))
    return out


# -- search-units ---------------------------------------------------------

UNITS_P, UNITS_F = 7, "x*(x+1)"
# D(C6 x C6) = 6 + 6 - 1 (rank-2 closed form); D(S) = D(U) by Theorem 1
# (p > 2, f squarefree), and the CRT model is isomorphic to S.
UNITS_D = 11


class SearchUnits:
    """verify_theorem1(7, x*(x+1)): three DFS searches whose products stay units."""

    name = "search-units"
    pass_s = 20  # nominal pass time on the seed code, for the pass count
    setup_rounds = 25

    def inputs(self, seed):
        return None

    def cli(self, seed):
        argv = ["verify", "theorem1", "-p", "3", "-f", "x*(x+1)"]
        return argv, lambda: verify_theorem1(3, parse_poly_expr("x*(x+1)", 3), 30_000)

    def setup(self, run: Run):
        f, _ = run.parse(UNITS_F, UNITS_P)
        S, U = run.prepare(build_quotient_semigroup, UNITS_P, f)
        run.tables(U.as_semigroup())
        crt = run.call("semigroup.crt_decompose", crt_decompose, UNITS_P, f)
        model = run.build(_cyclic_zero_product, crt.cyclic_orders)
        run.tables(model)
        return f, U

    def main(self, run: Run, prepared, inputs):
        f, U = prepared
        label = f"theorem1 p={UNITS_P} f={UNITS_F}"

        def body():
            report = run.call("verify.report", verify_theorem1, UNITS_P, f)
            d_units = davenport_group_formula(U.invariant_factors)
            run.check(d_units == UNITS_D, f"{label}: D(U) formula {d_units} != {UNITS_D}")
            run.check(report.status == STATUS_VERIFIED, f"{label}: status {report.status}")
            run.search_result(f"{label} D(S)", report.lhs, exact=UNITS_D, lower=d_units)
            run.search_result(f"{label} D(U)", report.rhs, exact=UNITS_D)
            crt_value = report.artifacts["crt_route_value"]
            run.check(crt_value == UNITS_D, f"{label}: CRT route gave {crt_value}")

        run.operation(label, body)


def _cyclic_zero_product(orders):
    if len(orders) == 1:
        return build_cyclic_with_zero(orders[0])
    return build_product([build_cyclic_with_zero(n) for n in orders])


# -- search-ideal ---------------------------------------------------------

IDEAL_BUDGET_MS = 10_000
# (p, f, exact D or None, provenance). The lower bound D(U) is always
# checked, from davenport_group_formula on the unit invariants.
IDEAL_INSTANCES = (
    (5, "(x+1)^2", 20, "proposition: D = p(p-1)"),
    (3, "x^3", 8, "seed commit d6d0cdf, complete search, 6282 nodes"),
    (3, "(x+1)^3", 8, "seed commit d6d0cdf, complete search, 6333 nodes"),
    (2, "x^3*(x+1)^3", 7, "seed commit d6d0cdf, complete search, 132644 nodes"),
)
# Frontier instances run last. Both hit the budget at the seed, so their
# memo grows with search speed for the whole budget: peak RSS is sampled
# before them, or a faster search would read as a memory regression.
IDEAL_FRONTIER = (
    (7, "(x+1)^2", 42, "proposition: D = p(p-1); incomplete at the seed"),
    (3, "x^2*(x+1)^2", None, "D >= D(U) = 11; incomplete at the seed"),
)


class SearchIdeal:
    """davenport_exact on repeated-factor moduli, one fixed budget each."""

    name = "search-ideal"
    pass_s = 24
    setup_rounds = 10

    def inputs(self, seed):
        return None

    def cli(self, seed):
        argv = ["davenport", "-p", "5", "-f", "(x+1)^2"]
        f = parse_poly_expr("(x+1)^2", 5)
        return argv, lambda: davenport_exact(build_quotient_semigroup(5, f), 30_000)

    def setup(self, run: Run):
        out = []
        for p, text, exact, _ in IDEAL_INSTANCES + IDEAL_FRONTIER:
            f, _ = run.parse(text, p)
            S, U = run.prepare(build_quotient_semigroup, p, f)
            out.append((p, text, exact, S, U))
        return out

    def main(self, run: Run, prepared, inputs):
        for k, (p, text, exact, S, U) in enumerate(prepared):
            label = f"davenport_exact p={p} f={text}"
            if k == len(IDEAL_INSTANCES):
                run.mark_peak_rss()

            def body():
                lower = davenport_group_formula(U.invariant_factors)
                with Clock() as clock:
                    res = run.call("zerosum.search", davenport_exact, S, IDEAL_BUDGET_MS)
                run.search_result(label, res, exact=exact, lower=lower)
                if not res.complete:
                    run.counts["overshoot_ms"] += clock.wall * 1000.0 - IDEAL_BUDGET_MS
                    run.counts["capped_wall_s"] += clock.wall
                    run.counts["capped_cpu_s"] += clock.cpu

            run.operation(label, body)


# -- universe-256 ---------------------------------------------------------

MC_SAMPLES = 2000
# (p, f, unit invariant factors, provenance)
UNIVERSES = (
    (2, "x^8", (2, 2, 4, 8), "units_of census at the seed commit d6d0cdf"),
    (3, "x^5", (3, 3, 18), "units_of census at the seed commit d6d0cdf"),
    (13, "(x+1)^2", (156,), "closed form: cyclic of order p(p-1)"),
    (3, "x^2*(x+1)^2*(x+2)", (2, 6, 6), "units_of census at the seed commit d6d0cdf"),
)
# D(S) = p(p-1) is proven for (x+1)^2, so no length-156 sequence there is
# irreducible and sampling must not find one.
PROVEN_UNIVERSE = (13, "(x+1)^2")


def unit_count(p: int, fac) -> int:
    """|U(F_p[x]/<f>)| from the factorization: prod p^(d(e-1)) (p^d - 1)."""
    return prod(p ** (g.degree * (e - 1)) * (p ** g.degree - 1) for g, e in fac.factors)


class Universe256:
    """Four universes of 169-256 elements: build, units_of, Monte-Carlo upper bound."""

    name = "universe-256"
    pass_s = 9
    setup_rounds = 0

    def inputs(self, seed):
        # the program draws its own samples from this seed, one per universe
        return [random.Random(f"{seed}/mc/{p}/{text}").getrandbits(32)
                for p, text, _, _ in UNIVERSES]

    def cli(self, seed):
        argv = ["probe", "-p", "3", "-f", "x^2"]
        return argv, lambda: conjecture_probe(3, parse_poly_expr("x^2", 3), 30_000)

    def setup(self, run: Run):
        out = []
        for p, text, invariants, _ in UNIVERSES:
            f, fac = run.parse(text, p)
            S, U = run.prepare(build_quotient_semigroup, p, f)
            out.append((p, text, invariants, fac, S, U))
        return out

    def main(self, run: Run, prepared, inputs):
        for (p, text, invariants, fac, S, U), mc_seed in zip(prepared, inputs):
            label = f"montecarlo p={p} f={text}"

            def body():
                run.check(U.order == unit_count(p, fac),
                          f"{label}: |U| = {U.order}, expected {unit_count(p, fac)}")
                run.check(U.invariant_factors == invariants,
                          f"{label}: U = {U.invariant_factors}, expected {invariants}")
                d = 1 + sum(n - 1 for n in U.invariant_factors)
                mc = run.call("zerosum.montecarlo", davenport_montecarlo_upper,
                              S, d, MC_SAMPLES, mc_seed)
                run.counts["mc_checked"] += mc.checked
                w = mc.counterexample
                if w is None:
                    run.check(mc.checked == MC_SAMPLES, f"{label}: checked {mc.checked}")
                else:
                    run.check((p, text) != PROVEN_UNIVERSE,
                              f"{label}: irreducible sample {w} contradicts D = p(p-1)")
                    with run.aside:
                        run.check(find_reduction(w) is None,
                                  f"{label}: sample {w} reported irreducible but reduces")

            run.operation(label, body)


# -- stress-reduce --------------------------------------------------------

STRESS = 1000
LEMMA_INSTANCES = tuple(
    orders
    for k in (1, 2, 3)
    for orders in combinations_with_replacement(range(2, 17), k)
    if prod(orders) <= 16
)
PROPOSITION_PRIMES = (3, 5)


def lemma_d_units(orders) -> int:
    """D(C_n1 x ... x C_nk) by the closed form for the unit group."""
    return davenport_group_formula(invariant_factors_from_cyclic_orders(orders))


class StressReduce:
    """Lemma-product and proposition reports, then 1000 generated reductions each."""

    name = "stress-reduce"
    pass_s = 5
    setup_rounds = 10

    def inputs(self, seed):
        out = []
        for orders in LEMMA_INSTANCES:
            rng = random.Random(f"{seed}/lemma/{orders}")
            n = orders[0] + 1 if len(orders) == 1 else prod(m + 1 for m in orders)
            out.append(stress_inputs(rng, n, lemma_d_units(orders), STRESS))
        for p in PROPOSITION_PRIMES:
            rng = random.Random(f"{seed}/proposition/{p}")
            out.append(stress_inputs(rng, p * p, p * (p - 1), STRESS))
        return out

    def cli(self, seed):
        argv = ["verify", "lemma", "-n", "2,4", "--stress", "200", "--seed", str(seed)]
        return argv, lambda: verify_lemma_product([2, 4], 30_000, stress=200, seed=seed)

    def setup(self, run: Run):
        lemmas = [run.prepare(_cyclic_zero_product, orders)[0] for orders in LEMMA_INSTANCES]
        props = []
        for p in PROPOSITION_PRIMES:
            f, _ = run.parse("(x+1)^2", p)
            props.append(run.prepare(build_quotient_semigroup, p, f)[0])
        return lemmas, props

    def main(self, run: Run, prepared, inputs):
        lemmas, props = prepared
        for orders, S, seqs in zip(LEMMA_INSTANCES, lemmas, inputs):
            label = f"lemma_product n={list(orders)}"
            d = lemma_d_units(orders)

            def body():
                report = run.call("verify.report", verify_lemma_product, list(orders),
                                  stress=0, seed=run.seed)
                run.check(report.status == STATUS_VERIFIED, f"{label}: status {report.status}")
                run.search_result(f"{label} D(S)", report.lhs, exact=d)
                run.search_result(f"{label} D(U)", report.rhs, exact=d)

            run.operation(label, body)
            run.stress(label, partial(constructive_reduction, S, d_units=d), S, seqs)
        for p, S, seqs in zip(PROPOSITION_PRIMES, props, inputs[len(LEMMA_INSTANCES):]):
            label = f"proposition p={p}"
            d = p * (p - 1)

            def body():
                report = run.call("verify.report", verify_proposition, p,
                                  stress=0, seed=run.seed)
                run.check(report.status == STATUS_VERIFIED, f"{label}: status {report.status}")
                run.search_result(f"{label} D(S)", report.lhs, exact=d)
                run.search_result(f"{label} D(U)", report.rhs, exact=d)

            run.operation(label, body)
            run.stress(label, partial(reduce_quadratic_case, p), S, seqs)


WORKLOADS = {w.name: w for w in (SearchUnits(), SearchIdeal(), Universe256(), StressReduce())}
