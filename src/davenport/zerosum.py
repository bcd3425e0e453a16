"""Sequences over a finite commutative semigroup and Davenport constants.

A sequence is an unordered multiset of semigroup elements. The central
predicate is reducibility: T is reducible when some proper sub-multiset
has the same product as T itself, and the Davenport constant D(S) is the
least d such that every sequence of length >= d is reducible. Appending a
term to a reducible sequence keeps it reducible (append the same term to
the witness), so D(S) = 1 + the maximum length of an irreducible
sequence, and irreducible sequences form a downward-closed family that a
depth-first search over non-decreasing element indices can enumerate
without loss.

Two independent routes decide reducibility:

* an incremental one used by the search: carry the set of proper
  sub-multiset products as a bitmask and fold terms one at a time;
* a layered dynamic program over distinct elements that also
  reconstructs witnesses (used for reductions and sum-set queries).

The test suite additionally checks both against brute-force enumeration.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

from .gfpoly import prime_factors
from .semigroup import FiniteSemigroup, units_of


class Sequence:
    """Finite multiset of elements of one semigroup.

    Stored as sorted (element index, multiplicity) pairs; instances are
    immutable and hashable.
    """

    __slots__ = ("parent", "pairs", "_length")

    def __init__(self, parent: FiniteSemigroup, pairs: Iterable[tuple[int, int]]):
        counts: dict[int, int] = {}
        for i, c in pairs:
            if not 0 <= i < parent.size:
                raise ValueError(f"element index {i} outside the universe")
            if c < 0:
                raise ValueError("negative multiplicity")
            if c:
                counts[i] = counts.get(i, 0) + c
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "pairs", tuple(sorted(counts.items())))
        object.__setattr__(self, "_length", sum(counts.values()))

    def __setattr__(self, name, value):
        raise AttributeError("Sequence is immutable")

    @classmethod
    def from_indices(cls, parent: FiniteSemigroup, indices: Iterable[int]) -> "Sequence":
        return cls(parent, ((i, 1) for i in indices))

    @classmethod
    def of(cls, parent: FiniteSemigroup, *values) -> "Sequence":
        return cls(parent, ((parent.index_of[v], 1) for v in values))

    @classmethod
    def empty(cls, parent: FiniteSemigroup) -> "Sequence":
        return cls(parent, ())

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other):
        return (
            isinstance(other, Sequence)
            and self.parent is other.parent
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((id(self.parent), self.pairs))

    def multiplicity(self, value) -> int:
        i = self.parent.index_of[value]
        return dict(self.pairs).get(i, 0)

    def indices(self) -> tuple[int, ...]:
        """Expanded sorted index tuple, one entry per term."""
        out = []
        for i, c in self.pairs:
            out.extend([i] * c)
        return tuple(out)

    def values(self) -> list:
        return [self.parent.values[i] for i in self.indices()]

    def is_subsequence_of(self, other: "Sequence") -> bool:
        if self.parent is not other.parent:
            return False
        theirs = dict(other.pairs)
        return all(c <= theirs.get(i, 0) for i, c in self.pairs)

    def is_proper_subsequence_of(self, other: "Sequence") -> bool:
        return self.is_subsequence_of(other) and len(self) < len(other)

    def remove(self, other: "Sequence") -> "Sequence":
        """Multiset difference; ``other`` must be a subsequence."""
        if not other.is_subsequence_of(self):
            raise ValueError("not a subsequence, cannot remove")
        theirs = dict(other.pairs)
        return Sequence(
            self.parent, ((i, c - theirs.get(i, 0)) for i, c in self.pairs)
        )

    def add(self, other: "Sequence") -> "Sequence":
        if self.parent is not other.parent:
            raise ValueError("sequences over different semigroups")
        return Sequence(self.parent, self.pairs + other.pairs)

    def format(self) -> str:
        """Semicolon-joined element literals with ``*m`` multiplicities."""
        parts = []
        for i, c in self.pairs:
            lit = self.parent.format_element(i)
            if c > 1:
                if any(ch in lit for ch in "+-*") and not lit.startswith("("):
                    lit = f"({lit})"
                lit = f"{lit}*{c}"
            parts.append(lit)
        return ";".join(parts)

    def __repr__(self):
        return f"Sequence[{self.format()}]" if self.pairs else "Sequence[]"


# -- products and sub-multiset sums -----------------------------------------


def sigma(T: Sequence):
    """Product of all terms of T; the identity for the empty sequence."""
    S = T.parent
    return S.values[sigma_index(T)]


def sigma_index(T: Sequence) -> int:
    S = T.parent
    acc = None
    for i, c in T.pairs:
        term = S.power(i, c)
        acc = term if acc is None else S.op(acc, term)
    if acc is None:
        if S.identity is None:
            raise ValueError("empty sequence over a semigroup without identity")
        return S.identity
    return acc


# Layered DP over distinct elements. A state is (product index, used all
# copies so far, used any copy so far); the flags single out the full
# selection and the empty selection exactly once each.
_EMPTY = -1


def _dp_layers(S: FiniteSemigroup, pairs):
    start_sum = S.identity if S.identity is not None else _EMPTY
    rows = S.table
    layers = [{(start_sum, True, False): None}]
    for x, c in pairs:
        powers = [S.power(x, take) for take in range(1, c + 1)]
        nxt: dict = {}
        for state in layers[-1]:
            s, all_used, any_used = state
            for take in range(c + 1):
                if take == 0:
                    t = s
                else:
                    px = powers[take - 1]
                    t = px if s == _EMPTY else rows[s][px]
                key = (t, all_used and take == c, any_used or take > 0)
                old = nxt.get(key)
                if old is None or take < old[1]:
                    nxt[key] = (state, take)
        layers.append(nxt)
    return layers


def _dp_final_states(layers, proper: bool):
    """Last-layer states of the selections a query admits.

    ``proper``: proper sub-multisets, the empty one included when there is
    an identity to be its product; otherwise nonempty sub-multisets, the
    full one included.
    """
    for state in layers[-1]:
        s, all_used, any_used = state
        if s != _EMPTY and (not (all_used and any_used) if proper else any_used):
            yield state


def _dp_collect(S, pairs, *, proper: bool) -> set[int]:
    return {s for s, _, _ in _dp_final_states(_dp_layers(S, pairs), proper)}


def _dp_select(S, pairs, target: int, *, proper: bool) -> Optional[dict[int, int]]:
    """Deterministic sub-multiset with the target product, or None.

    Among admissible selections the reconstruction prefers the empty one,
    then ones that leave something out, then fewer copies of later
    elements (the min-take back-pointers recorded by the layering).
    """
    layers = _dp_layers(S, pairs)
    best = None
    for state in _dp_final_states(layers, proper):
        s, all_used, any_used = state
        if s != target:
            continue
        rank = (any_used, all_used)
        if best is None or rank < best[0]:
            best = (rank, state)
    if best is None:
        return None
    counts: dict[int, int] = {}
    cur = best[1]
    for depth in range(len(layers) - 1, 0, -1):
        prev_state, take = layers[depth][cur]
        if take:
            counts[pairs[depth - 1][0]] = take
        cur = prev_state
    return counts


def proper_subsums(T: Sequence) -> set:
    """Products of all proper sub-multisets of T (as element values)."""
    if len(T) < 1:
        raise ValueError("proper sub-multisets need a nonempty sequence")
    S = T.parent
    idx = _dp_collect(S, T.pairs, proper=True)
    return {S.values[i] for i in idx}


def sumset(T: Sequence) -> set:
    """Products of all nonempty sub-multisets of T (as element values)."""
    S = T.parent
    idx = _dp_collect(S, T.pairs, proper=False)
    return {S.values[i] for i in idx}


def find_reduction(T: Sequence) -> Optional[Sequence]:
    """A proper sub-multiset with the same product as T, or None."""
    if len(T) < 1:
        return None
    S = T.parent
    counts = _dp_select(S, T.pairs, sigma_index(T), proper=True)
    if counts is None:
        return None
    return Sequence(S, counts.items())


def is_reducible(T: Sequence) -> bool:
    """True when some proper sub-multiset multiplies to sigma(T)."""
    if len(T) < 1:
        raise ValueError("reducibility needs a nonempty sequence")
    S = T.parent
    if S.identity is None:
        return find_reduction(T) is not None
    ctx = _search_context(S)
    return _reducible_incremental(ctx, T.indices())


def is_zero_sum_free(T: Sequence) -> bool:
    """No nonempty sub-multiset multiplies to the identity.

    All terms must be invertible; over a group this is the complement of
    containing a nonempty subsequence with identity product.
    """
    S = T.parent
    if S.identity is None:
        raise ValueError("zero-sum freeness needs an identity")
    unit_set = set(units_of(S).elements)
    for i, _ in T.pairs:
        if i not in unit_set:
            raise ValueError(
                f"term {S.format_element(i)} is outside the unit group"
            )
    if len(T) == 0:
        return True
    return _dp_select(S, T.pairs, S.identity, proper=False) is None


# -- incremental reducibility (bitmask route) --------------------------------


class _SearchContext:
    """Per-semigroup tables for mask-based reducibility and search.

    translate[x] maps a product-set bitmask R to {r*x : r in R} chunkwise:
    one precomputed table per byte of the mask, indexed by the byte.
    """

    __slots__ = ("n", "rows", "identity", "translate")

    def __init__(self, S: FiniteSemigroup):
        if S.identity is None:
            raise ValueError("search needs an identity element")
        self.n = S.size
        self.rows = S.table
        self.identity = S.identity
        n_chunks = (self.n + 7) // 8
        self.translate = []
        for x in range(self.n):
            col = [S.table[i][x] for i in range(self.n)]
            chunks = []
            for ci in range(n_chunks):
                base = ci * 8
                tab = [0] * (1 << 8)
                for b in range(1, 1 << 8):
                    low = b & (-b)
                    i = base + low.bit_length() - 1
                    rest = tab[b ^ low]
                    tab[b] = rest | (1 << col[i]) if i < self.n else rest
                chunks.append(tab)
            self.translate.append(chunks)


def _search_context(S: FiniteSemigroup) -> _SearchContext:
    ctx = S._search_cache
    if ctx is None:
        ctx = _SearchContext(S)
        S._search_cache = ctx
    return ctx


def _translate_mask(ctx: _SearchContext, mask: int, x: int) -> int:
    acc = 0
    chunks = ctx.translate[x]
    ci = 0
    while mask:
        acc |= chunks[ci][mask & 255]
        mask >>= 8
        ci += 1
    return acc


def _reducible_incremental(ctx: _SearchContext, indices) -> bool:
    sig = ctx.identity
    rp = 0
    rows = ctx.rows
    for x in indices:
        new_sig = rows[sig][x]
        rp = rp | (1 << sig) | _translate_mask(ctx, rp, x)
        if (rp >> new_sig) & 1:
            return True
        sig = new_sig
    return False


# -- Davenport constant ------------------------------------------------------


@dataclass
class DavenportResult:
    """Outcome of a Davenport-constant computation."""

    value: int
    witness: Optional[Sequence]
    method: str  # exact_dfs | formula
    nodes: int
    millis: int
    complete: bool

    def to_record(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "witness": self.witness.format() if self.witness is not None else None,
            "nodes": self.nodes,
            "millis": None,  # byte-identical records; wall time is text-mode only
            "complete": self.complete,
        }

    def summary(self) -> str:
        state = "exact" if self.complete else "lower bound (budget exhausted)"
        w = self.witness.format() if self.witness is not None else "-"
        return (
            f"D = {self.value} [{state}] method={self.method} "
            f"witness={w} nodes={self.nodes} millis={self.millis}"
        )


class Budget:
    """Wall-clock deadline (None: unbounded) shared by every phase of one
    computation; it counts from its creation, so setup counts against it."""

    def __init__(self, budget_ms: Optional[int]):
        self.start = time.monotonic()
        self.deadline = None if budget_ms is None else self.start + budget_ms / 1000.0

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining_ms(self) -> Optional[int]:
        if self.deadline is None:
            return None
        return max(0, int((self.deadline - time.monotonic()) * 1000))

    def elapsed_ms(self) -> int:
        return int((time.monotonic() - self.start) * 1000)


class _OutOfBudget(Exception):
    pass


def davenport_exact(
    S: FiniteSemigroup, budget_ms: Optional[int] = None
) -> DavenportResult:
    """Exact D(S) by pruned depth-first search over canonical multisets.

    Sequences are generated with non-decreasing element indices; only
    irreducible prefixes are extended, and search states that coincide in
    (product, proper-product set, minimum next index) are merged through a
    memo table. The memo key packs the product and the minimum next index
    into 8 bits each, which relies on the universe-size cap
    ``semigroup.TABLE_CAP``. The budget covers building the search tables
    too; the clock is read on the first node and then every 1024 nodes, so
    ``budget_ms=0`` explores exactly one node. On budget exhaustion the
    result downgrades to an explicit lower bound with ``complete=False``.
    """
    if S.identity is None:
        raise ValueError("Davenport search needs an identity element")
    budget = Budget(budget_ms)
    ctx = _search_context(S)
    n = ctx.n
    rows = ctx.rows
    translate = ctx.translate

    memo: dict[int, tuple[int, int]] = {}  # packed state -> (extra, first+1)
    nodes = 0
    best_depth = 0
    best_path: tuple[int, ...] = ()
    path: list[int] = []

    def explore(sig: int, rp: int, min_elem: int, depth: int) -> int:
        nonlocal nodes, best_depth, best_path
        key = (rp << 16) | (sig << 8) | min_elem
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        nodes += 1
        if nodes & 0x3FF == 1 and budget.expired():
            raise _OutOfBudget
        best_extra = 0
        best_first = -1
        r_all = rp | (1 << sig)
        for x in range(min_elem, n):
            new_sig = rows[sig][x]
            acc = 0
            m = rp
            ci = 0
            chunks = translate[x]
            while m:
                acc |= chunks[ci][m & 255]
                m >>= 8
                ci += 1
            new_rp = r_all | acc
            if (new_rp >> new_sig) & 1:
                continue
            if depth + 1 > best_depth:
                best_depth = depth + 1
                best_path = tuple(path) + (x,)
            path.append(x)
            extra = explore(new_sig, new_rp, x, depth + 1)
            path.pop()
            if 1 + extra > best_extra:
                best_extra = 1 + extra
                best_first = x
        memo[key] = (best_extra, best_first)
        return best_extra

    try:
        total = explore(ctx.identity, 0, 0, 0)
    except _OutOfBudget:
        terms, complete = best_path, False
    else:
        # replay the memoized first-choice chain for the canonical witness
        sig, rp, min_elem = ctx.identity, 0, 0
        terms, complete = [], True
        while True:
            _, first = memo[(rp << 16) | (sig << 8) | min_elem]
            if first < 0:
                break
            terms.append(first)
            new_sig = rows[sig][first]
            rp = rp | (1 << sig) | _translate_mask(ctx, rp, first)
            sig, min_elem = new_sig, first
        if len(terms) != total:
            raise AssertionError(
                f"witness replay found {len(terms)} terms, the search {total}"
            )
    witness = Sequence.from_indices(S, terms)
    _check_witness(witness)
    return DavenportResult(
        value=1 + len(terms),
        witness=witness,
        method="exact_dfs",
        nodes=nodes,
        millis=budget.elapsed_ms(),
        complete=complete,
    )


def _check_witness(witness: Sequence) -> None:
    # re-validate through the layered DP, which is independent of the
    # bitmask route the search itself prunes with
    if len(witness) and find_reduction(witness) is not None:
        raise AssertionError("search produced a reducible witness")


def davenport_group_formula(invariant_factors) -> Optional[int]:
    """Closed-form D for groups where one is classical, else None.

    Covers rank <= 2 (d1 + d2 - 1) and p-groups (1 + sum(d_i - 1)); any
    other shape returns None rather than a guess.
    """
    ds = [int(d) for d in invariant_factors if int(d) != 1]
    if any(d < 1 for d in ds):
        raise ValueError("invariant factors must be positive")
    for a, b in zip(ds, ds[1:]):
        if b % a != 0:
            raise ValueError(f"not a divisibility chain: {a} does not divide {b}")
    if not ds:
        return 1
    if len(ds) == 1:
        return ds[0]
    if len(ds) == 2:
        return ds[0] + ds[1] - 1
    primes = set()
    for d in ds:
        primes |= set(prime_factors(d))
    if len(primes) == 1:
        return 1 + sum(d - 1 for d in ds)
    return None


# -- random sequences and Monte-Carlo bounds ---------------------------------


def _multiset_count(n_values: int, k: int) -> int:
    return comb(n_values + k - 1, k)


def _unrank_multiset(n_values: int, k: int, rank: int) -> list[int]:
    """Stars-and-bars unranking: the rank-th non-decreasing k-tuple."""
    out = []
    e = 0
    remaining = k
    while remaining:
        block = _multiset_count(n_values - e, remaining - 1)
        if rank < block:
            out.append(e)
            remaining -= 1
        else:
            rank -= block
            e += 1
    return out


def random_sequence(S: FiniteSemigroup, length: int, rng: random.Random) -> Sequence:
    """Uniformly random multiset of the given length over the universe."""
    rank = rng.randrange(_multiset_count(S.size, length))
    return Sequence.from_indices(S, _unrank_multiset(S.size, length, rank))


@dataclass
class MonteCarloReport:
    """Sampling evidence for ``every length-d sequence is reducible``."""

    d: int
    samples: int
    checked: int
    reducible: int
    counterexample: Optional[Sequence]
    seed: int

    @property
    def all_reducible(self) -> bool:
        return self.counterexample is None

    def to_record(self) -> dict:
        return {
            "d": self.d,
            "samples": self.samples,
            "checked": self.checked,
            "reducible": self.reducible,
            "counterexample": (
                self.counterexample.format() if self.counterexample else None
            ),
            "seed": self.seed,
        }


def davenport_montecarlo_upper(
    S: FiniteSemigroup, d: int, samples: int = 10_000, seed: int = 0
) -> MonteCarloReport:
    """Sample length-d sequences; any irreducible one disproves D(S) <= d.

    Sampling is uniform over multisets via stars-and-bars unranking with a
    seeded generator, so reports are reproducible.
    """
    if d < 1:
        raise ValueError("sequence length must be >= 1")
    rng = random.Random(seed)
    reducible = 0
    checked = 0
    for _ in range(samples):
        T = random_sequence(S, d, rng)
        checked += 1
        if is_reducible(T):
            reducible += 1
        else:
            return MonteCarloReport(d, samples, checked, reducible, T, seed)
    return MonteCarloReport(d, samples, checked, reducible, None, seed)
