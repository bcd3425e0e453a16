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

* an incremental one behind ``is_reducible``: carry the set of proper
  sub-multiset products and fold terms in one at a time, each through its
  Cayley-table row;
* a layered dynamic program over distinct elements that also
  reconstructs witnesses (used for reductions and sum-set queries).

The test suite additionally checks both against brute-force enumeration.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .gfpoly import prime_factors
from .semigroup import FiniteSemigroup, automorphisms, units_of


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

    def indices(self) -> tuple[int, ...]:
        """Expanded sorted index tuple, one entry per term."""
        out = []
        for i, c in self.pairs:
            out.extend([i] * c)
        return tuple(out)

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
    return product_index(T.parent, T.pairs)


def product_index(S: FiniteSemigroup, pairs) -> int:
    """Product of (index, count) pairs, each term folded in through its
    Cayley-table row; the identity for no terms."""
    rows = S.table
    acc = S.identity
    for i, c in pairs:
        row = rows[i]
        if acc is None:
            acc, c = i, c - 1
        for _ in range(c):
            acc = row[acc]
    if acc is None:
        raise ValueError("empty sequence over a semigroup without identity")
    return acc


def _dp_layers(S: FiniteSemigroup, pairs):
    """Forward pass of the layered DP over distinct elements, given as
    (index, positive count) pairs.

    A selection from the first k pairs is empty, full, or partial
    (neither). Layer k is (the partial products, in insertion order, as
    dict keys; the full selection's product; the powers x, ..., x^c of
    pair k). Layer k+1 inserts, in this order: the empty selection times
    x^1..x^c (x^c only once the empty and full selections differ, k >= 1),
    each partial product times x^0..x^c, and the full product times
    x^0..x^(c-1) (k >= 1). The empty selection's product is the identity
    where there is one, so it times x^t is x^t.
    """
    rows = S.table
    parts: dict[int, None] = {}
    full = S.identity
    layers = [(parts, full, ())]
    for k, (x, c) in enumerate(pairs):
        row_x = rows[x]
        powers = [x]
        for _ in range(c - 1):
            powers.append(row_x[powers[-1]])
        below_c = powers[:-1]
        out = powers[:] if k else below_c
        for s in parts:
            row = rows[s]
            out.append(s)
            out += [row[px] for px in powers]
        if k:
            row = rows[full]
            out.append(full)
            out += [row[px] for px in below_c]
            full = row[powers[-1]]
        else:
            full = powers[-1]
        parts = dict.fromkeys(out)
        layers.append((parts, full, powers))
    return layers


def _dp_collect(S, pairs, *, proper: bool) -> set[int]:
    """Products of the proper sub-multisets (the empty one included when
    there is an identity), or else of the nonempty ones."""
    parts, full, _ = _dp_layers(S, pairs)[-1]
    out = set(parts)
    if proper:
        if S.identity is not None:
            out.add(S.identity)
    elif pairs:
        out.add(full)
    return out


def dp_select(S, pairs, target: int, *, proper: bool) -> Optional[dict[int, int]]:
    """Deterministic sub-multiset with the target product, or None.

    ``proper`` admits the proper sub-multisets, the empty one included
    when there is an identity; otherwise the nonempty ones. Among the
    admitted selections with the target product the empty one comes
    first, then the partial ones, then the full one. A partial one is
    rebuilt backwards, layer by layer, by this rule: the partial product t
    of layer k comes from the source in layer k-1 and the take of pair k
    (copies used) with the smallest take that multiplies to t; on a tie
    the empty selection wins, then the earliest-inserted partial product,
    then the full selection. Once the source is the empty or the full
    selection, every earlier pair is taken 0 or all times.

    Why no back-pointers are needed: a DP that keeps, for every state, the
    first (source, take) reaching it with the least take, scanning sources
    in the order empty, partials as inserted, full, and takes ascending,
    records exactly the pointer this rule picks, because the rule scans
    the same candidates in the same order. The scan only needs layer k-1's
    reachable products and their order, which ``_dp_layers`` keeps: its
    layer k is that scan's first occurrences (``dict.fromkeys``), so by
    induction the partial products are ordered by the least take vector
    reaching them, compared lexicographically; the empty selection's
    vector is the least and the full one's the largest.
    """
    layers = _dp_layers(S, pairs)
    parts, full, _ = layers[-1]
    if proper and target == S.identity:
        return {}
    if target not in parts:
        return dict(pairs) if not proper and pairs and full == target else None
    rows = S.table
    counts: dict[int, int] = {}
    t = target
    for k in range(len(pairs), 1, -1):
        x, c = pairs[k - 1]
        prev, prev_full, _ = layers[k - 1]
        if t in prev:  # take 0 of a partial selection
            continue
        if prev_full == t:  # take 0 of the full selection
            counts.update(pairs[:k - 1])
            return counts
        for take, px in enumerate(layers[k][2], 1):
            counts[x] = take
            if px == t:  # the empty selection
                return counts
            s = next((s for s in prev if rows[s][px] == t), None)
            if s is not None:
                t = s
                break
            if take < c and rows[prev_full][px] == t:
                counts.update(pairs[:k - 1])
                return counts
    # layer 0 is the empty selection, which is also the full one
    counts[pairs[0][0]] = layers[1][2].index(t) + 1
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
    counts = dp_select(S, T.pairs, sigma_index(T), proper=True)
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
    return _reducible_incremental(S, T.indices())


def _reducible_incremental(S: FiniteSemigroup, indices) -> bool:
    # rp: the products of the proper sub-multisets of the terms read so far;
    # appending x makes it rp ∪ {sig} ∪ rp·x, read off row x of the table
    sig = S.identity
    rp: set[int] = set()
    for x in indices:
        row = S.table[x]
        rp |= {row[r] for r in rp}
        rp.add(sig)
        sig = row[sig]
        if sig in rp:
            return True
    return False


def is_zero_sum_free(T: Sequence) -> bool:
    """No nonempty sub-multiset multiplies to the identity.

    All terms must be invertible; over a group this is the complement of
    containing a nonempty subsequence with identity product.
    """
    S = T.parent
    if S.identity is None:
        raise ValueError("zero-sum freeness needs an identity")
    inverses = units_of(S).inverses
    for i, _ in T.pairs:
        if i not in inverses:
            raise ValueError(
                f"term {S.format_element(i)} is outside the unit group"
            )
    if len(T) == 0:
        return True
    return dp_select(S, T.pairs, S.identity, proper=False) is None


# -- Davenport constant ------------------------------------------------------


def _nilpotency_index(S: FiniteSemigroup) -> Optional[int]:
    """Least e with N^e = {0}, N the non-units of S; None when there is none.

    N^e is the set of products of e non-units. N is an ideal, so
    N ⊇ N^2 ⊇ ... and each step is read off the Cayley rows. None when S
    has no zero or no non-unit, or when the chain stops shrinking before
    it reaches {0}. For F_p[x]/<g^m>, g irreducible, e = m; a modulus with
    two distinct irreducible factors has none.
    """
    if S.zero is None:
        return None
    inverses = units_of(S).inverses
    N = [b for b in range(S.size) if b not in inverses]
    if not N:
        return None
    rows = S.table
    P = set(N)
    e = 1
    while len(P) > 1:
        nxt = {rows[a][b] for a in P for b in N}
        if len(nxt) == len(P):
            return None
        P = nxt
        e += 1
    return e


def _search_tables(S: FiniteSemigroup):
    """The tables the exact search reads: ``(translate, ideal, fiber)``.

    translate[x] maps a product-set bitmask R to {r*x : r in R} chunkwise:
    one table per 8-element chunk of the universe, indexed by that chunk's
    bits of R. Row x of the Cayley table is column x too (the table is
    filled symmetrically), and each chunk is built by doubling, so a chunk
    of w elements has 2^w entries. ideal[s] is the principal ideal s S^1
    and fiber[x][t] the set of r with r*x = t, both as bitmasks.
    ``davenport_exact`` builds them once per call and drops them on return.
    """
    n = S.size
    translate = []
    fiber = []
    for row in S.table:
        bits = [1 << t for t in row]
        chunks = []
        for base in range(0, n, 8):
            tab = [0]
            for b in bits[base:base + 8]:
                tab += [t | b for t in tab]
            chunks.append(tab)
        translate.append(chunks)
        col = [0] * n
        for r, t in enumerate(row):
            col[t] |= 1 << r
        fiber.append(col)
    ideal = [_translate_mask(translate[s], (1 << n) - 1) | (1 << s) for s in range(n)]
    return translate, ideal, fiber


def _translate_mask(chunks: list[list[int]], mask: int) -> int:
    acc = 0
    ci = 0
    while mask:
        acc |= chunks[ci][mask & 255]
        mask >>= 8
        ci += 1
    return acc


def _symmetry_masks(A: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """``(fixed, down)`` bitmask pairs for automorphisms A, one per distinct
    fixed-point set: ``fixed`` holds the elements those phi fix, and
    ``down`` the y that one of them maps below y. Pairs with no such y (the
    identity's) are dropped.
    """
    down_of: dict[int, int] = {}
    for phi in A:
        fixed = down = 0
        for y, z in enumerate(phi):
            if z == y:
                fixed |= 1 << y
            elif z < y:
                down |= 1 << y
        if down:
            down_of[fixed] = down_of.get(fixed, 0) | down
    return list(down_of.items())


def _fixing(entries: list[tuple[int, int]], r_all: int):
    """``(kept, common, down)``: the entries whose fixed set contains the
    mask r_all, the AND of their fixed sets (-1 when none) and the OR of
    their ``down`` masks."""
    kept = [en for en in entries if not r_all & ~en[0]]
    common, down = -1, 0
    for fixed, d in kept:
        common &= fixed
        down |= d
    return kept, common, down


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
    """Exact D(S) by branch-and-bound over canonical multisets.

    Sequences are generated with non-decreasing element indices; only
    irreducible prefixes are extended, and search states that coincide in
    (product, proper-product set, minimum next index) are merged through a
    memo table, whose key packs the product and the minimum next index into
    fields of ``(n - 1).bit_length()`` bits. The budget covers building the
    search tables too; the clock is read on the first node and then every
    1024 nodes, so ``budget_ms=0`` explores exactly one node. On budget
    exhaustion the result downgrades to the longest sequence found so far,
    an explicit lower bound with ``complete=False``.

    ``best_len`` is the length of the longest irreducible sequence found
    so far (the incumbent). A state's memo value is one int ``ub``: a cut
    state stores its bound, an explored one the largest ``1 + ub`` over
    its children (0 when none). By induction on the order in which values
    are written, ``ub`` bounds the number of terms any irreducible
    extension of the state can add: a cut bound does (below), and each
    extension starts with a child whose returned value bounds the rest.
    Symmetry skipping depends only on the key, so the bound holds in the
    skipped family too. A hit is used when ``depth + ub <= best_len``
    (``cut`` below): nothing longer than the incumbent lies below, so it
    is skipped for the same reason a cut is. Otherwise the state is
    explored again. A re-explored state whose ``ub`` was already exact
    finds a sequence longer than the incumbent, so re-exploring costs at
    most ``D(S) - 1 - floor`` extra chains per search (floor below).

    Ideal bound. Let T have product s and proper-sub-multiset products rp
    (the empty product included), and let T y_1 ... y_k be irreducible.
    Irreducible sequences are downward closed, so every T y_1 ... y_i is
    irreducible. Hence the products s y_1 ... y_i (1 <= i <= k) are pairwise
    distinct, differ from s and avoid rp: an equality would give a prefix
    a proper sub-multiset with its own product. They all lie in the
    principal ideal s S^1, so k <= |s S^1 minus (rp and s)|. A state whose
    bound cannot lift ``depth`` past ``best_len`` is stored with that
    bound and not expanded. Every cut branch and every used memo hit is
    thus no longer than the incumbent, so after a complete run
    ``best_len = D(S) - 1``. The incumbent only grows by a sequence the
    run has just reached, term by term; the run visits the multisets in
    lexicographic order and only a strictly longer sequence replaces the
    incumbent, so the witness is the lexicographically first longest
    irreducible sequence.

    Child test. Appending x to T gives product s x and proper products
    rp' = rp ∪ {s} ∪ rp x, and T x is reducible iff s x lies in rp'. So
    it is reducible iff s x lies in rp ∪ {s}, or r x = s x for some r in
    rp, that is iff rp meets fiber[x][s x], where fiber[x][t] is the
    preimage of t under r -> r x. Both checks are O(1) mask tests, so rp'
    is built only for the children that pass. The test is an equivalence,
    not a prune: the search tree, node counts, memo and witness are those
    of testing s x against rp' itself.

    Pruning floor. Cuts and memo hits compare against
    ``cut = max(best_len, floor)``, not ``best_len``, where
    floor = D*(U) - 2, U is the unit group with invariant factors d_i and
    D*(U) = 1 + sum(d_i - 1). A cut branch holds no sequence longer than
    ``cut``. Let L = D(S) - 1 be the longest length. Until the incumbent
    reaches L, the branch holding the lexicographically first sequence of
    length L is cut only if floor >= L. But D*(U) <= D(U) <= D(S) (a
    sequence irreducible over U is irreducible over S, its sub-multisets
    having the same products), so floor <= L - 1: that sequence is still
    found first, and the value and the witness are those of the search
    without the floor. The floor never enters the result: ``best_len`` and
    ``best_path`` still record every longer prefix, so a capped run reports
    a witnessed lower bound. The argument needs only floor < L, which a
    complete run ending with best_len > floor proves whatever the census
    says; one ending at or below the floor (a wrong census) raises
    ``AssertionError``.

    Unit split bound. Let N be the non-units, an ideal, and e the least
    with N^e = {0} (``_nilpotency_index``). Take a state whose product s
    is a unit and which has at least one term; every term of T is then a
    unit, so rp and s lie in U, and s S^1 = S. If T y_1 ... y_k is
    irreducible, its a unit terms and b non-unit terms obey:

    * a <= |U minus (rp and s)|: T times the unit terms is irreducible
      (downward closed), so as in the ideal bound its partial products
      past T are distinct units outside rp and s;
    * b <= e - 1: e non-unit terms multiply to 0, so the whole product is
      0, and dropping one term of T leaves a proper sub-multiset whose
      product is still 0.

    So k <= |U| - |rp and s| + e - 1, the ideal bound less |N| - (e - 1).
    The bound depends only on the state, so memo entries stay valid. With
    no such e (no zero, no non-unit, or N^k never {0}) the rule is off.

    Symmetry. Let A be the automorphisms of S that ``automorphisms``
    returns (all of them or, past its work cap or the budget, a subset).
    A state with product s and proper products rp, r_all = rp and s, skips
    a term y when some phi in A fixes every element of r_all and has
    phi(y) < y. An automorphism maps an irreducible sequence to an
    irreducible one of the same length, since it carries the
    sub-multisets of T and their products onto those of phi(T).

    * The skipped terms depend only on the memo key. With two or more
      terms, each term of T is a proper sub-multiset of T, so it lies in
      rp; with one term x1, r_all = {identity, x1}; at the root
      r_all = {identity}. So a phi fixing r_all fixes every term of every
      path to the key.
    * W is never skipped. Let W = w1 <= w2 <= ... be the lexicographically
      first longest irreducible sequence, and w1..wk its prefix at some
      state. Suppose phi fixes r_all, hence w1..wk, and
      phi(w_k+1) < w_k+1. No wi equals w_k+1, as phi fixes wi, so W has
      exactly k terms below w_k+1, while phi(W) holds w1..wk and
      phi(w_k+1). So sorted phi(W) is lexicographically smaller than W,
      and it is irreducible and as long: a contradiction.

    The search is therefore the branch-and-bound above over the family of
    sequences no step of which is skipped. Skipping depends only on the
    key, so the memo stays valid within that family; the family holds W,
    and every member is irreducible, so the value and the witness are
    those of W. Any subset of the automorphisms keeps this true.

    The kernel keeps, per node, ``(entries, common, down)`` from
    ``_symmetry_masks`` and ``_fixing``: the (fixed, down) pairs whose
    fixed set contains r_all, the AND of those sets and the OR of their
    down masks. r_all only grows along a path, so a child re-filters its
    parent's entries only when its r_all leaves ``common``.
    """
    if S.identity is None:
        raise ValueError("Davenport search needs an identity element")
    budget = Budget(budget_ms)
    translate, ideal, fiber = _search_tables(S)
    n = S.size
    rows = S.table
    w = max(1, (n - 1).bit_length())  # memo-key field width: indices < n
    w2 = 2 * w
    U = units_of(S)
    floor = sum(d - 1 for d in U.invariant_factors) - 1  # D*(U) - 2
    e = _nilpotency_index(S)
    unit_mask = split = 0  # with no e the split bound is off: its test never fires
    if e is not None:
        unit_mask = sum(1 << u for u in U.elements)
        split = n - U.order - (e - 1)  # |N| - (e - 1)
    # every automorphism fixes the identity, so the root keeps all the masks
    root_sym = _fixing(_symmetry_masks(automorphisms(S, budget.expired)), 1 << S.identity)

    memo: dict[int, int] = {}  # packed state -> ub
    nodes = 0
    best_len = 0
    best_path: tuple[int, ...] = ()
    cut = max(best_len, floor)  # what cuts and memo hits must beat
    path: list[int] = []

    def explore(sig: int, rp: int, min_elem: int, depth: int, sym) -> int:
        nonlocal nodes, best_len, best_path, cut
        key = (rp << w2) | (sig << w) | min_elem
        ub = memo.get(key)
        if ub is not None and depth + ub <= cut:
            return ub
        nodes += 1
        if nodes & 0x3FF == 1 and budget.expired():
            raise _OutOfBudget
        r_all = rp | (1 << sig)
        bound = (ideal[sig] & ~r_all).bit_count()
        if (unit_mask >> sig) & 1 and rp:
            bound -= split
        if depth + bound <= cut:
            memo[key] = bound
            return bound
        best_ub = 0
        row = rows[sig]
        if r_all & ~sym[1]:  # some entry no longer fixes every product
            sym = _fixing(sym[0], r_all)
        down = sym[2]  # the terms an automorphism fixing r_all moves down
        for x in range(min_elem, n):
            if down >> x & 1:
                continue
            new_sig = row[x]
            if (r_all >> new_sig) & 1 or rp & fiber[x][new_sig]:
                continue
            acc = 0
            m = rp
            ci = 0
            chunks = translate[x]
            while m:
                acc |= chunks[ci][m & 255]
                m >>= 8
                ci += 1
            new_rp = r_all | acc
            if depth + 1 > best_len:
                best_len = depth + 1
                best_path = tuple(path) + (x,)
                cut = max(cut, best_len)
            path.append(x)
            ub = 1 + explore(new_sig, new_rp, x, depth + 1, sym)
            path.pop()
            if ub > best_ub:
                best_ub = ub
        memo[key] = best_ub
        return best_ub

    complete = True
    try:
        explore(S.identity, 0, 0, 0, root_sym)
    except _OutOfBudget:
        complete = False
    finally:
        # explore's closure refers to itself; rebinding it breaks that
        # cycle, so the memo and the tables go by refcount on return
        explore = None
    if complete and best_len <= floor:
        raise AssertionError(
            f"complete search found {best_len} terms, not above the floor {floor}"
        )
    witness = Sequence.from_indices(S, best_path)
    _check_witness(witness)
    return DavenportResult(
        value=1 + best_len,
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


def random_sequence(S: FiniteSemigroup, length: int, rng: random.Random) -> Sequence:
    """Uniformly random multiset of the given length over the universe.

    Stars and bars: the i-th smallest of ``length`` distinct picks from
    ``range(size + length - 1)``, minus i, is the i-th term. The shift is a
    bijection from subsets onto multisets, so uniform subsets give uniform
    multisets.
    """
    picks = sorted(rng.sample(range(S.size + length - 1), length))
    return Sequence.from_indices(S, (c - i for i, c in enumerate(picks)))


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
    S: FiniteSemigroup,
    d: int,
    samples: int = 10_000,
    seed: int = 0,
    *,
    budget: Optional[Budget] = None,
) -> MonteCarloReport:
    """Sample length-d sequences; any irreducible one disproves D(S) <= d.

    Sampling is uniform over multisets (``random_sequence``) with a seeded
    generator, so reports are reproducible. The clock of ``budget``
    (default: none) is read before each sample; once it has run out the
    report stops with ``checked < samples``.
    """
    if d < 1:
        raise ValueError("sequence length must be >= 1")
    if budget is None:
        budget = Budget(None)
    rng = random.Random(seed)
    reducible = 0
    checked = 0
    for _ in range(samples):
        if budget.expired():
            break
        T = random_sequence(S, d, rng)
        checked += 1
        if is_reducible(T):
            reducible += 1
        else:
            return MonteCarloReport(d, samples, checked, reducible, T, seed)
    return MonteCarloReport(d, samples, checked, reducible, None, seed)
