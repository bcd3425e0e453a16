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
from dataclasses import dataclass, field
from operator import sub
from typing import Iterable, Optional, Union

from .gfpoly import prime_factors
from .semigroup import FiniteSemigroup, automorphisms, group_structure, units_of


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


def _dp_layers(S: FiniteSemigroup, pairs, stop=None):
    """Forward pass of the layered DP over distinct elements, given as
    (index, positive count) pairs; it ends after the first layer whose
    partial products hold ``stop``, if one does.

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
        if stop in parts:
            break
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

    Why the forward pass may stop at the first layer k* whose partial
    products hold the target: layer k re-inserts each partial product of
    layer k-1 (times x^0), so the partial sets only grow with k. Walking
    back from the last layer, ``t in prev`` therefore skips down to exactly
    k*, and from there the walk reads only layers up to k*. The full
    selection is read only when no layer holds the target, and then every
    layer is built.
    """
    if proper and target == S.identity:
        return {}
    layers = _dp_layers(S, pairs, stop=target)
    parts, full, _ = layers[-1]
    if target not in parts:
        return dict(pairs) if not proper and pairs and full == target else None
    rows = S.table
    counts: dict[int, int] = {}
    t = target
    for k in range(len(layers) - 1, 1, -1):
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


# the positions of the set bits of each byte, in increasing order
_BIT_POSITIONS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _translate_row(images: list[int]) -> list[list[int]]:
    """The map r -> images[r] on bitmasks, chunkwise: one table per
    8-element chunk of the universe, indexed by that chunk's bits of a mask
    R and holding {images[r] : r in R} for those bits. Each chunk is built
    by doubling, so a chunk of w elements has 2^w entries. On Cayley row x
    it is translate row x, R -> R x (row x is column x too, as the table is
    filled symmetrically)."""
    bits = [1 << t for t in images]
    chunks = []
    for base in range(0, len(bits), 8):
        tab = [0]
        for b in bits[base:base + 8]:
            tab += [t | b for t in tab]
        chunks.append(tab)
    return chunks


def _shift_moves(coord: list[int], axes) -> list[tuple]:
    """Translation by x on masks in coordinates: per element x, the
    ``(lo, up, hi, dn)`` of each axis x moves, so that R -> R x is
    ``t = ((t & lo) << up) | ((t & hi) >> dn)`` over those axes. Moving
    axis i (stride s, order d) by a > 0 sends a component below d - a up
    by a s and the rest down by (d - a) s; lo holds the elements with a
    component below d - a, the low (d - a) s bits of each block of d s.
    One ``(lo, up, hi, dn)`` per (axis, shift), O(n sum d_i) in all."""
    full = (1 << len(coord)) - 1
    per_axis = []
    for stride, d in axes:
        repeat = full // ((1 << stride * d) - 1)  # bit 0 of each block
        shifts = [()]
        for a in range(1, d):
            lo = ((1 << (d - a) * stride) - 1) * repeat
            shifts.append((lo, a * stride, full ^ lo, (d - a) * stride))
        per_axis.append(shifts)
    return [
        tuple(shifts[c // stride % d] for (stride, d), shifts in zip(axes, per_axis)
              if c // stride % d)
        for c in coord
    ]


def _inverse_chunks(coord: list[int], axes) -> list[list[int]]:
    """x -> x^-1 chunkwise, as ``_translate_row`` lays it out, from
    coordinates to labels: it maps a mask R in coordinates to the mask of
    the labels of R^-1. Inversion negates each component, mod its order."""
    n = len(coord)
    elems = sorted(range(n), key=coord.__getitem__)  # elems[c]: label at c
    return _translate_row([elems[sum(-(c // s) % d * s for s, d in axes)] for c in range(n)])


def _shifted(t: int, moves) -> int:
    """The coordinate mask t translated by an element with these moves."""
    for lo, up, hi, dn in moves:
        t = ((t & lo) << up) | ((t & hi) >> dn)
    return t


def _ideal_row(row: list[int]) -> int:
    """The principal ideal s S^1 as a bitmask, from Cayley row s: the set
    of the row, which holds s itself in a monoid."""
    mask = 0
    for t in set(row):
        mask |= 1 << t
    return mask


def _fiber_row(row: list[int]) -> list[int]:
    """Fiber row x from Cayley row x: entry t is the bitmask of the r with
    r x = t."""
    col = [0] * len(row)
    for r, t in enumerate(row):
        col[t] |= 1 << r
    return col


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


def _relabelled(mask: int, coord: list[int]) -> int:
    """The mask with each element y moved to bit coord[y]."""
    out = 0
    for k, byte in enumerate(mask.to_bytes((len(coord) + 7) // 8, "little")):
        for y in _BIT_POSITIONS[byte]:
            out |= 1 << coord[8 * k + y]
    return out


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
    nodes: int
    millis: int
    complete: bool
    units: Optional[DavenportResult] = field(default=None, repr=False, compare=False)

    def to_record(self) -> dict:
        return {
            "value": self.value,
            "method": "exact_dfs",  # the only method; kept so records stay the same
            "witness": self.witness.format() if self.witness is not None else None,
            "nodes": self.nodes,
            "millis": None,  # byte-identical records; wall time is text-mode only
            "complete": self.complete,
        }

    def summary(self) -> str:
        state = "exact" if self.complete else "lower bound (budget exhausted)"
        w = self.witness.format() if self.witness is not None else "-"
        return (
            f"D = {self.value} [{state}] method=exact_dfs "
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

    def elapsed_ms(self) -> int:
        return int((time.monotonic() - self.start) * 1000)


class _OutOfBudget(Exception):
    pass


class _Reached(Exception):
    pass


def davenport_exact(
    S: FiniteSemigroup, budget_ms: Union[Budget, int, None] = None
) -> DavenportResult:
    """Exact D(S) by branch-and-bound over canonical multisets.

    Sequences are generated with non-decreasing element indices; only
    irreducible prefixes are extended, and search states that coincide in
    (product s, set r_all of the products of all sub-multisets) share one
    memo entry, whose key packs s into a field of ``(n - 1).bit_length()``
    bits below r_all. The entry stores the minimum next index it was written
    at beside its bound and serves that index and every later one (Memo
    dominance in ``_branch_and_bound``). A group run holds the product at
    the identity, so its key is the subsum set alone, see Group key.
    ``budget_ms`` is the caller's ``Budget`` or, as milliseconds (None:
    unbounded), a fresh one. It covers every run below, building their
    tables included, and ``millis`` is its elapsed time. A run builds its
    tables at its root, except the translate rows, each built when it is
    first read. Every state it enters and does not end at a memo hit is a
    node, a child cut by the bound included. It reads the clock on its first
    node, before any row is built, and then every 1024 nodes, so a spent
    budget explores exactly one node and builds no row. On budget exhaustion
    the result downgrades to the longest sequence found so far, an explicit
    lower bound with ``complete=False``. ``nodes`` is the sum over the runs
    of the call.

    Split at the unit group. A group is searched whole, by one run with the
    floor of its coordinates (below). Otherwise let U be the unit group and
    N the non-units. A sequence of units is irreducible over S exactly when it is
    irreducible over U, its sub-multisets having the same products in
    both; every other sequence has a non-unit term (it is mixed). So
    D(S) - 1 = max(D(U) - 1, L_N), L_N the length of the longest
    irreducible mixed sequence, and these runs share the budget:

    1. U, as the group ``units_of(S).as_semigroup()``: D(U) and its
       lexicographically first longest sequence W_U;
    2. one group run per isomorphism type of the class groups (below),
       each with the floor of its coordinates, which give the class bound
       B >= L_N. A class group with U's invariant factors takes D(U) from
       run 1;
    3. unless B <= D(U) - 2, one run over S with the floor D(U) - 2, which
       run 1 certifies, ended, complete, at its first sequence of B terms.

    If B <= D(U) - 2, every longest sequence over S consists of units, and
    W_U mapped through ``U.elements`` (a sorted tuple, so the map keeps the
    order) is S's lexicographically first longest sequence. Otherwise
    D(S) - 1 <= max(D(U) - 1, B) = B, so reaching B terms proves
    L = D(S) - 1 = B. The floor lies below L, so by Pruning floor (below)
    run 3 reaches the sequences of L terms in the order of the run over S
    without the floor, whose incumbent ends at the first of them (Ideal
    bound). Either way the value and the witness are those of one run over
    all of S. A run cut short by the budget ends the call with the longest
    sequence the runs have witnessed, mapped into S; a cut U run ends it
    before the class groups are built or S's automorphisms listed. A cut
    class-group run leaves B unknown, and run 3 then runs without a stop.
    The result keeps run 1's own result, its witness re-checked, as
    ``units``: ``units.nodes`` counts run 1 alone, ``nodes`` every run.
    ``units`` is None for a group, whose one run is the whole search.

    Class bound. Let H be an H-class of S: the elements with one principal
    ideal s S^1, the set of row s of the table. The classes are ordered by
    inclusion of their ideals; the units form the top class, whose ideal
    is S. c(H) is the number of steps of the longest chain of classes from
    the units down to H. In a finite commutative monoid, s y in the class
    of s makes x -> x y a bijection of that class (Green's lemma). So,
    with s0 fixed in H and some y(h) with s0 y(h) = h for each h in H,
    h1 * h2 = h1 y(h2) is an abelian group on H with identity s0, its
    Schützenberger group Gamma_H (Howie, *Fundamentals of Semigroup
    Theory*, 1995). Claim: an irreducible T with product in H has
    |T| <= c(H) + D(Gamma_H) - 1. Proof sketch:

    * take terms of T into V, one at a time, each moving the product of V
      into a strictly smaller ideal, while one does. When none does, each
      remaining term maps the class of sigma(V) onto itself, so sigma(T)
      lies in that class and it is H. The classes of the products of V's
      prefixes form a chain from the units down to H, so |V| <= c(H);
    * every other term t has sigma(V) t in H, so x -> x t maps H onto
      itself and acts there as the element s0 t of Gamma_H:
      h t = s0 t y(h) = h * (s0 t);
    * if |T| - |V| >= D(Gamma_H), those elements have a nonempty zero-sum
      subsequence: a nonempty Z outside V with s0 sigma(Z) = s0, so
      sigma(Z) fixes every element of H. T minus Z contains V, so its
      product lies in H, and sigma(T) = sigma(T minus Z) sigma(Z) =
      sigma(T minus Z): T is reducible.

    A mixed sequence has a non-unit product, so
    L_N <= B = max over the non-unit classes H of c(H) + D(Gamma_H) - 1.
    Each D(Gamma_H) comes from a complete group run, never a closed form;
    isomorphic groups have equal invariant factors and equal D. For
    F_p[x]/<f> with f squarefree the classes are the zero patterns of the
    CRT coordinates, and this is the paper's argument.

    ``best_len`` is the length of the longest irreducible sequence a run has
    found so far (the incumbent). A state's memo entry is one int packing a
    bound ``ub`` and the minimum next index m it was written at: a cut
    state stores its bound, an explored one the largest ``1 + ub`` over its
    children (0 when none). By induction on the order in which entries are
    written, ``ub`` bounds the number of terms any irreducible extension of
    the state with minimum next index m can add: a cut bound does (below),
    and each extension starts with a child whose returned value bounds the
    rest. By Memo dominance it bounds a state with the same key and a
    minimum next index of m or more too. Symmetry skipping depends only on
    the key, so the bound holds in the skipped family too. A hit is used
    when its m is at most the state's minimum next index and
    ``depth + ub <= cut`` (``cut`` below): nothing longer than the
    incumbent lies below, so it is skipped for the same reason a cut is.
    Otherwise the state is explored again and its entry overwritten. A
    state re-explored at the entry's own m whose ``ub`` was already exact
    finds a sequence longer than the incumbent, so those re-explorations
    cost at most ``D(S) - 1 - floor`` extra chains per run (floor below);
    an entry written at a smaller m can be looser than the state's own
    bound, and one written at a larger m is not used.

    Ideal bound. Let T have product s and sub-multiset products r_all (the
    empty product and s included), and let T y_1 ... y_k be irreducible.
    Irreducible sequences are downward closed, so every T y_1 ... y_i is
    irreducible. Hence the products s y_1 ... y_i (1 <= i <= k) are pairwise
    distinct and avoid r_all: an equality would give a prefix a proper
    sub-multiset with its own product. They all lie in the principal ideal
    s S^1, so k <= |s S^1 minus r_all|. A state whose bound cannot lift
    ``depth`` past ``best_len`` is stored with that bound and not expanded.
    Every cut branch and every used memo hit is thus no longer than the
    incumbent, so after a complete run without a floor ``best_len`` is the
    longest length. The incumbent only grows by a sequence the run has just
    reached, term by term; the run visits the multisets in lexicographic
    order and only a strictly longer sequence replaces the incumbent, so the
    witness is the lexicographically first longest irreducible sequence.

    Child test. A state carries r_all alone. Its proper products are
    rp = r_all minus s, since an irreducible T has no proper sub-multiset
    with product s. Appending x to T gives product s x, proper products
    r_all ∪ rp x, and r_all' = r_all ∪ r_all x: a sub-multiset of T x is
    one of T, with or without x. T x is reducible iff s x lies in its
    proper products, that is iff s x lies in r_all, or r x = s x for some
    r in rp, that is iff rp meets fiber[x][s x], where fiber[x][t] is the
    preimage of t under r -> r x. Both checks are O(1) mask tests, so
    r_all' is built only for the children that pass. The test is an
    equivalence, not a prune: the search tree, node counts, memo and
    witness are those of testing s x against the proper products
    themselves.

    Group key. In a group, T is irreducible iff it is zero-sum free: a
    proper T' has the product of T iff the nonempty rest has product e
    (Gao & Geroldinger, *Zero-sum problems in finite abelian groups: a
    survey*, Expo. Math. 2006). Then r_all = rp ∪ {s} holds the products
    of all sub-multisets of T, r_all = {e} ∪ Σ(T), and everything a run
    reads at a state is a function of r_all and the minimum next index:

    * the child test: T x is zero-sum free iff no sub-multiset Z of T, the
      empty one included, has σ(Z) x = e, that is iff x^-1 is not in
      r_all. So the children are one mask: the terms from the minimum
      next index on, minus those an automorphism fixing r_all moves down
      (Symmetry, below), minus r_all^-1, read through one chunk table of
      the inversion map; a blocked term costs no loop step;
    * the new set: r_all' = r_all ∪ r_all x (Child test), a shift of
      r_all per axis of the group's cyclic coordinates (Coordinates in
      ``_branch_and_bound``);
    * the bound: s S^1 is the whole group, so it is n - |r_all|;
    * the symmetry rule reads r_all alone.

    So two states with one r_all and one minimum next index have the same
    subtree, and by Memo dominance one entry bounds every state with that
    r_all and that index or a later one. ``_group_run`` runs the kernel
    with the product held at the identity, so the key is r_all alone,
    beside the identity's product field (r_all in coordinates, a
    relabelling that is one-to-one on keys).
    The run is the branch-and-bound above with more states merged: each
    memo entry is still a bound, so the value and the witness are those of
    the product-keyed run.

    Pruning floor. Cuts and memo hits compare against
    ``cut = max(best_len, floor)``, not ``best_len``. A cut branch holds no
    sequence longer than ``cut``, and ``best_len`` records only sequences
    the run has reached, so with L the longest length of the run's family,
    a complete run ends with L <= max(best_len, floor), and with
    best_len = L when best_len > floor. Until the incumbent reaches L, the
    branch holding the lexicographically first sequence of length L is cut
    only if floor >= L; so when floor < L that sequence is still found
    first, and the value and the witness are those of the run without the
    floor. The floor never enters the result: ``best_len`` and the
    incumbent's path still record every longer prefix, so a capped run
    reports a witnessed lower bound. The floors are:

    * for a group U (S itself, its unit group or a class group),
      floor = D*(U) - 2, where D*(U) = 1 + sum(d_i - 1) over the orders
      d_i of the axes of U's coordinates (``group_structure``),
      U = C_d1 ⊕ ... ⊕ C_dk. D*(U) <= D(U) = L + 1, so floor < L;
    * for run 3 over S, D(U) - 2: W_U is irreducible over S, so
      L >= D(U) - 1.

    A complete run ending with best_len > floor proves floor < L whatever
    the coordinates or run 1 say, and one ending at or below its floor
    raises ``AssertionError``.

    Symmetry. Let A be the automorphisms of the run's semigroup that
    ``automorphisms`` returns (all of them or, past its work cap or the
    budget, a subset).
    A state skips a term y when some phi in A fixes every element of its
    r_all and has phi(y) < y. An automorphism maps an irreducible
    sequence to an irreducible one of the same length, since it carries
    the sub-multisets of T and their products onto those of phi(T).

    * The skipped terms depend only on the memo key. Each term of T is
      the product of a one-term sub-multiset, so it lies in r_all. So a
      phi fixing r_all fixes every term of every path to the key.
    * W is never skipped. Let W = w1 <= w2 <= ... be the lexicographically
      first longest irreducible sequence over the run's semigroup, and
      w1..wk its prefix at some state. Suppose phi fixes r_all, hence
      w1..wk, and phi(w_k+1) < w_k+1. No wi equals w_k+1, as phi fixes wi, so W has
      exactly k terms below w_k+1, while phi(W) holds w1..wk and
      phi(w_k+1). So sorted phi(W) is lexicographically smaller than W,
      and it is irreducible and as long: a contradiction.

    A run is therefore the branch-and-bound above over the family of
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
    budget = budget_ms if isinstance(budget_ms, Budget) else Budget(budget_ms)
    U = units_of(S)
    G = U.as_semigroup()
    path, nodes, complete = _group_run(G, U.coordinates, budget)
    units = None if G is S else _result(G, path, nodes, complete, budget)
    unit_path = tuple(U.elements[i] for i in path)  # the same path when G is S
    if G is S or not complete:
        return _result(S, unit_path, nodes, complete, budget, units)
    bound, more = _class_bound(S, U, len(unit_path) + 1, budget)
    nodes += more
    if bound is not None and bound <= len(unit_path) - 1:  # B <= D(U) - 2
        return _result(S, unit_path, nodes, True, budget, units)
    path, more, complete = _checked_run(
        S.table, S.identity, automorphisms(S, budget.expired), budget,
        len(unit_path) - 1, stop_at=bound,  # floor D(U) - 2
    )
    nodes += more
    if not complete:
        path = max(unit_path, path, key=len)
    return _result(S, path, nodes, complete, budget, units)


def _group_run(G: FiniteSemigroup, coordinates, budget: Budget):
    """The run over a group G with these coordinates (``group_structure``),
    floored at D*(G) - 2 from their axes: ``(path, nodes, complete)``."""
    floor = sum(d - 1 for _, d in coordinates[1]) - 1
    return _checked_run(
        G.table, G.identity, automorphisms(G, budget.expired), budget, floor,
        coordinates=coordinates,
    )


def _checked_run(rows, identity, maps, budget: Budget, floor: int, **kwargs):
    """``_branch_and_bound`` for a floor known to lie below the run's
    longest length: a complete run that ends at or below it raises
    ``AssertionError`` (Pruning floor in ``davenport_exact``)."""
    path, nodes, complete = _branch_and_bound(rows, identity, maps, budget, floor, **kwargs)
    if complete and len(path) <= floor:
        raise AssertionError(
            f"complete search found {len(path)} terms, not above the floor {floor}"
        )
    return path, nodes, complete


def _class_bound(S, U, d_units: int, budget: Budget) -> tuple[Optional[int], int]:
    """``(B, nodes)``: the class bound of S, whose unit group U has
    D(U) = ``d_units``, and the nodes of its class-group runs. B is None
    when one of those runs is cut by the budget."""
    rows = S.table
    classes: dict[int, list[int]] = {}  # principal ideal mask -> its H-class
    for s, row in enumerate(rows):
        classes.setdefault(_ideal_row(row), []).append(s)
    # a strictly larger ideal has more elements, so it comes first
    ideals = sorted(classes, key=lambda m: -m.bit_count())
    chain = {ideals[0]: 0}  # the units' ideal is S
    d_of = {U.invariant_factors: d_units}
    nodes = 0
    bound = 0
    for m in ideals[1:]:
        chain[m] = 1 + max(c for a, c in chain.items() if not m & ~a)
        H = classes[m]
        s0 = H[0]
        y = {}  # y[h]: some y with s0 y = h
        for x, h in enumerate(rows[s0]):
            y.setdefault(h, x)
        pos = {h: k for k, h in enumerate(H)}
        gamma = FiniteSemigroup(
            "abelian_group",
            [S.values[h] for h in H],
            [[pos[rows[h1][y[h2]]] for h2 in H] for h1 in H],
            identity_value=S.values[s0],
        )
        invariants, coordinates = group_structure(gamma)
        if invariants not in d_of:
            path, more, complete = _group_run(gamma, coordinates, budget)
            nodes += more
            if not complete:
                return None, nodes
            d_of[invariants] = len(path) + 1
        bound = max(bound, chain[m] + d_of[invariants] - 1)
    return bound, nodes


def _branch_and_bound(
    rows: list[list[int]],
    identity: int,
    maps: list[tuple[int, ...]],
    budget: Budget,
    floor: int,
    first_stop: Optional[int] = None,
    stop_at: Optional[int] = None,
    coordinates=None,
) -> tuple[tuple[int, ...], int, bool]:
    """One search run as ``davenport_exact`` describes it: the Cayley rows, the
    identity, the automorphisms as index maps and the pruning floor give
    ``(path, nodes, complete)``, path the incumbent's indices. The run ends,
    complete, at the first sequence of ``stop_at`` terms. Only a term below
    ``first_stop`` (default: any) may be the first; this serves the L_N
    reference of ``scripts/class_bound_sweep.py``, and it acts only at the
    root, whose key no other state has (below the root r_all holds the empty
    product and a product other than it), so every memo entry stays valid.
    ``coordinates``, the rows' coordinates (``group_structure``) when they
    are a group's, makes it a group run: it keys its states by the subsum
    set alone (Group key in ``davenport_exact``).

    Memo dominance. A state is (s, r_all, m): its product, the products of
    its sub-multisets and its minimum next index. Its key is
    ``(r_all << w) | s``, w the bits of an index, in both modes; a group
    run's s is the identity. On an irreducible state s lies in r_all and not
    in its proper products (Child test), so this key is one-to-one with (s,
    proper products). Its entry is ``(ub << w) | m``, ub a bound on the
    terms its extensions can add. The child test, the symmetry skip and the
    ideal bound read only s, r_all and the terms appended, never m, and m
    only removes the terms below it from the first step. So for m <= m' the
    extensions of (s, r_all, m') are among those of (s, r_all, m), and a
    bound for the second holds for the first. A child x, whose minimum next
    index is x, uses an entry only when its stored m <= x (and
    ``depth + ub <= cut``); otherwise it is explored and the entry
    overwritten with its own bound and x, which by the same rule is a bound
    for every index from x on. This is dominance, not an order-free key: an
    entry written at m > x knows nothing of the extensions that start with a
    term in [x, m), and is not used for x.

    Coordinates. A group run holds r_all, and so the memo key and the
    symmetry entries' fixed masks, in the mixed-radix coordinates it is
    given, G = C_d1 ⊕ ... ⊕ C_dk; the fixed masks are
    relabelled once, at the root. There R -> R x is one rotation per axis
    that x moves (``_shift_moves``, ``_shifted``), a fixed number of
    big-int operations with no table. The terms keep their labels: the
    children mask, the root's terms, the down masks and the path. The
    relabelling is one-to-one on keys and keeps |r_all|, and the fixed
    masks move with r_all, so every test reads the same answer as on the
    labels: the visit order, the nodes and the witness are unchanged.

    Tables. Both kinds of run build the child's set as r_all ∪ r_all x. A
    run over S builds, before the root's first expansion (after its clock
    read, so a spent budget builds nothing), the fiber row (``_fiber_row``)
    and the ideal (``_ideal_row``) of every element, and each translate row
    x (``_translate_row``), the chunk table of R -> R x over r_all's bytes,
    when a child x first passes the child test. A group run builds at the
    same point its shift masks and one chunk table, the inverse test
    (``_inverse_chunks``); it builds no translate, fiber or ideal row, its
    one ideal being the whole group. The run enters each child in its
    parent's loop: a usable memo hit or a cut by the bound ends the child
    there, and only a child left to expand costs a call of ``explore``. The
    tables, the memo and ``explore`` itself go by refcount on return."""
    n = len(rows)
    group = coordinates is not None
    # built at the root: ideal[s] (s S^1) and fiber[x] (t -> {r : r x = t});
    # a group run's shift moves and inverse test. translate[x] (R -> R x,
    # chunkwise) is built on first use
    translate: list = [None] * n
    ideal: list = []
    fiber: list = []
    moves: list = []
    inverse: list = []
    full = (1 << n) - 1
    width = (n + 7) // 8  # bytes per mask
    first = (1 << (n if first_stop is None else first_stop)) - 1  # root's terms
    w = max(1, (n - 1).bit_length())  # field width: indices < n
    low = (1 << w) - 1
    # every automorphism fixes the identity, so the root keeps all the masks
    root_sym = _fixing(_symmetry_masks(maps), 1 << identity)

    memo: dict[int, int] = {}  # (r_all << w) | sig -> (ub << w) | min_elem
    nodes = 1  # the root
    best_len = 0
    best_path: tuple[int, ...] = ()
    cut = max(best_len, floor)  # what cuts and memo hits must beat
    path: list[int] = []

    def explore(sig: int, r_all: int, min_elem: int, depth: int, sym) -> int:
        # a state the caller has counted and its bound has not cut
        nonlocal nodes, best_len, best_path, cut
        best_ub = 0
        if r_all & ~sym[1]:  # some entry no longer fixes every product
            sym = _fixing(sym[0], r_all)
        # the terms from min_elem on that no automorphism fixing r_all
        # moves down
        kids = ((full >> min_elem << min_elem) if depth else first) & ~sym[2]
        r_bytes = r_all.to_bytes(width, "little")
        if group:  # x is a child iff x^-1 is not in r_all
            blocked = 0
            for chunk, byte in zip(inverse, r_bytes):
                blocked |= chunk[byte]
            kids &= ~blocked
        else:
            row = rows[sig]
            rp = r_all ^ (1 << sig)  # the proper products
        depth += 1  # the children's
        base = min_elem & ~7
        kids >>= base
        while kids:
            for x in _BIT_POSITIONS[kids & 255]:
                x += base
                if group:
                    new_sig = sig
                    new_all = r_all | _shifted(r_all, moves[x])
                else:
                    new_sig = row[x]
                    if (r_all >> new_sig) & 1 or rp & fiber[x][new_sig]:
                        continue
                    chunks = translate[x]
                    if chunks is None:
                        chunks = translate[x] = _translate_row(rows[x])
                    new_all = r_all
                    for chunk, byte in zip(chunks, r_bytes):
                        new_all |= chunk[byte]
                if depth > best_len:
                    best_len = depth
                    best_path = tuple(path) + (x,)
                    cut = max(cut, best_len)
                    if best_len == stop_at:
                        raise _Reached
                # enter the child: a memo hit written at a minimum next
                # index <= x, or a cut, ends it here
                key = (new_all << w) | new_sig
                ub = memo.get(key)
                if ub is not None and (ub & low) <= x and depth + (ub >> w) <= cut:
                    ub >>= w
                else:
                    nodes += 1
                    if nodes & 0x3FF == 1 and budget.expired():
                        raise _OutOfBudget
                    ub = (ideal[new_sig] & ~new_all).bit_count()
                    if depth + ub > cut:
                        path.append(x)
                        ub = explore(new_sig, new_all, x, depth, sym)
                        path.pop()
                    memo[key] = (ub << w) | x
                if ub >= best_ub:
                    best_ub = ub + 1
            kids >>= 8
            base += 8
        return best_ub

    complete = True
    try:
        # the root, node 1: a group run holds the product at the identity,
        # coordinate 0, and r_all in coordinates, so its key and its tables
        # read the subsum set alone. Its bound is n - 1, its ideal being S
        if budget.expired():
            raise _OutOfBudget
        if n - 1 > cut:
            if group:
                coord, axes = coordinates
                moves = _shift_moves(coord, axes)
                inverse = _inverse_chunks(coord, axes)
                ideal = [full]  # the identity's coordinate, and its ideal G
                entries = [(_relabelled(f, coord), d) for f, d in root_sym[0]]
                explore(0, 1, 0, 0, _fixing(entries, 1))
            else:
                ideal = [_ideal_row(row) for row in rows]
                fiber = [_fiber_row(row) for row in rows]
                explore(identity, 1 << identity, 0, 0, root_sym)
    except _OutOfBudget:
        complete = False
    except _Reached:
        pass
    finally:
        # explore's closure refers to itself; rebinding it breaks that
        # cycle, so the memo and the tables go by refcount on return
        explore = None
    return best_path, nodes, complete


def _result(S, indices, nodes: int, complete: bool, budget: Budget,
            units=None) -> DavenportResult:
    witness = Sequence.from_indices(S, indices)
    _check_witness(witness)
    return DavenportResult(
        value=1 + len(witness),
        witness=witness,
        nodes=nodes,
        millis=budget.elapsed_ms(),
        complete=complete,
        units=units,
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
    """Uniformly random multiset of the given length over the universe."""
    return Sequence.from_indices(S, _draw(S.size, length, rng)())


def _draw(size: int, length: int, rng: random.Random):
    """Draw a uniform multiset of ``length`` indices below ``size``.

    Stars and bars: the i-th smallest of ``length`` distinct picks from
    ``range(size + length - 1)``, minus i, is the i-th term. The shift is a
    bijection from subsets onto multisets, so uniform subsets give uniform
    multisets. Returns a function that gives a fresh iterator over the
    sorted terms on each call, so a caller can fold them and still rebuild
    them afterwards without storing a shifted copy. Only ``rng.sample`` is
    called.
    """
    picks = sorted(rng.sample(range(size + length - 1), length))
    return lambda: map(sub, picks, range(length))


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
) -> MonteCarloReport:
    """Sample length-d sequences; any irreducible one disproves D(S) <= d.

    Sampling is uniform over multisets: the draws are exactly those of
    ``random_sequence`` for the same generator, so reports are reproducible
    from ``seed``. Each draw is folded through the Cayley rows as
    ``is_reducible`` does, without building a ``Sequence``; one is built
    only for the counterexample, and for each draw over a semigroup
    without an identity, which ``find_reduction`` decides.
    """
    if d < 1:
        raise ValueError("sequence length must be >= 1")
    if samples < 0:
        raise ValueError("sample count must be >= 0")
    rng = random.Random(seed)
    for checked in range(1, samples + 1):
        terms = _draw(S.size, d, rng)
        if S.identity is None:
            reduces = find_reduction(Sequence.from_indices(S, terms())) is not None
        else:
            reduces = _reducible_incremental(S, terms())
        if not reduces:
            T = Sequence.from_indices(S, terms())
            return MonteCarloReport(d, samples, checked, checked - 1, T, seed)
    return MonteCarloReport(d, samples, samples, samples, None, seed)
