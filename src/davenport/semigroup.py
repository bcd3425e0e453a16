"""Finite commutative semigroup models.

Four kinds are built here, all sharing one representation:

* ``quotient`` — the multiplicative semigroup of F_p[x]/<f(x)>, elements
  are canonical residues enumerated by little-endian coefficient counting;
* ``cyclic_with_zero`` — a cyclic group of order n written g^0..g^(n-1)
  plus one absorbing element ``inf``;
* ``abelian_group`` — products of cyclic groups, written additively on
  exponent vectors;
* ``product`` — componentwise products of any of the above.

A semigroup owns a deterministic, indexed universe of at most
``TABLE_CAP`` elements, and every product is read from its full Cayley
table. Each builder fills that table in index space, without multiplying
element values: a quotient builds the rows of a small generating set as
F_p-linear combinations of the row of ``x`` and composes every other row
from them, cyclic rows add exponents mod n, and derived semigroups (unit
groups, products) read their tables from their parents'. Every semigroup
validates its own table, proving associativity from the rows of a
generating set read off the table. Each builder rejects a larger universe
with ``ValueError`` before enumerating it. Instances are immutable after
construction, so they can be shared freely.

The semigroup operation is written multiplicatively throughout (``op``,
on indices), matching ring multiplication in the quotient case; for the
adjoined-zero and group kinds "multiplying" g^i and g^j adds exponents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd, prod
from typing import Callable, Optional, Sequence as Seq

from .gfpoly import (
    Factorization,
    Poly,
    factor,
    monic_polys,
    prime_factors,
    validate_prime,
)

TABLE_CAP = 256
ASSOC_EXHAUSTIVE_CAP = 64
ASSOC_SPOT_SAMPLES = 10_000


class HypothesisViolation(ValueError):
    """An operation was asked to assume structure the input does not have."""


def _check_universe_size(size: int) -> None:
    """Reject a universe too large for a Cayley table, before it is built."""
    if size > TABLE_CAP:
        raise ValueError(f"universe of {size} elements exceeds the cap of {TABLE_CAP}")


def _generators(rows: list, generator_row=None) -> list[int]:
    """The greedy generating set A of a Cayley table, in index order.

    An element joins A when no product of the earlier members reaches it.
    The elements reached so far are closed under right products with A:
    each newly reached element meets every member, and an older one only
    the new member. So a table costs n·|A| lookups.

    With ``generator_row`` the rows are built here, starting from None:
    ``generator_row(a)`` gives each member's row, from rows of smaller
    indices, and a product v = u g of a reached u and a member g gets
    row(g) o row(u). That is its row in a commutative semigroup, since
    (u g) b = g (u b).
    """
    n = len(rows)
    reached = [False] * n
    gens: list[int] = []
    trail: list[int] = []
    for a in range(n):
        if reached[a]:
            continue
        if generator_row is not None:
            rows[a] = generator_row(a)
        reached[a] = True
        gens.append(a)
        old = len(trail)
        trail.append(a)
        i = 0
        while i < len(trail):
            u = trail[i]
            ru = rows[u]
            for g in gens if i >= old else (a,):
                v = ru[g]
                if not reached[v]:
                    reached[v] = True
                    trail.append(v)
                    if generator_row is not None:
                        rows[v] = list(map(rows[g].__getitem__, ru))
            i += 1
    return gens


class _Infinity:
    """Singleton printed as ``inf``: the absorbing element's value tag."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


class FiniteSemigroup:
    """Indexed finite commutative semigroup with optional identity/zero.

    ``table`` is the filled Cayley table over indices into ``values``: a
    list of n lists of n indices, with ``table[i][j]`` the index of the
    product of elements i and j. The constructor keeps it and checks it:
    a nonempty universe, shape, entry range, symmetry (the search reads
    row x as column x), associativity (by Light's test up to
    ``ASSOC_EXHAUSTIVE_CAP`` elements), and that the claimed identity and
    zero are elements that act as such. A failed check raises
    ``ValueError``.
    """

    def __init__(
        self,
        kind: str,
        values: list,
        table: list[list[int]],
        identity_value=None,
        zero_value=None,
        params: Optional[dict] = None,
        factors: Optional[list["FiniteSemigroup"]] = None,
    ):
        self.kind = kind
        self.values = list(values)
        self.size = len(self.values)
        self.index_of = {v: i for i, v in enumerate(self.values)}
        if len(self.index_of) != self.size:
            raise ValueError("universe contains duplicate elements")
        if not self.size:
            raise ValueError("universe is empty")
        self.identity = (
            None if identity_value is None else self._claimed("identity", identity_value)
        )
        self.zero = None if zero_value is None else self._claimed("zero", zero_value)
        self.params = dict(params or {})
        self.factors = factors
        _check_universe_size(self.size)
        self.table = table
        self._validate_axioms()
        self._unit_cache: Optional[UnitGroup] = None
        # coordinate tables of a product, built on first use
        self._zero_sets: Optional[list[frozenset]] = None
        self._projections: dict[frozenset, list[int]] = {}

    # -- core ------------------------------------------------------------

    def op(self, i: int, j: int) -> int:
        """Product of elements by index."""
        return self.table[i][j]

    def _claimed(self, name: str, value) -> int:
        """Index of the value claimed as the identity or the zero."""
        if value not in self.index_of:
            raise ValueError(f"claimed {name} {value!r} is not an element")
        return self.index_of[value]

    def _validate_axioms(self):
        """Check the table's shape, entries, symmetry, associativity and
        the claimed identity and zero.

        Up to ``ASSOC_EXHAUSTIVE_CAP`` elements associativity is proved by
        Light's test (Clifford and Preston, The Algebraic Theory of
        Semigroups I, 1961), in n^2 |A| lookups rather than n^3. A is the
        greedy generating set ``_generators`` reads off the table itself.
        The elements a with (x a) y = x (a y) for all x, y are closed
        under the product: for two of them a and b,
        (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y).
        Every member of A is checked to be one of them, as
        row(x a) = row(x) o row(a) for every x, and A generates every
        element, so every element is one and the table is associative.
        Above the cap, about ``ASSOC_SPOT_SAMPLES`` triples are checked.
        """
        n = len(self.values)
        t = self.table
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError(f"table is not {n}x{n}")
        if not set().union(*t) <= set(range(n)):
            raise ValueError("operation escapes the universe")
        if any(tuple(row) != column for row, column in zip(t, zip(*t))):
            raise ValueError("operation is not commutative")
        if n <= ASSOC_EXHAUSTIVE_CAP:
            pairs = iproduct(range(n), _generators(t))
        else:
            # about ASSOC_SPOT_SAMPLES triples: random (i, j), every k
            rng = random.Random(0)
            m = ASSOC_SPOT_SAMPLES // n
            pairs = zip(rng.choices(range(n), k=m), rng.choices(range(n), k=m))
        for i, j in pairs:
            ti = t[i]
            # (i*j)*k = i*(j*k) for every k: row i*j is row i composed with row j
            if t[ti[j]] != list(map(ti.__getitem__, t[j])):
                raise ValueError("operation is not associative")
        if self.identity is not None and t[self.identity] != list(range(n)):
            raise ValueError("claimed identity is not neutral")
        if self.zero is not None and t[self.zero] != [self.zero] * n:
            raise ValueError("claimed zero is not absorbing")

    # -- presentation ------------------------------------------------------

    def format_element(self, i: int) -> str:
        return format_value(self.values[i])

    def describe(self) -> dict:
        """Structured description record (CLI --dump, golden tests)."""
        rec = {
            "kind": self.kind,
            "size": self.size,
            "identity": self.identity,
            "zero": self.zero,
            "params": dict(self.params),
        }
        if self.factors is not None:
            rec["params"]["factors"] = [f.describe() for f in self.factors]
        return rec

    def __repr__(self):
        return f"FiniteSemigroup(kind={self.kind!r}, size={self.size})"


def format_value(v) -> str:
    """Canonical text for an element value of any semigroup kind."""
    if isinstance(v, Poly):
        return str(v)
    if v is INF:
        return "inf"
    if isinstance(v, int):
        return "g" if v == 1 else f"g^{v}"
    if isinstance(v, tuple):
        return "(" + ", ".join(format_value(c) for c in v) + ")"
    raise TypeError(f"unknown element value {v!r}")


# -- builders --------------------------------------------------------------


def build_quotient_semigroup(p: int, f: Poly) -> FiniteSemigroup:
    """Multiplicative semigroup of F_p[x]/<f(x)>.

    The universe holds all p^deg(f) residues, indexed by little-endian
    coefficient counting (index 0 is the zero residue, index 1 the
    constant 1, index p the residue x).
    """
    validate_prime(p)
    if f.p != p:
        raise ValueError(f"modulus prime mismatch: {f.p} vs {p}")
    d = f.degree
    if d < 1:
        raise ValueError("quotient modulus must have degree >= 1")
    _check_universe_size(p**d)
    # x^d + r runs through the monic polynomials as r does through residues
    values = [Poly(p, g.coeffs[:-1]) for g in monic_polys(p, d)]
    S = FiniteSemigroup(
        "quotient",
        values,
        _quotient_table(p, f),
        identity_value=Poly(p, [1]),
        zero_value=Poly(p),
        params={"p": p, "f": str(f)},
    )
    S.p = p
    S.modulus = f
    S._factorization = None  # factor(f), on first use
    return S


def _quotient_table(p: int, f: Poly) -> list[list[int]]:
    """Cayley table of F_p[x]/<f> over base-p digit indices.

    Multiplication by a residue is F_p-linear, so no residue is multiplied
    as a polynomial. Rows are built for the greedy generating set of
    ``_generators`` only, in index order: the row of x shifts the digits
    up one place and folds the top digit t back in as t·(x^d mod f), and
    for p^i <= a < p^(i+1) the row of a is the digitwise sum of the rows
    of a - p^i and p^i. Every higher power of x is x times the one before,
    so it is reached before the scan. Every other row is composed from
    these, as ``_generators`` says.
    """
    d = f.degree
    n = p**d
    top = n // p
    # digitwise sum mod p of two indices below m = p^ceil(d/2), one
    # base-p place at a time; an index below n splits into two of them
    m = p ** ((d + 1) // 2)
    add = [[0]]
    w = 1
    while w < m:
        add = [[s + w * ((c + e) % p) for e in range(p) for s in row]
               for c in range(p) for row in add]
        w *= p

    def plus(us, vs):
        return [add[u // m][v // m] * m + add[u % m][v % m] for u, v in zip(us, vs)]

    # x^d = -(f_0 + ... + f_(d-1) x^(d-1)) mod the monic associate of f
    tail = f.monic().coeffs[:-1]
    fold = [sum((-t * c) % p * p**i for i, c in enumerate(tail)) for t in range(p)]
    rows: list = [None] * n

    def generator_row(a):
        if a < 2:  # the zero and the identity
            return [a * b for b in range(n)]
        if a == p:
            return plus([b % top * p for b in range(n)], [fold[b // top] for b in range(n)])
        power = 1
        while power * p <= a:
            power *= p
        return plus(rows[a - power], rows[power])

    _generators(rows, generator_row)
    return rows


def build_cyclic_with_zero(n: int) -> FiniteSemigroup:
    """Cyclic group of order n with one absorbing element adjoined."""
    if n < 2:
        raise ValueError("cyclic part must have order >= 2")
    _check_universe_size(n + 1)
    values = list(range(n)) + [INF]
    table = [row + [n] for row in _cyclic_table(n)] + [[n] * (n + 1)]
    S = FiniteSemigroup(
        "cyclic_with_zero",
        values,
        table,
        identity_value=0,
        zero_value=INF,
        params={"n": n},
    )
    S.n = n
    return S


def build_cyclic_group(n: int) -> FiniteSemigroup:
    """Cyclic group of order n on exponents 0..n-1."""
    if n < 1:
        raise ValueError("group order must be >= 1")
    _check_universe_size(n)
    S = FiniteSemigroup(
        "abelian_group",
        list(range(n)),
        _cyclic_table(n),
        identity_value=0,
        params={"orders": [n]},
    )
    S.orders = (n,)
    return S


def build_abelian_group(orders: Seq[int]) -> FiniteSemigroup:
    """Direct product of cyclic groups C_{n_1} x ... x C_{n_k}."""
    orders = tuple(int(n) for n in orders)
    if not orders:
        raise ValueError("at least one cyclic order required")
    if any(n < 1 for n in orders):
        raise ValueError("cyclic orders must be >= 1")
    if len(orders) == 1:
        return build_cyclic_group(orders[0])
    _check_universe_size(prod(orders))

    values = [()]
    for n in orders:
        values = [v + (r,) for v in values for r in range(n)]
    S = FiniteSemigroup(
        "abelian_group",
        values,
        _product_table([_cyclic_table(n) for n in orders]),
        identity_value=tuple(0 for _ in orders),
        params={"orders": list(orders)},
    )
    S.orders = orders
    return S


def build_product(factors: Seq[FiniteSemigroup]) -> FiniteSemigroup:
    """Componentwise product of semigroups, each of which has an identity."""
    factors = list(factors)
    if not factors:
        raise ValueError("product needs at least one factor")
    for f in factors:
        if f.identity is None:
            raise ValueError("every product factor needs an identity")
    _check_universe_size(prod(f.size for f in factors))

    values = [()]
    for f in factors:
        values = [v + (w,) for v in values for w in f.values]

    identity_value = tuple(f.values[f.identity] for f in factors)
    zero_value = None
    if all(f.zero is not None for f in factors):
        zero_value = tuple(f.values[f.zero] for f in factors)

    return FiniteSemigroup(
        "product",
        values,
        _product_table([f.table for f in factors]),
        identity_value=identity_value,
        zero_value=zero_value,
        params={},
        factors=factors,
    )


def _cyclic_table(n: int) -> list[list[int]]:
    """Exponent addition mod n."""
    return [list(range(i, n)) + list(range(i)) for i in range(n)]


def _product_table(tables: Seq[list[list[int]]]) -> list[list[int]]:
    """Componentwise product of Cayley tables, by mixed-radix index with
    the last factor varying fastest, as the product's values are listed."""
    out = [[0]]
    for t in tables:
        m = len(t)
        out = [[s * m + x for s in row for x in t_row] for row in out for t_row in t]
    return out


def build_adjoined_zero_product(orders: Seq[int]) -> FiniteSemigroup:
    """C_n ∪ {inf} for a single order, else the product of one per order."""
    if len(orders) == 1:
        return build_cyclic_with_zero(orders[0])
    return build_product([build_cyclic_with_zero(n) for n in orders])


# -- unit groups -----------------------------------------------------------


@dataclass(frozen=True)
class UnitGroup:
    """Invertible elements of a semigroup, with inverse witnesses, and the
    ``_coordinates`` of ``group``, which give the invariant factors."""

    parent: FiniteSemigroup
    elements: tuple[int, ...]
    inverses: dict
    invariant_factors: tuple[int, ...]
    group: FiniteSemigroup
    coordinates: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_semigroup(self) -> FiniteSemigroup:
        return self.group


def units_of(S: FiniteSemigroup) -> UnitGroup:
    """Extract the group of units {a : a*a' = identity for some a'}."""
    if S.identity is None:
        raise ValueError("unit group needs an identity element")
    if S._unit_cache is not None:
        return S._unit_cache
    e = S.identity
    # an inverse is unique in a commutative monoid: the first e in the row
    inverses = {i: row.index(e) for i, row in enumerate(S.table) if e in row}
    elements = tuple(sorted(inverses))
    if len(elements) == S.size:  # a group is its own unit group
        group = S
    else:
        position = {u: k for k, u in enumerate(elements)}
        group = FiniteSemigroup(
            "abelian_group",
            [S.values[i] for i in elements],
            [[position[S.table[i][j]] for j in elements] for i in elements],
            identity_value=S.values[e],
            params={"units_of": S.kind},
        )

    invariants, coordinates = group_structure(group)
    closed_form = _closed_form_invariants(S)
    if closed_form is not None and closed_form != invariants:
        raise AssertionError(
            f"closed-form unit structure {closed_form} disagrees with "
            f"coordinates {invariants}"
        )

    ug = UnitGroup(S, elements, inverses, invariants, group, coordinates)
    S._unit_cache = ug
    return ug


def _coordinates(rows: list[list[int]], identity: int):
    """``(coord, axes)`` for the abelian group with these Cayley rows:
    G = C_d1 ⊕ ... ⊕ C_dk, axes the ``(stride, order)`` pair (s_i, d_i) of
    each summand, s_1 = 1 and s_i+1 = s_i d_i, and coord[x] = sum a_i s_i
    with 0 <= a_i < d_i the mixed-radix index of x = g_1^a1 ... g_k^ak.

    The basis g_i is greedy: at each step, the first element (by index) of
    largest order whose cyclic subgroup meets the span H of the earlier
    picks only in e, that is whose first power in H is g^ord(g) = e.
    Proof sketch that it spans G: suppose G = H ⊕ K, true for H = {e}. An
    element g with <g> ∩ H = {e} has the order of g H in G/H ≅ K, at most
    exp(K), and an element of K of that order qualifies, so the pick
    g = h k (h in H, k in K) has order m = exp(K), and so has k. An
    element of largest order generates a direct summand of K,
    K = <k> ⊕ K', and m h = e, so (a, k^j, b) -> a g^j b is an isomorphism
    from H ⊕ <k> ⊕ K' onto G: G = (H ⊕ <g>) ⊕ K'. The loop ends when no
    element qualifies, that is when K = {e} and H = G. Each pick's order
    is exp(K) at its step, and K' is a summand of K, so d_i+1 | d_i.

    Run-time check: coord is a bijection onto range(|G|), and each basis
    row x -> g_i x adds 1 to axis i of coord[x], mod d_i (n·k lookups).
    By the table's associativity, row x -> g_1^a1 ... g_k^ak x then adds
    (a_1, ..., a_k), so coord[x y] is the axis-wise sum of coord[x] and
    coord[y]: coord is an isomorphism onto the sum of the axes. A table
    that fails (or whose powers of an element miss e) raises
    ``AssertionError``."""
    n = len(rows)
    inside = [False] * n  # the span of the picks so far
    inside[identity] = True

    def powers(g):  # g, g^2, ... before the first power in the span
        row, out, y = rows[g], [], g
        while not inside[y]:
            if len(out) == n:
                raise AssertionError(f"the powers of element {g} miss the identity")
            out.append(y)
            y = row[y]
        return out, y

    order = [0] * n  # the span is {e} here, so a walk ends at e
    for g in range(n):
        if not order[g]:
            cycle, _ = powers(g)
            m = len(cycle) + 1
            for j, y in enumerate(cycle, 1):
                order[y] = m // gcd(j, m)
    elems = [identity]  # elems[c]: the element at coordinate c
    basis, axes = [], []
    for g in sorted(range(n), key=order.__getitem__, reverse=True):  # stable
        if len(elems) >= n:
            break
        if inside[g]:
            continue
        cycle, first = powers(g)
        if first != identity:
            continue
        stride = len(elems)
        for y in cycle:
            row = rows[y]
            elems += [row[h] for h in elems[:stride]]
        for h in elems[stride:]:
            inside[h] = True
        basis.append(g)
        axes.append((stride, len(cycle) + 1))
    coord: list = [None] * n
    for c, x in enumerate(elems[:n]):
        coord[x] = c
    if len(elems) != n or None in coord:
        raise AssertionError("the greedy basis does not span the group bijectively")
    for g, (stride, d) in zip(basis, axes):
        top = (d - 1) * stride
        if list(map(coord.__getitem__, rows[g])) != [
            c - top if c // stride % d == d - 1 else c + stride for c in coord
        ]:
            raise AssertionError(f"basis element {g} does not act as +1 on its axis")
    return coord, axes


def group_structure(G: FiniteSemigroup) -> tuple[tuple[int, ...], tuple]:
    """``(invariant_factors, coordinates)`` of the abelian group G: the
    ``_coordinates`` of its table, and their axis orders sorted,
    d_1 | ... | d_k. The greedy orders form a divisibility chain; orders
    that do not raise ``AssertionError``."""
    coordinates = _coordinates(G.table, G.identity)
    orders = [d for _, d in coordinates[1]]
    if any(a % b for a, b in zip(orders, orders[1:])):
        raise AssertionError(f"greedy basis orders {orders} are not a divisibility chain")
    return tuple(sorted(orders)), coordinates


MAX_AUTOMORPHISM_STEPS = 3_000_000
"""Most steps one ``automorphisms`` call may take: a step is one product
looked up, while closing a partial map or checking a complete one."""


def automorphisms(
    S: FiniteSemigroup, expired: Optional[Callable[[], bool]] = None
) -> list[tuple[int, ...]]:
    """Automorphisms of S as index maps (entry a is the image of a), the
    identity map first.

    Every automorphism fixes the identity and the zero, and maps each
    element to one of the same profile: the index and period of its
    powers and the size of the ideal xS. A map is fixed by its images of a
    generating set, picked greedily: each generator is an element outside
    the subsemigroup that the identity, the zero and the earlier
    generators generate, with the fewest elements of its profile, and then
    the largest cyclic subsemigroup. A backtracking search tries, for each
    generator in turn, every image of its profile not taken yet. Once an
    image is chosen the map is closed under products with the generators
    so far, phi(a g) = phi(a) phi(g); an element given two images (not
    well defined) or an image given twice (not injective) ends the branch.
    Every complete map is then proved an automorphism from the table: a
    bijection fixing the identity and the zero, with phi(a g) = phi(a)
    phi(g) for all a and each generator g, has phi(a w) = phi(a) phi(w)
    for each word w in the generators, by induction on the length of w.

    The search stops after ``MAX_AUTOMORPHISM_STEPS`` steps, or once
    ``expired()`` is true, which it reads on entry and then about every
    1024 steps. It then returns the automorphisms found so far: a subset,
    still with the identity first.
    """
    n = S.size
    rows = S.table
    identity = tuple(range(n))
    found = [identity]
    if expired is not None and expired():
        return found
    profile = [_profile(row, x) for x, row in enumerate(rows)]
    candidates: dict[tuple[int, int, int], list[int]] = {}
    for x in range(n):
        candidates.setdefault(profile[x], []).append(x)
    img = [-1] * n  # the partial map and its inverse, -1 where undefined
    pre = [-1] * n
    trail = [x for x in dict.fromkeys((S.identity, S.zero)) if x is not None]
    for x in trail:
        img[x] = pre[x] = x
    fixed = len(trail)
    gens: list[int] = []
    steps = 0

    def extend(k: int, y: int) -> bool:
        # map gens[k] to y and close the map under products with gens[:k+1],
        # each newly mapped element going on the trail; False on a conflict
        nonlocal steps
        g = gens[k]
        hs = gens[:k + 1]
        old = len(trail)
        img[g], pre[y] = y, g
        trail.append(g)
        i = 0
        while i < len(trail):
            a = trail[i]
            ra, rfa = rows[a], rows[img[a]]
            # elements mapped before g met the earlier generators already
            for h in hs if i >= old else (g,):
                b, t = ra[h], rfa[img[h]]
                steps += 1
                if img[b] < 0:
                    if pre[t] >= 0:
                        return False
                    img[b], pre[t] = t, b
                    trail.append(b)
                elif img[b] != t:
                    return False
            i += 1
        return True

    def undo(mark: int) -> None:
        for x in trail[mark:]:
            pre[img[x]] = -1
            img[x] = -1
        del trail[mark:]

    # closing the identity map on each new generator marks the
    # subsemigroup the generators so far generate
    for g in sorted(range(n), key=lambda x: (len(candidates[profile[x]]),
                                             -profile[x][0] - profile[x][1])):
        if img[g] < 0:
            gens.append(g)
            extend(len(gens) - 1, g)
    undo(fixed)
    next_read = steps + 1024

    def search(k: int) -> bool:
        # extend the map to gens[k:] in every way; False once out of work
        nonlocal steps, next_read
        if steps >= next_read:
            if steps >= MAX_AUTOMORPHISM_STEPS or (expired is not None and expired()):
                return False
            next_read = steps + 1024
        if k == len(gens):
            steps += n * len(gens)
            phi = tuple(img)
            if (phi != identity and sorted(phi) == list(identity)
                    and all(phi[x] == x for x in trail[:fixed])
                    and all(phi[r[g]] == rows[f][phi[g]]
                            for r, f in zip(rows, phi) for g in gens)):
                found.append(phi)
            return True
        for y in candidates[profile[gens[k]]]:
            if pre[y] < 0:
                mark = len(trail)
                more = not extend(k, y) or search(k + 1)
                undo(mark)
                if not more:
                    return False
        return True

    try:
        search(0)
    finally:
        search = None  # it refers to itself; this breaks the cycle
    return found


def _profile(row: list[int], x: int) -> tuple[int, int, int]:
    """(index, period, |xS|) of x, whose Cayley row is ``row``: the least
    m, and then the least r, with x^m = x^(m+r), and the size of the row's
    image."""
    first_seen: dict[int, int] = {}
    power, k = x, 1
    while power not in first_seen:
        first_seen[power] = k
        power, k = row[power], k + 1
    m = first_seen[power]
    return m, k - m, len(set(row))


def modulus_factorization(S: FiniteSemigroup) -> Factorization:
    """``factor(S.modulus)`` of a quotient, factored once and kept on S."""
    if S._factorization is None:
        S._factorization = factor(S.modulus)
    return S._factorization


def _closed_form_invariants(S: FiniteSemigroup):
    """Unit-group structure pinned down by the quotient modulus, when it is."""
    if S.kind != "quotient":
        return None
    p: int = S.p
    fac = modulus_factorization(S)
    if fac.is_squarefree:
        orders = [p ** g.degree - 1 for g, _ in fac.factors]
        return invariant_factors_from_cyclic_orders(orders)
    if len(fac.factors) == 1:
        g, m = fac.factors[0]
        if m == 2 and g.degree == 1:
            return invariant_factors_from_cyclic_orders([p * (p - 1)])
    return None


def invariant_factors_from_cyclic_orders(orders: Seq[int]) -> tuple[int, ...]:
    """Invariant factors of a product of cyclic groups of the given orders."""
    per_prime: dict[int, list[int]] = {}
    for n in orders:
        for q, e in prime_factors(n).items():
            per_prime.setdefault(q, []).append(q**e)
    return _merge_prime_powers(per_prime)


def _merge_prime_powers(per_prime: dict[int, list[int]]) -> tuple[int, ...]:
    """Merge per-prime power lists rank by rank into d_1 | d_2 | ... | d_r."""
    ranked = [sorted(powers, reverse=True) for powers in per_prime.values()]
    chain = []
    for r in range(max((len(powers) for powers in ranked), default=0)):
        d = 1
        for powers in ranked:
            if r < len(powers):
                d *= powers[r]
        chain.append(d)
    return tuple(sorted(chain))


# -- Chinese-remainder decomposition ---------------------------------------


@dataclass(frozen=True)
class CrtDecomposition:
    """Residue-vector isomorphism for a squarefree quotient modulus."""

    source: FiniteSemigroup
    factor_polys: tuple[Poly, ...]
    factors: tuple[FiniteSemigroup, ...]
    product: FiniteSemigroup
    iso: dict  # source index -> product index

    @property
    def cyclic_orders(self) -> tuple[int, ...]:
        p = self.source.p
        return tuple(p**g.degree - 1 for g in self.factor_polys)


def crt_decompose(
    p: int, f: Poly, fac: Optional[Factorization] = None
) -> CrtDecomposition:
    """Split F_p[x]/<f> into quotients by the distinct irreducible factors.

    Requires f squarefree; each factor semigroup is a finite field's
    multiplicative semigroup, i.e. a cyclic group with an absorbing zero.
    A caller that has factored f already passes the factorization as
    ``fac``; the source quotient keeps it for ``units_of``.
    """
    if fac is None:
        fac = factor(f)
    if not fac.is_squarefree:
        raise HypothesisViolation(
            f"modulus is not squarefree: {fac}; its repeated factors leave "
            "the decomposable regime"
        )
    source = build_quotient_semigroup(p, f)
    source._factorization = fac
    polys = tuple(g for g, _ in fac.factors)
    # a lone factor is f up to a unit, so its quotient is the source itself
    parts = (source,) if len(polys) == 1 else tuple(
        build_quotient_semigroup(p, g) for g in polys
    )
    prod = build_product(list(parts))
    iso = {
        i: prod.index_of[tuple(a % g for g in polys)]
        for i, a in enumerate(source.values)
    }
    if len(set(iso.values())) != source.size or prod.size != source.size:
        raise AssertionError("residue map failed to be a bijection")
    return CrtDecomposition(source, polys, parts, prod, iso)


# -- product-coordinate helpers --------------------------------------------


def _coordinate_factors(S: FiniteSemigroup) -> Seq[FiniteSemigroup]:
    """Factors of S; a lone C_n ∪ {inf} is its own single factor."""
    if S.kind == "product" and S.factors is not None:
        return S.factors
    if S.kind == "cyclic_with_zero":
        return (S,)
    raise TypeError(
        "coordinate maps are defined on product semigroups and on C_n ∪ {inf}"
    )


def _digits(factors: Seq[FiniteSemigroup]) -> list[tuple[int, ...]]:
    """Factor indices of each product index: mixed radix with the last
    factor fastest, as ``build_product`` lists the product's values."""
    digits = [()]
    for f in factors:
        digits = [d + (w,) for d in digits for w in range(f.size)]
    return digits


def zero_coordinate_sets(S: FiniteSemigroup) -> list[frozenset]:
    """The 1-based coordinates at which each element, by index, equals
    its factor's zero.

    Read off the factor indices on first use and kept on S, so it lives
    as long as S does.
    """
    if S._zero_sets is None:
        factors = _coordinate_factors(S)
        S._zero_sets = [
            frozenset(pos for pos, (w, f) in enumerate(zip(d, factors), start=1)
                      if w == f.zero)
            for d in _digits(factors)
        ]
    return S._zero_sets


def projection_indices(S: FiniteSemigroup, I) -> list[int]:
    """The projection that sets the 1-based coordinates in I to the factor
    identity, by index: entry i is the index of the image of element i.

    The map is a homomorphism of the product onto the sub-semigroup
    supported on the remaining coordinates. Built on first use for each I
    and kept on S.
    """
    I = frozenset(I)
    table = S._projections.get(I)
    if table is None:
        factors = _coordinate_factors(S)
        for i in I:
            if not 1 <= i <= len(factors):
                raise ValueError(f"coordinate {i} out of range [1, {len(factors)}]")
        table = []
        for d in _digits(factors):
            idx = 0
            for pos, (w, f) in enumerate(zip(d, factors), start=1):
                idx = idx * f.size + (f.identity if pos in I else w)
            table.append(idx)
        S._projections[I] = table
    return table


def is_group(S: FiniteSemigroup) -> bool:
    """True when every element is invertible for the identity."""
    if S.identity is None:
        return False
    return units_of(S).order == S.size
