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
element values: a quotient's rows are F_p-linear combinations of the row
of ``x``, cyclic rows add exponents mod n, and derived semigroups (unit
groups, products) read their tables from their parents'. Every semigroup
validates its own table. Each builder rejects a larger universe with
``ValueError`` before enumerating it. Instances are immutable after
construction, so they can be shared freely.

The semigroup operation is written multiplicatively throughout (``mul``),
matching ring multiplication in the quotient case; for the adjoined-zero
and group kinds "multiplying" g^i and g^j adds exponents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from math import prod
from typing import Optional, Sequence as Seq

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
    shape, entry range, symmetry (the search reads row x as column x),
    associativity, and the claimed identity and zero.
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
        self.identity = (
            self.index_of[identity_value] if identity_value is not None else None
        )
        self.zero = self.index_of[zero_value] if zero_value is not None else None
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

    def __len__(self) -> int:
        return self.size

    def op(self, i: int, j: int) -> int:
        """Product of elements by index."""
        return self.table[i][j]

    def mul(self, a, b):
        """Product of elements by value."""
        return self.values[self.op(self.index_of[a], self.index_of[b])]

    def power(self, i: int, k: int) -> int:
        """k-th power by index; k = 0 requires an identity."""
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            if self.identity is None:
                raise ValueError("power 0 needs an identity element")
            return self.identity
        acc = None
        base = i
        while k:
            if k & 1:
                acc = base if acc is None else self.op(acc, base)
            k >>= 1
            if k:
                base = self.op(base, base)
        return acc

    def _validate_axioms(self):
        n = len(self.values)
        t = self.table
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError(f"table is not {n}x{n}")
        if not set().union(*t) <= set(range(n)):
            raise ValueError("operation escapes the universe")
        if any(tuple(row) != column for row, column in zip(t, zip(*t))):
            raise ValueError("operation is not commutative")
        if n <= ASSOC_EXHAUSTIVE_CAP:
            pairs = iproduct(range(n), repeat=2)
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
    as a polynomial. The row of x shifts the digits up one place and folds
    the top digit t back in as t·(x^d mod f); the row of x^i is the row of
    x composed with the row of x^(i-1); and for p^i < a < p^(i+1) the row
    of a is the digitwise sum of the rows of a - p^i and p^i.
    """
    d = f.degree
    n = p**d
    top = n // p
    # digitwise sum mod p of two indices, one base-p place at a time; an
    # index is below n <= 256, so a row fits in bytes
    add = [b"\0"]
    w = 1
    for _ in range(d):
        add = [bytes([s + w * ((c + e) % p) for e in range(p) for s in row])
               for c in range(p) for row in add]
        w *= p
    # x^d = -(f_0 + ... + f_(d-1) x^(d-1)) mod the monic associate of f
    tail = f.monic().coeffs[:-1]
    fold = [sum((-t * c) % p * p**i for i, c in enumerate(tail)) for t in range(p)]
    x_row = [add[b % top * p][fold[b // top]] for b in range(n)]
    rows = [[0] * n, list(range(n))]
    power = 1  # p^i with p^i <= a < p^(i+1)
    for a in range(2, n):
        if a == power * p:
            power = a
            rows.append([x_row[v] for v in rows[power // p]])
        else:
            rows.append([add[u][v] for u, v in zip(rows[a - power], rows[power])])
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
    """Invertible elements of a semigroup, with inverse witnesses."""

    parent: FiniteSemigroup
    elements: tuple[int, ...]
    inverses: dict
    invariant_factors: tuple[int, ...]
    group: FiniteSemigroup

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

    unit_values = [S.values[i] for i in elements]
    position = {u: k for k, u in enumerate(elements)}
    group = FiniteSemigroup(
        "abelian_group",
        unit_values,
        [[position[S.table[i][j]] for j in elements] for i in elements],
        identity_value=S.values[e],
        params={"units_of": S.kind},
    )

    invariants = _invariants_by_census(group)
    closed_form = _closed_form_invariants(S)
    if closed_form is not None and closed_form != invariants:
        raise AssertionError(
            f"closed-form unit structure {closed_form} disagrees with "
            f"census {invariants}"
        )

    ug = UnitGroup(S, elements, inverses, invariants, group)
    S._unit_cache = ug
    return ug


def _closed_form_invariants(S: FiniteSemigroup):
    """Unit-group structure pinned down by the quotient modulus, when it is."""
    if S.kind != "quotient":
        return None
    p: int = S.p
    if S._factorization is None:
        S._factorization = factor(S.modulus)
    fac: Factorization = S._factorization
    if fac.is_squarefree:
        orders = [p ** g.degree - 1 for g, _ in fac.factors]
        return invariant_factors_from_cyclic_orders(orders)
    if len(fac.factors) == 1:
        g, m = fac.factors[0]
        if m == 2 and g.degree == 1:
            return invariant_factors_from_cyclic_orders([p * (p - 1)])
    return None


def _invariants_by_census(group: FiniteSemigroup) -> tuple[int, ...]:
    """Abelian group structure from the multiset of element orders.

    For each prime q dividing |G|, counting elements of q-power order
    recovers the q-Sylow partition; the per-prime prime powers then merge
    rank by rank into the divisibility chain d_1 | d_2 | ... | d_r.
    """
    n = group.size
    orders = [_element_order(group, i, n) for i in range(n)]
    per_prime: dict[int, list[int]] = {}
    for q in prime_factors(n):
        qpow_counts: dict[int, int] = {}
        for o in orders:
            # keep only elements whose order is a power of q
            t = o
            while t % q == 0:
                t //= q
            if t == 1:
                qpow_counts[o] = qpow_counts.get(o, 0) + 1
        parts = []  # conjugate partition: parts[j-1] = #(exponents >= j)
        j = 1
        prev = 1
        while True:
            nj = sum(c for o, c in qpow_counts.items() if o <= q**j)
            if nj == prev:
                break
            a, ratio = 0, nj // prev
            while ratio > 1 and ratio % q == 0:
                ratio //= q
                a += 1
            if ratio != 1 or prev * q**a != nj:
                raise AssertionError("element-order census is not a q-group layering")
            parts.append(a)
            prev = nj
            j += 1
        exps = [sum(1 for a in parts if a >= i) for i in range(1, max(parts) + 1)]
        per_prime[q] = [q**e for e in exps]
    return _merge_prime_powers(per_prime)


def _element_order(group: FiniteSemigroup, i: int, group_order: int) -> int:
    order = group_order
    for q in prime_factors(group_order):
        while order % q == 0 and group.power(i, order // q) == group.identity:
            order //= q
    return order


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

    def map_value(self, a: Poly) -> tuple:
        """Residue vector (a mod f_1, ..., a mod f_k)."""
        return tuple(a % g for g in self.factor_polys)

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


def _coordinates(S: FiniteSemigroup, a) -> tuple[Seq[FiniteSemigroup], tuple]:
    """Factors of S and the components of a; a lone C_n ∪ {inf} has one."""
    factors = _coordinate_factors(S)
    if a not in S.index_of:
        raise ValueError(f"element {a!r} not in the universe")
    return factors, (a if S.kind == "product" else (a,))


def _digits(factors: Seq[FiniteSemigroup]) -> list[tuple[int, ...]]:
    """Factor indices of each product index: mixed radix with the last
    factor fastest, as ``build_product`` lists the product's values."""
    digits = [()]
    for f in factors:
        digits = [d + (w,) for d in digits for w in range(f.size)]
    return digits


def zero_coordinate_sets(S: FiniteSemigroup) -> list[frozenset]:
    """``j_set`` of every element, by index.

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
    """``psi_projection(S, I, .)`` by index: entry i is the index of the
    image of element i. Built on first use for each I and kept on S."""
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


def j_set(S: FiniteSemigroup, a) -> frozenset:
    """1-based coordinates of a product element equal to the factor zero."""
    factors, components = _coordinates(S, a)
    out = []
    for pos, (component, f) in enumerate(zip(components, factors), start=1):
        if f.zero is not None and component == f.values[f.zero]:
            out.append(pos)
    return frozenset(out)


def psi_projection(S: FiniteSemigroup, I, a):
    """Replace the (1-based) coordinates in I with the factor identity.

    The map is a homomorphism of the product onto the sub-semigroup
    supported on the remaining coordinates. On a lone C_n ∪ {inf} the
    result is an element value, not a 1-tuple.
    """
    factors, components = _coordinates(S, a)
    k = len(factors)
    I = frozenset(I)
    for i in I:
        if not 1 <= i <= k:
            raise ValueError(f"coordinate {i} out of range [1, {k}]")
    out = []
    for pos, (component, f) in enumerate(zip(components, factors), start=1):
        out.append(f.values[f.identity] if pos in I else component)
    return tuple(out) if S.kind == "product" else out[0]


def is_group(S: FiniteSemigroup) -> bool:
    """True when every element is invertible for the identity."""
    if S.identity is None:
        return False
    return units_of(S).order == S.size
