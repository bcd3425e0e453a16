"""Shared brute-force oracles, deliberately independent of the library's
dynamic programming and search paths: plain enumeration over all
sub-multisets, used to cross-check every fast route."""

from itertools import product as iproduct

import pytest

from davenport import INF, Sequence, monic_polys
from davenport.gfpoly import Poly
from davenport.zerosum import _translate_row, sigma_index


# Polynomial oracles for ``factor``: the package itself needs none of them.


def is_monic(f: Poly) -> bool:
    return f.leading_coefficient() == 1


def evaluate(f: Poly, x: int) -> int:
    y = 0
    for c in reversed(f.coeffs):
        y = (y * x + c) % f.p
    return y


def derivative(f: Poly) -> Poly:
    return Poly(f.p, [i * c for i, c in enumerate(f.coeffs)][1:])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_irreducible(f: Poly) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    if f.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    for d in range(1, f.degree // 2 + 1):
        for g in monic_polys(f.p, d):
            if (f % g).is_zero():
                return False
    return True


def seq_of(S, *values):
    """The sequence with one term per element value."""
    return Sequence(S, ((S.index_of[v], 1) for v in values))


def is_proper_subsequence(W: Sequence, T: Sequence) -> bool:
    have = dict(T.pairs)
    return len(W) < len(T) and all(c <= have.get(i, 0) for i, c in W.pairs)


def brute_sigma(S, indices):
    acc = S.identity
    for i in indices:
        acc = S.op(acc, i)
    return acc


def brute_proper_subsums(T: Sequence) -> set:
    """All products of proper sub-multisets, by explicit enumeration."""
    S = T.parent
    elems = [i for i, _ in T.pairs]
    counts = [c for _, c in T.pairs]
    out = set()
    for takes in iproduct(*(range(c + 1) for c in counts)):
        if list(takes) == counts:
            continue
        expanded = [e for e, t in zip(elems, takes) for _ in range(t)]
        out.add(brute_sigma(S, expanded))
    return out


def brute_is_reducible(T: Sequence) -> bool:
    return sigma_index(T) in brute_proper_subsums(T)


def brute_sumset(T: Sequence) -> set:
    S = T.parent
    elems = [i for i, _ in T.pairs]
    counts = [c for _, c in T.pairs]
    out = set()
    for takes in iproduct(*(range(c + 1) for c in counts)):
        if not any(takes):
            continue
        expanded = [e for e, t in zip(elems, takes) for _ in range(t)]
        out.add(brute_sigma(S, expanded))
    return out


def value_product(S, a, b):
    """Product of two element values by value-level arithmetic, bypassing
    the Cayley table: residues mod f, exponent addition with an absorbing
    ``inf``, componentwise over product factors."""
    if S.kind == "quotient":
        return (a * b) % S.modulus
    if S.kind == "cyclic_with_zero":
        return INF if a is INF or b is INF else (a + b) % S.n
    if S.kind == "abelian_group":
        if len(S.orders) == 1:
            return (a + b) % S.orders[0]
        return tuple((x + y) % n for x, y, n in zip(a, b, S.orders))
    if S.kind == "product":
        return tuple(value_product(f, x, y) for f, x, y in zip(S.factors, a, b))
    raise TypeError(f"no value-level product for kind {S.kind!r}")


def associativity_counterexample(table):
    """A triple (i, j, k) with (ij)k != i(jk) by the plain n^3 scan, else
    None: the reference for the constructor's associativity check."""
    n = len(table)
    for i, j, k in iproduct(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return i, j, k
    return None


def generated_by(table, gens) -> set:
    """Every element a product of members of ``gens`` reaches, under any
    bracketing: the set closed under all products of its elements."""
    out = set(gens)
    while True:
        more = {table[a][b] for a in out for b in out} - out
        if not more:
            return out
        out |= more


def digit_sum_quotient_table(p: int, f: Poly) -> list[list[int]]:
    """Cayley table of F_p[x]/<f>, p^deg(f) <= 256, filled entry by entry.

    The row of x shifts the digits up one place and folds the top digit
    back in through x^d mod f; the row of x^i is the row of x composed
    with the row of x^(i-1); and for p^i < a < p^(i+1) the row of a is the
    digitwise sum of the rows of a - p^i and p^i, read from an n x n table
    of digitwise sums. The reference for the library's table, which
    builds only a generating set's rows this way.
    """
    d = f.degree
    n = p**d
    top = n // p
    add = [b"\0"]
    w = 1
    for _ in range(d):
        add = [bytes([s + w * ((c + e) % p) for e in range(p) for s in row])
               for c in range(p) for row in add]
        w *= p
    tail = f.monic().coeffs[:-1]
    fold = [sum((-t * c) % p * p**i for i, c in enumerate(tail)) for t in range(p)]
    x_row = [add[b % top * p][fold[b // top]] for b in range(n)]
    rows = [[0] * n, list(range(n))]
    power = 1
    for a in range(2, n):
        if a == power * p:
            power = a
            rows.append([x_row[v] for v in rows[power // p]])
        else:
            rows.append([add[u][v] for u, v in zip(rows[a - power], rows[power])])
    return rows


def unpruned_davenport(S):
    """(D(S), witness indices) by the plain maximise-depth search.

    The search ``davenport_exact`` used before its ideal-bound pruning:
    depth-first over non-decreasing index sequences, extending only
    irreducible prefixes, with a memo on the tuple (product, proper-product
    set, minimum next index) holding each state's exact longest extension
    and its least first term; the tuple keeps the oracle off the search's
    packed key. No pruning and no budget; the witness is the memo's
    first-choice chain from the root, the lexicographically first longest
    irreducible sequence. It shares only the translate row builder, which
    ``TestTranslateTables`` checks against the Cayley table, and builds
    every row up front.
    """
    translate = [_translate_row(row) for row in S.table]
    rows = S.table
    memo = {}

    def explore(sig, rp, min_elem):
        key = (sig, rp, min_elem)
        if key not in memo:
            best_extra, best_first = 0, -1
            r_all = rp | (1 << sig)
            for x in range(min_elem, S.size):
                new_sig = rows[sig][x]
                new_rp = r_all | translate_mask(translate[x], rp)
                if (new_rp >> new_sig) & 1:
                    continue
                extra = 1 + explore(new_sig, new_rp, x)
                if extra > best_extra:
                    best_extra, best_first = extra, x
            memo[key] = (best_extra, best_first)
        return memo[key][0]

    sig, rp, min_elem = S.identity, 0, 0
    explore(sig, rp, min_elem)
    terms = []
    while (first := memo[(sig, rp, min_elem)][1]) >= 0:
        terms.append(first)
        rp = rp | (1 << sig) | translate_mask(translate[first], rp)
        sig, min_elem = rows[sig][first], first
    return 1 + len(terms), tuple(terms)


def unpruned_mixed_length(S, units):
    """L_N: the length of the longest irreducible sequence over S with a
    term outside ``units`` (a set of indices), by the search of
    ``unpruned_davenport`` with a flag in its state that says whether the
    prefix has such a term. A state's memo value is the most terms an
    irreducible extension can add and end with such a term, -1 when none
    can. No pruning and no budget.
    """
    translate = [_translate_row(row) for row in S.table]
    rows = S.table
    memo = {}

    def explore(sig, rp, min_elem, mixed):
        key = (sig, rp, min_elem, mixed)
        if key not in memo:
            best = 0 if mixed else -1
            r_all = rp | (1 << sig)
            for x in range(min_elem, S.size):
                new_sig = rows[sig][x]
                new_rp = r_all | translate_mask(translate[x], rp)
                if (new_rp >> new_sig) & 1:
                    continue
                extra = explore(new_sig, new_rp, x, mixed or x not in units)
                if extra >= 0:
                    best = max(best, 1 + extra)
            memo[key] = best
        return memo[key]

    return max(0, explore(S.identity, 0, 0, False))


def translate_mask(chunks, mask):
    """The image of a bitmask under a chunk table of ``_translate_row``."""
    acc = 0
    ci = 0
    while mask:
        acc |= chunks[ci][mask & 255]
        mask >>= 8
        ci += 1
    return acc


def all_multisets(n_elements, length):
    """Non-decreasing index tuples of the given length over range(n)."""
    def rec(start, remaining):
        if remaining == 0:
            yield ()
            return
        for e in range(start, n_elements):
            for rest in rec(e, remaining - 1):
                yield (e,) + rest
    return rec(0, length)


@pytest.fixture(scope="session")
def quotient_p3_sq():
    from davenport import build_quotient_semigroup, poly

    return build_quotient_semigroup(3, poly(3, 1, 2, 1))


@pytest.fixture(scope="session")
def c2z_squared():
    from davenport import build_cyclic_with_zero, build_product

    return build_product([build_cyclic_with_zero(2), build_cyclic_with_zero(2)])


# The layered DP as it stood with back-pointers: a state is (product
# index, used all copies so far, used any copy so far), and each state
# keeps the first (state, take) that reaches it with the least take.
_EMPTY = -1


def binary_power(S, x, k):
    """x^k for k >= 1 by repeated squaring through ``S.op``, a route apart
    from the DP's folding of Cayley rows."""
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else S.op(acc, x)
        k >>= 1
        if k:
            x = S.op(x, x)
    return acc


def backpointer_dp_layers(S, pairs):
    start_sum = S.identity if S.identity is not None else _EMPTY
    rows = S.table
    layers = [{(start_sum, True, False): None}]
    for x, c in pairs:
        powers = [binary_power(S, x, take) for take in range(1, c + 1)]
        nxt = {}
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


def _backpointer_final_states(layers, proper):
    for state in layers[-1]:
        s, all_used, any_used = state
        if s != _EMPTY and (not (all_used and any_used) if proper else any_used):
            yield state


def backpointer_dp_collect(S, pairs, *, proper):
    layers = backpointer_dp_layers(S, pairs)
    return {s for s, _, _ in _backpointer_final_states(layers, proper)}


def backpointer_dp_select(S, pairs, target, *, proper):
    """The admissible final state of least (any used, all used) with the
    target product, followed back through its back-pointers."""
    layers = backpointer_dp_layers(S, pairs)
    best = None
    for state in _backpointer_final_states(layers, proper):
        s, all_used, any_used = state
        if s != target:
            continue
        rank = (any_used, all_used)
        if best is None or rank < best[0]:
            best = (rank, state)
    if best is None:
        return None
    counts = {}
    cur = best[1]
    for depth in range(len(layers) - 1, 0, -1):
        prev_state, take = layers[depth][cur]
        if take:
            counts[pairs[depth - 1][0]] = take
        cur = prev_state
    return counts


# Value-level coordinate maps of products of adjoined-zero cyclic
# semigroups: the reference the index tables ``zero_coordinate_sets`` and
# ``projection_indices`` are checked against.


def _coordinates(S, a):
    """Factors of S and the components of a; a lone C_n ∪ {inf} has one."""
    if S.kind == "product" and S.factors is not None:
        factors, components = S.factors, a
    elif S.kind == "cyclic_with_zero":
        factors, components = (S,), (a,)
    else:
        raise TypeError(
            "coordinate maps are defined on product semigroups and on C_n ∪ {inf}"
        )
    if a not in S.index_of:
        raise ValueError(f"element {a!r} not in the universe")
    return factors, components


def j_set(S, a) -> frozenset:
    """1-based coordinates of a product element equal to the factor zero."""
    factors, components = _coordinates(S, a)
    out = []
    for pos, (component, f) in enumerate(zip(components, factors), start=1):
        if f.zero is not None and component == f.values[f.zero]:
            out.append(pos)
    return frozenset(out)


def psi_projection(S, I, a):
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
