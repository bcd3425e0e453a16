"""Shared brute-force oracles, deliberately independent of the library's
dynamic programming and search paths: plain enumeration over all
sub-multisets, used to cross-check every fast route."""

from itertools import product as iproduct

import pytest

from davenport import INF, Sequence
from davenport.zerosum import _translate_mask, _translate_tables, sigma_index


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


def unpruned_davenport(S):
    """(D(S), witness indices) by the plain maximise-depth search.

    The search ``davenport_exact`` used before its ideal-bound pruning:
    depth-first over non-decreasing index sequences, extending only
    irreducible prefixes, with a memo on (product, proper-product set,
    minimum next index) holding each state's exact longest extension and
    its least first term. No pruning and no budget; the witness is the
    memo's first-choice chain from the root, the lexicographically first
    longest irreducible sequence.
    """
    translate = _translate_tables(S)
    rows = S.table
    memo = {}

    def key(sig, rp, min_elem):
        return (rp << 16) | (sig << 8) | min_elem

    def explore(sig, rp, min_elem):
        k = key(sig, rp, min_elem)
        if k not in memo:
            best_extra, best_first = 0, -1
            r_all = rp | (1 << sig)
            for x in range(min_elem, S.size):
                new_sig = rows[sig][x]
                new_rp = r_all | _translate_mask(translate[x], rp)
                if (new_rp >> new_sig) & 1:
                    continue
                extra = 1 + explore(new_sig, new_rp, x)
                if extra > best_extra:
                    best_extra, best_first = extra, x
            memo[k] = (best_extra, best_first)
        return memo[k][0]

    explore(S.identity, 0, 0)
    sig, rp, min_elem = S.identity, 0, 0
    terms = []
    while (first := memo[key(sig, rp, min_elem)][1]) >= 0:
        terms.append(first)
        rp = rp | (1 << sig) | _translate_mask(translate[first], rp)
        sig, min_elem = rows[sig][first], first
    return 1 + len(terms), tuple(terms)


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
