"""Shared brute-force oracles, deliberately independent of the library's
dynamic programming and search paths: plain enumeration over all
sub-multisets, used to cross-check every fast route."""

from itertools import product as iproduct

import pytest

from davenport import INF, Sequence
from davenport.zerosum import sigma_index


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
