"""Exact arithmetic for univariate polynomials over a prime field F_p.

A polynomial is a coefficient tuple in little-endian order: index i holds
the coefficient of x^i, every coefficient is reduced to [0, p-1], and
trailing zeros are stripped so the zero polynomial is the empty tuple.
Degrees and primes stay desk-scale (p <= a few dozen, deg <= a handful),
so all algorithms are the self-evidently correct ones: schoolbook
multiplication, long division, and factorization by trial division over
all monic polynomials of increasing degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def validate_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p!r}")
    return p


class Poly:
    """Canonical residue polynomial over F_p.

    Instances are immutable; arithmetic returns new canonical instances.
    The usual operators are overloaded (+, -, *, //, %, divmod, **).
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        validate_prime(p)
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return self.leading_coefficient() == 1

    def monic(self) -> "Poly":
        """Associated monic polynomial (zero stays zero)."""
        lc = self.leading_coefficient()
        if lc in (0, 1):
            return self
        inv = pow(lc, -1, self.p)
        return Poly(self.p, [c * inv for c in self.coeffs])

    def evaluate(self, x: int) -> int:
        y = 0
        for c in reversed(self.coeffs):
            y = (y * x + c) % self.p
        return y

    def derivative(self) -> "Poly":
        return Poly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return Poly(self.p, [other])
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(self.p, a)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return poly_mul(self, other)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return poly_divrem(self, other)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly(self.p, [1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- identity & ordering -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def sort_key(self):
        """Deterministic order: by degree, then coefficients read from the top."""
        return (self.degree, tuple(reversed(self.coeffs)))

    def __lt__(self, other):
        other = self._coerce(other)
        return self.sort_key() < other.sort_key()

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "+".join(parts)

    def __repr__(self):
        return f"Poly(p={self.p}, {self})"


def poly(p: int, *coeffs: int) -> Poly:
    """Convenience constructor from little-endian coefficients."""
    return Poly(p, coeffs)


def _check_same_prime(a: Poly, b: Poly) -> None:
    if a.p != b.p:
        raise ValueError(f"mixed moduli: {a.p} vs {b.p}")


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Schoolbook product, reduced and canonical."""
    _check_same_prime(a, b)
    if a.is_zero() or b.is_zero():
        return Poly(a.p)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return Poly(a.p, out)


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division: a = b*q + r with deg r < deg b."""
    _check_same_prime(a, b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p = a.p
    r = list(a.coeffs)
    db = b.degree
    inv_lead = pow(b.coeffs[-1], -1, p)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - db - 1, -1, -1):
        coef = (r[i + db] * inv_lead) % p
        if coef == 0:
            continue
        q[i] = coef
        for j, cb in enumerate(b.coeffs):
            r[i + j] = (r[i + j] - coef * cb) % p
    return Poly(p, q), Poly(p, r[:db])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    _check_same_prime(a, b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def monic_polys(p: int, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the given degree, in canonical order.

    Enumeration counts the p^degree lower coefficient vectors with the
    constant coefficient varying fastest, which coincides with ordering
    by top-down coefficient reading.
    """
    for idx in range(p**degree):
        coeffs = []
        k = idx
        for _ in range(degree):
            k, c = divmod(k, p)
            coeffs.append(c)
        coeffs.append(1)
        yield Poly(p, coeffs)


def is_irreducible(f: Poly) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    if f.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    for d in range(1, f.degree // 2 + 1):
        for g in monic_polys(f.p, d):
            if (f % g).is_zero():
                return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Unit constant times a product of monic irreducible powers."""

    unit: int
    factors: tuple[tuple[Poly, int], ...]

    @property
    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    def expand(self) -> Poly:
        """Re-multiply unit and factor powers; the reconstruction oracle."""
        p = self.factors[0][0].p
        out = Poly(p, [self.unit])
        for g, m in self.factors:
            out = out * g**m
        return out

    def __str__(self):
        parts = [] if self.unit == 1 else [str(self.unit)]
        for g, m in self.factors:
            parts.append(f"({g})" if m == 1 else f"({g})^{m}")
        return "*".join(parts) if parts else "1"


def factor(f: Poly) -> Factorization:
    """Complete factorization into monic irreducibles by trial division.

    Factors come out sorted by degree then coefficient order, each with its
    multiplicity; the leading coefficient is split off as the unit.
    """
    if f.degree < 1:
        raise ValueError("factorization is defined for degree >= 1")
    p = f.p
    unit = f.leading_coefficient()
    work = f.monic()
    found: list[tuple[Poly, int]] = []
    d = 1
    while work.degree >= 1:
        if d > work.degree // 2:
            # no factor of degree <= deg/2 remains, so the cofactor is irreducible
            found.append((work, 1))
            break
        for g in monic_polys(p, d):
            mult = 0
            while True:
                q, r = poly_divrem(work, g)
                if not r.is_zero():
                    break
                work = q
                mult += 1
            if mult:
                found.append((g, mult))
            if work.degree < 1:
                break
        d += 1
    return Factorization(unit, tuple(found))


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValueError("positive integer required")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in the multiplicative group mod p."""
    if a % p == 0:
        raise ValueError("zero has no multiplicative order")
    order = p - 1
    for q in prime_factors(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def primitive_root(p: int) -> int:
    """Least generator of the multiplicative group mod p (1 for p = 2)."""
    validate_prime(p)
    if p == 2:
        return 1
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g
    raise AssertionError("unreachable: every prime has a primitive root")
