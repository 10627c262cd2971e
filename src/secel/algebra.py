"""Prime-field arithmetic, polynomials, interpolation, and fixed-point codecs.

Everything downstream (sharing, masking, the group variant) is built on the
types here. Field elements are exact integers mod a pinned prime; gradients
cross into the field through :class:`FixedPointCodec`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    DuplicatePoint,
    InsufficientShares,
    ModulusMismatch,
    ZeroInverse,
)

__all__ = [
    "PrimeModulus",
    "FieldElement",
    "UniPoly",
    "SymBivarPoly",
    "FixedPointCodec",
    "lagrange_at_zero",
    "lagrange_at",
    "lagrange_coeffs_at",
    "is_probable_prime",
    "DEFAULT_PRIME",
    "MERSENNE_61",
]

# 130-bit default modulus: 2**129 + 17, prime. Large enough that sums of
# clipped fixed-point gradients never wrap for any realistic party count.
DEFAULT_PRIME = 680564733841876926926749214863536422929

# 2**61 - 1, handy when tests want a large-but-fast field.
MERSENNE_61 = 2305843009213693951

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, rounds: int = 24) -> bool:
    """Miller-Rabin. Deterministic for the small primes we pin; probabilistic
    with negligible error for user-supplied moduli."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n)  # deterministic witnesses per n
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def _checked_prime(p: int) -> int:
    """Validate once per distinct modulus; hot paths rebuild PrimeModulus freely."""
    if not isinstance(p, int) or p < 3:
        raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
    if not is_probable_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


class PrimeModulus:
    """A validated odd prime p defining the field Z_p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = _checked_prime(p)

    def element(self, value: int) -> FieldElement:
        return FieldElement(value % self.p, self)

    def random_element(self, rng: random.Random) -> FieldElement:
        return FieldElement(rng.randrange(self.p), self)

    def random_nonzero(self, rng: random.Random) -> FieldElement:
        return FieldElement(1 + rng.randrange(self.p - 1), self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeModulus) and other.p == self.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


class FieldElement:
    """An element of Z_p. Arithmetic between mismatched moduli raises."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: PrimeModulus):
        p = modulus.p
        self.value = value % p
        self.modulus = modulus

    # int operands are a convenience for literals in tests and callers.
    def _other_value(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.modulus is not self.modulus and other.modulus.p != self.modulus.p:
                raise ModulusMismatch(
                    f"mixed moduli {self.modulus.p} and {other.modulus.p}"
                )
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((self.value + v) % self.modulus.p, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((self.value - v) % self.modulus.p, self.modulus)

    def __rsub__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((v - self.value) % self.modulus.p, self.modulus)

    def __mul__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((self.value * v) % self.modulus.p, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.modulus.p, self.modulus)

    def inverse(self) -> FieldElement:
        # Fermat: a^(p-2) mod p. Valid because p is prime and a != 0.
        if self.value == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        p = self.modulus.p
        return FieldElement(pow(self.value, p - 2, p), self.modulus)

    def __truediv__(self, other):
        v = self._other_value(other)
        if v is NotImplemented:
            return NotImplemented
        return self * FieldElement(v, self.modulus).inverse()

    def __pow__(self, exponent: int):
        return FieldElement(pow(self.value, exponent, self.modulus.p), self.modulus)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return other.modulus.p == self.modulus.p and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.modulus.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.modulus.p))

    def __repr__(self) -> str:
        return f"FieldElement({self.value} mod {self.modulus.p})"


# ---- univariate polynomials --------------------------------------------------

class UniPoly:
    """Polynomial over Z_p with fixed coefficient list, low degree first."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Sequence[FieldElement]):
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        modulus = coeffs[0].modulus
        for c in coeffs[1:]:
            if c.modulus.p != modulus.p:
                raise ModulusMismatch("coefficients from different fields")
        self.coeffs = tuple(coeffs)
        self.modulus = modulus

    @classmethod
    def from_ints(cls, values: Iterable[int], modulus: PrimeModulus) -> UniPoly:
        return cls([modulus.element(v) for v in values])

    @classmethod
    def random(
        cls,
        degree: int,
        modulus: PrimeModulus,
        rng: random.Random,
        constant: FieldElement | int | None = None,
    ) -> UniPoly:
        """Uniform coefficients; optionally pin the constant term."""
        coeffs = [modulus.random_element(rng) for _ in range(degree + 1)]
        if constant is not None:
            if isinstance(constant, int):
                constant = modulus.element(constant)
            coeffs[0] = constant
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x: FieldElement | int) -> FieldElement:
        """Horner evaluation."""
        p = self.modulus.p
        xv = x.value if isinstance(x, FieldElement) else x % p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * xv + c.value) % p
        return FieldElement(acc, self.modulus)

    def constant_term(self) -> FieldElement:
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.modulus.p == other.modulus.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.modulus.p))

    def __repr__(self) -> str:
        terms = ", ".join(str(c.value) for c in self.coeffs)
        return f"UniPoly([{terms}] mod {self.modulus.p})"


# ---- symmetric bivariate polynomials ------------------------------------------

class SymBivarPoly:
    """Symmetric bivariate polynomial of degree t-1 in each variable.

    Stored as the upper triangle a_ij (i <= j < t) with a_ji = a_ij implied.
    The shared secret sits at F(0,0) = a_00.
    """

    __slots__ = ("t", "coeffs", "modulus")

    def __init__(self, t: int, coeffs: dict[tuple[int, int], FieldElement]):
        if t < 1:
            raise ValueError("threshold must be >= 1")
        expected = {(i, j) for i in range(t) for j in range(i, t)}
        if set(coeffs) != expected:
            raise ValueError("coefficient keys must cover the upper triangle")
        modulus = coeffs[(0, 0)].modulus
        for c in coeffs.values():
            if c.modulus.p != modulus.p:
                raise ModulusMismatch("coefficients from different fields")
        self.t = t
        self.coeffs = dict(coeffs)
        self.modulus = modulus

    @classmethod
    def random(
        cls,
        t: int,
        modulus: PrimeModulus,
        rng: random.Random,
        secret: FieldElement | int | None = None,
    ) -> SymBivarPoly:
        coeffs = {
            (i, j): modulus.random_element(rng)
            for i in range(t)
            for j in range(i, t)
        }
        if secret is not None:
            if isinstance(secret, int):
                secret = modulus.element(secret)
            coeffs[(0, 0)] = secret
        return cls(t, coeffs)

    def coeff(self, i: int, j: int) -> FieldElement:
        return self.coeffs[(i, j) if i <= j else (j, i)]

    def eval(self, x: FieldElement | int, y: FieldElement | int) -> FieldElement:
        p = self.modulus.p
        xv = x.value if isinstance(x, FieldElement) else x % p
        yv = y.value if isinstance(y, FieldElement) else y % p
        acc = 0
        for i in range(self.t):
            for j in range(self.t):
                acc = (acc + self.coeff(i, j).value * pow(xv, i, p) * pow(yv, j, p)) % p
        return FieldElement(acc, self.modulus)

    def row(self, j: FieldElement | int) -> UniPoly:
        """F(x, j) as a univariate polynomial in x. By symmetry F(j, y) is the same."""
        p = self.modulus.p
        jv = j.value if isinstance(j, FieldElement) else j % p
        out = []
        for i in range(self.t):
            acc = 0
            for k in range(self.t):
                acc = (acc + self.coeff(i, k).value * pow(jv, k, p)) % p
            out.append(FieldElement(acc, self.modulus))
        return UniPoly(out)

    def secret(self) -> FieldElement:
        return self.coeffs[(0, 0)]


# ---- Lagrange interpolation ---------------------------------------------------

def lagrange_coeffs_at(xs: Sequence[int], x0: int, p: int) -> list[int]:
    """Lagrange basis coefficients at x0 for sample points xs, as plain ints.

    Exposed separately so the group variant can apply them in the exponent.
    """
    if len(set(x % p for x in xs)) != len(xs):
        raise DuplicatePoint(f"duplicate x coordinates in {xs}")
    out = []
    for i, xi in enumerate(xs):
        num = 1
        den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = (num * (x0 - xj)) % p
            den = (den * (xi - xj)) % p
        out.append((num * pow(den, p - 2, p)) % p)
    return out


def _check_points(
    points: Sequence[tuple], t: int, require_nonzero_x: bool
) -> tuple[list[int], list[int], PrimeModulus]:
    if t < 1:
        raise ValueError("threshold must be >= 1")
    if len(points) < t:
        raise InsufficientShares(f"need {t} points, got {len(points)}")
    first = points[0][1]
    modulus = first.modulus if isinstance(first, FieldElement) else None
    if modulus is None:
        raise TypeError("points must carry FieldElement values")
    xs: list[int] = []
    ys: list[int] = []
    for x, y in points[:t]:
        xv = x.value if isinstance(x, FieldElement) else x % modulus.p
        if isinstance(y, FieldElement):
            if y.modulus.p != modulus.p:
                raise ModulusMismatch("points from different fields")
            yv = y.value
        else:
            yv = y % modulus.p
        if require_nonzero_x and xv == 0:
            raise ValueError("x = 0 is reserved for the secret")
        xs.append(xv)
        ys.append(yv)
    return xs, ys, modulus


def lagrange_at(points: Sequence[tuple], x0: int, t: int) -> FieldElement:
    """Value at x0 of the unique degree-(t-1) polynomial through the first t points."""
    xs, ys, modulus = _check_points(points, t, require_nonzero_x=False)
    p = modulus.p
    lam = lagrange_coeffs_at(xs, x0 % p, p)
    acc = 0
    for li, yi in zip(lam, ys):
        acc = (acc + li * yi) % p
    return FieldElement(acc, modulus)


def lagrange_at_zero(points: Sequence[tuple], t: int) -> FieldElement:
    """Interpolate the constant term (the secret) from the first t shares."""
    xs, ys, modulus = _check_points(points, t, require_nonzero_x=True)
    p = modulus.p
    lam = lagrange_coeffs_at(xs, 0, p)
    acc = 0
    for li, yi in zip(lam, ys):
        acc = (acc + li * yi) % p
    return FieldElement(acc, modulus)


# ---- fixed-point codec ---------------------------------------------------------

class FixedPointCodec:
    """Maps bounded reals to field elements and back.

    signed=True uses the centered lift (-p/2, p/2) so sums of negative values
    decode correctly. signed=False shifts inputs by clip_bound first, keeping
    every encoding (and any sum of at most max_parties of them) nonnegative,
    which the group variant needs for discrete-log decoding.
    """

    __slots__ = ("scale_bits", "clip_bound", "signed")

    def __init__(self, scale_bits: int = 16, clip_bound: float = 8.0, signed: bool = True):
        if scale_bits < 1 or clip_bound <= 0:
            raise ValueError("scale_bits >= 1 and clip_bound > 0 required")
        self.scale_bits = scale_bits
        self.clip_bound = float(clip_bound)
        self.signed = signed

    @property
    def scale(self) -> int:
        return 1 << self.scale_bits

    def max_parties(self, modulus: PrimeModulus) -> int:
        """Largest M such that M encodings can be summed without wrapping."""
        per_party = int(2 * self.clip_bound * self.scale)
        return max(0, (modulus.p // 2 - 1) // max(per_party, 1))

    def ensure_capacity(self, n_parties: int, modulus: PrimeModulus) -> None:
        if n_parties > self.max_parties(modulus):
            raise ValueError(
                f"{n_parties} parties can overflow the field: "
                f"max is {self.max_parties(modulus)} at clip={self.clip_bound}, "
                f"scale_bits={self.scale_bits}"
            )

    def encode_value(self, v: float, modulus: PrimeModulus) -> FieldElement:
        clipped = min(max(float(v), -self.clip_bound), self.clip_bound)
        if not self.signed:
            clipped += self.clip_bound
        return modulus.element(round(clipped * self.scale))

    def decode_sum(self, e: FieldElement, m_count: int = 1) -> float:
        """Decode a sum of m_count encodings back to a real."""
        p = e.modulus.p
        v = e.value
        if self.signed:
            if v > p // 2:
                v -= p
            return v / self.scale
        # shifted: subtract the m_count copies of the clip offset
        return v / self.scale - m_count * self.clip_bound

    def encode(self, values: Iterable[float], modulus: PrimeModulus) -> list[FieldElement]:
        return [self.encode_value(v, modulus) for v in values]

    def decode(self, elems: Sequence[FieldElement], m_count: int = 1) -> list[float]:
        return [self.decode_sum(e, m_count) for e in elems]

    def __repr__(self) -> str:
        kind = "signed" if self.signed else "shifted"
        return (
            f"FixedPointCodec(scale_bits={self.scale_bits}, "
            f"clip_bound={self.clip_bound}, {kind})"
        )
