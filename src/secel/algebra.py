"""Prime-field arithmetic, polynomials, interpolation, and fixed-point codecs.

Everything downstream (sharing, masking, the group variant) is built on the
functions here. Field elements are plain ints in [0, p) for a pinned prime p:
:class:`PrimeModulus` validates p once and draws uniform elements, and every
operation that needs the modulus takes it (or p) as an argument. Gradients
cross into the field through :class:`FixedPointCodec`.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import DuplicatePoint, InsufficientShares

__all__ = [
    "PrimeModulus",
    "UniPoly",
    "SymBivarPoly",
    "FixedPointCodec",
    "lagrange_at_zero",
    "lagrange_at",
    "lagrange_coeffs_at",
    "is_probable_prime",
    "pocklington",
    "DEFAULT_PRIME",
    "MERSENNE_61",
]

# 130-bit default modulus: 2**129 + 17, prime. Large enough that sums of
# clipped fixed-point gradients never wrap for any realistic party count.
DEFAULT_PRIME = 680564733841876926926749214863536422929

# 2**61 - 1, handy when tests want a large-but-fast field.
MERSENNE_61 = 2305843009213693951

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=256, typed=True)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin. Deterministic for the small primes we pin; probabilistic
    with negligible error for user-supplied moduli. The verdict is kept per
    n, so a group's order is tested once, not again by its exponent field."""
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
    for _ in range(24):  # a composite passes each with probability <= 1/4
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


def pocklington(n: int, q: int) -> bool | None:
    """Pocklington's n - 1 test for a prime q: True proves n prime, False
    proves it composite, None decides nothing.

    It applies when q divides n - 1 and (q + 1)^2 > n. A witness a has
    a^(n-1) = 1 (mod n) and gcd(a^((n-1)/q) - 1, n) = 1; then every prime
    factor of n is 1 mod q, so above sqrt(n), and n is prime (Brillhart,
    Lehmer and Selfridge, Math. Comp. 29, 1975). Each small prime a below n
    is tried in turn, at one Fermat power and one gcd; for a safe prime
    n = 2q + 1 the first, a = 2, always proves it.
    """
    if (n - 1) % q or (q + 1) ** 2 <= n:
        return None
    for a in _SMALL_PRIMES:
        if a >= n:
            break
        b = pow(a, (n - 1) // q, n)
        if pow(b, q, n) != 1:
            return False  # a Fermat witness
        d = gcd(b - 1, n)
        if d == 1:
            return True
        if d != n:
            return False  # a proper factor
    return None


class PrimeModulus:
    """A validated odd prime p defining the field Z_p, and its uniform draws.

    It is the one place a field element is drawn. A draw reads the stream
    `Random.randrange` reads, getrandbits(bits(n)) until below n, without its
    argument checks, so every seeded transcript is the same.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3:
            raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")
        if not is_probable_prime(p):  # its verdict is kept per p
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def random_element(self, rng: random.Random) -> int:
        """Uniform in [0, p), as rng.randrange(p) draws it."""
        p = self.p
        bits, getrandbits = p.bit_length(), rng.getrandbits
        x = getrandbits(bits)
        while x >= p:
            x = getrandbits(bits)
        return x

    def random_nonzero(self, rng: random.Random) -> int:
        """Uniform in [1, p), as 1 + rng.randrange(p - 1) draws it."""
        top = self.p - 1
        bits, getrandbits = top.bit_length(), rng.getrandbits
        x = getrandbits(bits)
        while x >= top:
            x = getrandbits(bits)
        return 1 + x


# ---- univariate polynomials --------------------------------------------------

class UniPoly:
    """Polynomial over Z_p with fixed coefficient list, low degree first."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs: Sequence[int], modulus: PrimeModulus):
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        p = modulus.p
        self.coeffs = tuple(c % p for c in coeffs)
        self.modulus = modulus

    @classmethod
    def random(
        cls,
        degree: int,
        modulus: PrimeModulus,
        rng: random.Random,
        constant: int | None = None,
    ) -> UniPoly:
        """Uniform coefficients; optionally pin the constant term.

        The constant is drawn even when it is pinned, so the draw order (and
        every seeded transcript) does not depend on whether it is.
        """
        coeffs = [modulus.random_element(rng) for _ in range(degree + 1)]
        if constant is not None:
            coeffs[0] = constant
        return cls(coeffs, modulus)

    def eval(self, x: int) -> int:
        """Horner evaluation, reduced once at the end.

        Every caller evaluates at a party id or 0, where the accumulator grows
        by only a few bits per step.
        """
        p = self.modulus.p
        x %= p
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc % p

    def constant_term(self) -> int:
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)} mod {self.modulus.p})"


# ---- symmetric bivariate polynomials ------------------------------------------

class SymBivarPoly:
    """Symmetric bivariate polynomial of degree t-1 in each variable.

    Stored as the upper triangle a_ij (i <= j < t) with a_ji = a_ij implied.
    The shared secret sits at F(0,0) = a_00.
    """

    __slots__ = ("t", "coeffs", "modulus")

    def __init__(self, t: int, coeffs: dict[tuple[int, int], int], modulus: PrimeModulus):
        if t < 1:
            raise ValueError("threshold must be >= 1")
        expected = {(i, j) for i in range(t) for j in range(i, t)}
        if set(coeffs) != expected:
            raise ValueError("coefficient keys must cover the upper triangle")
        self.t = t
        self.coeffs = {k: c % modulus.p for k, c in coeffs.items()}
        self.modulus = modulus

    @classmethod
    def random(
        cls,
        t: int,
        modulus: PrimeModulus,
        rng: random.Random,
        secret: int | None = None,
    ) -> SymBivarPoly:
        """Uniform coefficients; the secret, if pinned, still costs its draw."""
        coeffs = {
            (i, j): modulus.random_element(rng)
            for i in range(t)
            for j in range(i, t)
        }
        if secret is not None:
            coeffs[(0, 0)] = secret
        return cls(t, coeffs, modulus)

    def coeff(self, i: int, j: int) -> int:
        return self.coeffs[(i, j) if i <= j else (j, i)]

    def eval(self, x: int, y: int) -> int:
        p = self.modulus.p
        acc = 0
        for i in range(self.t):
            for j in range(self.t):
                acc = (acc + self.coeff(i, j) * pow(x, i, p) * pow(y, j, p)) % p
        return acc

    def row(self, j: int) -> UniPoly:
        """F(x, j) as a univariate polynomial in x. By symmetry F(j, y) is the same."""
        p = self.modulus.p
        out = []
        for i in range(self.t):
            acc = 0
            for k in range(self.t):
                acc = (acc + self.coeff(i, k) * pow(j, k, p)) % p
            out.append(acc)
        return UniPoly(out, self.modulus)

    def secret(self) -> int:
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
        out.append((num * pow(den, -1, p)) % p)
    return out


def _interpolate(
    points: Sequence[tuple[int, int]], x0: int, t: int, p: int, reserve_zero: bool
) -> int:
    if t < 1:
        raise ValueError("threshold must be >= 1")
    if len(points) < t:
        raise InsufficientShares(f"need {t} points, got {len(points)}")
    use = points[:t]
    xs = [x % p for x, _ in use]
    if reserve_zero and 0 in xs:
        raise ValueError("x = 0 is reserved for the secret")
    lam = lagrange_coeffs_at(xs, x0 % p, p)
    return sum(li * y for li, (_, y) in zip(lam, use)) % p


def lagrange_at(points: Sequence[tuple[int, int]], x0: int, t: int, p: int) -> int:
    """Value at x0 of the unique degree-(t-1) polynomial through the first t points."""
    return _interpolate(points, x0, t, p, reserve_zero=False)


def lagrange_at_zero(points: Sequence[tuple[int, int]], t: int, p: int) -> int:
    """Interpolate the constant term (the secret) from the first t shares."""
    return _interpolate(points, 0, t, p, reserve_zero=True)


# ---- fixed-point codec ---------------------------------------------------------

class FixedPointCodec:
    """Maps bounded reals to field elements and back.

    signed=True uses the centered lift (-p/2, p/2) so sums of negative values
    decode correctly. signed=False shifts inputs by clip_bound first, keeping
    sums nonnegative for the group's discrete-log decode. `reach` bounds a sum
    of m encodings: the scalar range check and the group decode bound read it.

    A value has two integer forms: `scaled_values` gives the clipped, scaled
    int, which a signed codec leaves negative for a negative value, and
    `encode` gives that int mod p. Both are the same field element, so code
    that reduces anyway, like the masking kernels, takes the first.
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

    def width_bits(self) -> int:
        """Bit length of one party's width, 2 * clip * scale, from bit lengths alone.

        clip_bound is a float, so 2 * clip is num / 2^e exactly and the width's
        bit length is scale_bits + bits(num) - bits(2^e), whenever that is >= 1.
        It builds no integer of scale_bits bits.
        """
        twice = 2 * Fraction(self.clip_bound)
        return self.scale_bits + twice.numerator.bit_length() - twice.denominator.bit_length() + 1

    def max_parties(self, modulus: PrimeModulus) -> int:
        """Largest M such that M encodings can be summed without wrapping."""
        if self.width_bits() >= modulus.p.bit_length():
            return 0  # one party's width alone passes p / 2; do not build the scale
        # exact: 2 * clip * scale may be past float range, or scale past int-to-float
        per_party = int(2 * Fraction(self.clip_bound) * self.scale)
        return max(0, (modulus.p // 2 - 1) // max(per_party, 1))

    def ensure_capacity(self, n_parties: int, modulus: PrimeModulus) -> None:
        if n_parties > self.max_parties(modulus):
            raise ValueError(
                f"{n_parties} parties can overflow the field: "
                f"max is {self.max_parties(modulus)} at clip={self.clip_bound}, "
                f"scale_bits={self.scale_bits}"
            )

    def reach(self, m_count: int) -> int:
        """How far a sum of m_count encodings can reach, exactly: m * round(clip * scale)
        either side of zero if signed, m * round(2 * clip * scale) above it if shifted."""
        return m_count * round(Fraction(self.clip_bound) * (1 if self.signed else 2) * self.scale)

    def ensure_float_range(self) -> None:
        """ValueError unless the scale and the largest scaled value, reach(1),
        are finite floats: scaled_values multiplies in floats. Exact, and a
        scale past float range is never built."""
        if self.scale_bits > 1023 or self.reach(1) > sys.float_info.max:
            raise ValueError(
                f"scale_bits={self.scale_bits} at clip={self.clip_bound} scales a value "
                "past float range"
            )

    def scaled_values(self, values: Iterable[float]) -> list[int]:
        """Clip each value to ±clip_bound (shifted up by it if unsigned) and scale
        it to an int, not reduced mod p: a signed codec's may be negative.
        ValueError on NaN."""
        hi = self.clip_bound
        lo, shift = -hi, 0.0 if self.signed else hi
        scale = self.scale
        return [
            round(((hi if v > hi else lo if v < lo else v) + shift) * scale)
            for v in map(float, values)
        ]

    def encode(self, values: Iterable[float], modulus: PrimeModulus) -> list[int]:
        """The scaled values reduced mod p: field elements in [0, p)."""
        p = modulus.p
        return [x % p for x in self.scaled_values(values)]

    def decode(
        self, elems: Sequence[int], modulus: PrimeModulus, m_count: int = 1
    ) -> list[float]:
        """Decode sums of m_count encodings each, values mod p, back to reals."""
        scale = self.scale
        if self.signed:
            p = modulus.p
            half = p // 2
            return [(v - p if v > half else v) / scale for v in elems]
        offset = m_count * self.clip_bound
        return [v / scale - offset for v in elems]

    def __repr__(self) -> str:
        kind = "signed" if self.signed else "shifted"
        return (
            f"FixedPointCodec(scale_bits={self.scale_bits}, "
            f"clip_bound={self.clip_bound}, {kind})"
        )
