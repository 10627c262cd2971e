"""Masking in the exponent of a prime-order group, for reusable setups.

Shares are wrapped as pk_j^x = G^(sk_j * x) so the dealer never ships bare
exponents. Holders unwrap first rows with sk_j^-1 mod q, computed once per
keypair, and keep second rows wrapped: those only feed the pairwise
Diffie-Hellman key, so w = G^(sk_j * A) is raised to sk_j^-1 * A' mod P - 1 in
one power. Reducing mod P - 1, not q, keeps that equal to unwrapping and then
raising for every w in [0, P), in the subgroup or not (Fermat). Dealing costs
four full-width exponentiations per ordered pair: two wraps, one unwrap, one
DH power. Reconstruction happens in the exponent (products of powers with
Lagrange coefficients), verification checks c2^s * c1 == G^(sum of PRG(k_i,
label)), and the aggregate comes back as G^(sum of inputs), decoded by
baby-step giant-step while the sum stays below a known bound. The point of the
exercise: Setup can run once and be reused, because nothing round-specific
ever leaves the exponent, and each round's key s is derived from the dealt one.

Exponent arithmetic lives in Z_q, so this module reuses the scalar masking
math with q as the field modulus and lifts the results through G^x. Masked
vectors use the scalar wire format, a list of [c1, c2] pairs, with both
components lifted.

Powers of a fixed base come from fixed-base window tables (HAC 14.6.3; Lim
and Lee, CRYPTO 1994): row i, entry d holds base^(d * 2^(w*i)), so base^e
costs one multiplication per non-zero w-bit digit of e instead of a full
exponentiation. G is fixed, so each GroupParams keeps two tables, both built
on first use and never by scalar runs. lift reads x mod q a byte at a time
(w = 8: 32 rows of 256 entries, ~0.5 MB, on the 256-bit group). bsgs keeps
its baby-step table {G^j: j < m} and giant step G^(-m) per step size m, with
m = 8 * ceil(sqrt(bound)) capped at 2^16, so decoding a vector builds them
once and each element takes about sqrt(bound) / 8 giant steps.

group_unmask raises one base, the pad, to a fresh exponent per element, so
it builds a 4-bit table of that base (64 rows of 16 entries on the 256-bit
group) and drops it on return.

group_verify checks the whole vector at once on safe-prime groups (P = 2q + 1,
both built-in groups): one small-exponents batch test (Bellare, Garay and
Rabin, EUROCRYPT 1998) with secret 64-bit weights, whose two products come
from one multi-exponentiation each (Pippenger's buckets, sharing squarings
as in HAC 14.6.1), so a round's tag check costs two full-width
exponentiations whatever its length. A group with
a larger cofactor keeps the per-element check; group_verify's docstring says
why.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import isqrt
from typing import Sequence

from .algebra import PrimeModulus, is_probable_prime, lagrange_coeffs_at
from .errors import InsufficientShares, LabelMismatch, NotFound
from .maskmac import label_coeffs, mask_vector

__all__ = [
    "GroupParams",
    "KeyPair",
    "TOY_GROUP",
    "DEFAULT_GROUP",
    "wrap_share",
    "unwrap_share",
    "exp_lagrange_at",
    "exp_lagrange_at_zero",
    "group_mask_vector",
    "group_aggregate",
    "combine_key_lifts",
    "group_verify",
    "group_unmask",
    "bsgs",
]

LIFT_WINDOW_BITS = 8  # lift reads the exponent a byte at a time
CALL_WINDOW_BITS = 4  # per-call tables: 15 multiplications per row to build
BABY_STEP_TABLES = 4  # BSGS tables kept per group, one per giant-step size
BABY_STEP_WIDTH = 8  # baby steps per sqrt(bound)
BABY_STEP_CAP = 1 << 16  # sqrt of bsgs's largest bound, so never below sqrt(bound)
BATCH_WEIGHT_BYTES = 8  # batch weights r_i lie in [1, 2^64]
_BATCH_DOMAIN = b"secel/batch-verify/v1"
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def window_rows(base: int, p: int, bits: int, width: int) -> list[list[int]]:
    """Fixed-base table for exponents below 2^bits, read width (4 or 8) bits at a time.

    Row i, entry d holds base^(d * 2^(width * i)) mod p.
    """
    size = 1 << width
    rows = []
    for _ in range(-(-bits // width)):
        row = [1] * size
        for d in range(1, size):
            row[d] = row[d - 1] * base % p
        rows.append(row)
        base = row[-1] * base % p
    return rows


def window_pow(rows: list[list[int]], e: int, p: int) -> int:
    """base^e mod p from the window_rows table of base, for 0 <= e < 2^(width*rows)."""
    if len(rows[0]) == 256:  # 8-bit rows: the bytes of e, least significant first
        digits = e.to_bytes(len(rows), "little")
    else:  # 4-bit rows: the hex digits of e, least significant first
        digits = f"{e:0{len(rows)}x}".encode().translate(_HEX_DIGITS)[::-1]
    acc = 1
    for row, d in zip(rows, digits, strict=True):
        if d:
            acc = acc * row[d] % p
    return acc


def multi_pow(bases: Sequence[int], exps: Sequence[int], p: int) -> int:
    """Product of bases[i]^exps[i] mod p for short exponents >= 0.

    Pippenger's bucket method with 4-bit windows, which shares the squarings
    among all bases as HAC 14.6.1's simultaneous multiple exponentiation
    does. From the top window down, the accumulator is raised to the 16th
    power and each base is multiplied into the bucket of its digit there;
    the sum of d * bucket_d then takes 30 running-product multiplications.
    A window costs one multiplication per base plus a fixed 35, where
    separate exponentiations would pay one squaring chain per base.
    """
    width = -(-max(exps, default=0).bit_length() // 4)
    digits = [f"{e:0{width}x}".encode().translate(_HEX_DIGITS) for e in exps]
    acc = 1
    for column in zip(*digits):
        for _ in range(4):
            acc = acc * acc % p
        buckets = [1] * 16
        for base, d in zip(bases, column):
            buckets[d] = buckets[d] * base % p
        run = total = 1
        for d in range(15, 0, -1):
            run = run * buckets[d] % p
            total = total * run % p
        acc = acc * total % p
    return acc


class GroupParams:
    """A prime-order-q subgroup of Z_P^*, generated by g, with its lazy G^x tables."""

    __slots__ = ("p", "q", "g", "_lift_rows", "_bsgs_tables")

    def __init__(self, p: int, q: int, g: int):
        if not is_probable_prime(p):
            raise ValueError(f"group modulus {p} is not prime")
        if not is_probable_prime(q):
            raise ValueError(f"subgroup order {q} is not prime")
        if (p - 1) % q != 0:
            raise ValueError("q must divide p - 1")
        g %= p
        if g in (0, 1) or pow(g, q, p) != 1:
            raise ValueError("g does not generate an order-q subgroup")
        self.p = p
        self.q = q
        self.g = g
        self._lift_rows: list[list[int]] | None = None
        self._bsgs_tables: dict[int, tuple[dict[int, int], int]] = {}

    def exponent_field(self) -> PrimeModulus:
        """Z_q, where all share/key arithmetic for this variant happens."""
        return PrimeModulus(self.q)

    def lift(self, x: int) -> int:
        """G^x for an exponent x (reduced mod q), from the byte-wide table of G."""
        rows = self._lift_rows
        if rows is None:
            rows = self._lift_rows = window_rows(
                self.g, self.p, self.q.bit_length(), LIFT_WINDOW_BITS
            )
        return window_pow(rows, x % self.q, self.p)

    def baby_steps(self, m: int) -> tuple[dict[int, int], int]:
        """BSGS tables for giant-step size m: {G^j: j for j < m} and G^(-m).

        Built once per m and kept, for the last BABY_STEP_TABLES sizes built.
        """
        cached = self._bsgs_tables.get(m)
        if cached is None:
            table: dict[int, int] = {}
            e = 1
            for j in range(m):
                table.setdefault(e, j)
                e = (e * self.g) % self.p
            cached = (table, self.lift(-m))
            if len(self._bsgs_tables) >= BABY_STEP_TABLES:
                del self._bsgs_tables[next(iter(self._bsgs_tables))]
            self._bsgs_tables[m] = cached
        return cached

    def __repr__(self) -> str:
        return f"GroupParams(p={self.p}, q={self.q}, g={self.g})"


# 61-bit-order toy group: P = 2q + 1 is a safe prime, g = 4 = 2^2 lands in the
# order-q quadratic-residue subgroup. Big enough for 2^32 BSGS bounds, small
# enough to keep exhaustive tests quick.
TOY_GROUP = GroupParams(
    p=4611686018427377339,
    q=2305843009213688669,
    g=4,
)

# 256-bit-order safe-prime group for realistic runs (generated once, pinned).
DEFAULT_GROUP = GroupParams(
    p=115792089237316195423570985008687907853269984665640564039457584007913129870127,
    q=57896044618658097711785492504343953926634992332820282019728792003956564935063,
    g=4,
)


@dataclass(frozen=True)
class KeyPair:
    """Unwrapping keypair: sk in [1, q-1], pk = G^sk, sk_inv = sk^-1 mod q."""

    sk: int
    pk: int
    sk_inv: int

    @classmethod
    def generate(cls, params: GroupParams, rng: random.Random) -> KeyPair:
        sk = 1 + rng.randrange(params.q - 1)
        return cls(sk=sk, pk=params.lift(sk), sk_inv=pow(sk, -1, params.q))


def wrap_share(exponent_value: int, recipient_pk: int, params: GroupParams) -> int:
    """pk_j^x = G^(sk_j * x): dealt form of a share destined for holder j."""
    return pow(recipient_pk, exponent_value % params.q, params.p)


def unwrap_share(wrapped: int, sk_inv: int, params: GroupParams) -> int:
    """Strip the holder's key with its KeyPair.sk_inv: (G^(sk*x))^(sk^-1 mod q) = G^x."""
    return pow(wrapped, sk_inv, params.p)


def exp_lagrange_at(
    points: Sequence[tuple[int, int]], x0: int, t: int, params: GroupParams
) -> int:
    """Interpolate in the exponent: product of Y_j^(lambda_j) over t points.

    points are (share id, G^(f(id))) pairs; the result is G^(f(x0)).
    """
    if len(points) < t:
        raise InsufficientShares(f"need {t} points, got {len(points)}")
    use = list(points[:t])
    xs = [x for x, _ in use]
    lams = lagrange_coeffs_at(xs, x0 % params.q, params.q)
    acc = 1
    for (_, y), lam in zip(use, lams):
        acc = (acc * pow(y, lam, params.p)) % params.p
    return acc


def exp_lagrange_at_zero(
    points: Sequence[tuple[int, int]], t: int, params: GroupParams
) -> int:
    """G^(f(0)) from t wrapped-then-unwrapped shares G^(f(id))."""
    if any(x % params.q == 0 for x, _ in points[:t]):
        raise ValueError("x = 0 is reserved for the secret")
    return exp_lagrange_at(points, 0, t, params)


# ---- masking in the exponent -------------------------------------------------------


def group_mask_vector(
    values: Sequence[int],
    masking_secret: int,
    self_key: int,
    s: int,
    round_no: int,
    params: GroupParams,
) -> list[list[int]]:
    """The scalar [c1, c2] pairs of mask_vector over Z_q, each lifted to G^c.

    The contributor knows all its exponents, so the scalar math runs locally;
    only group elements go on the wire.
    """
    lift = params.lift
    return [
        [lift(c1), lift(c2)]
        for c1, c2 in mask_vector(values, masking_secret, self_key, s, round_no, params.q)
    ]


def group_aggregate(
    vectors: Sequence[Sequence[Sequence[int]]], params: GroupParams
) -> list[list[int]]:
    """Componentwise product: multiplying lifts adds the hidden exponents."""
    if not vectors:
        raise ValueError("nothing to aggregate")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise LabelMismatch("vectors of different lengths")
    p = params.p
    out = []
    for column in zip(*vectors):
        c1 = c2 = 1
        for a, b in column:
            c1 = (c1 * a) % p
            c2 = (c2 * b) % p
        out.append([c1, c2])
    return out


def combine_key_lifts(key_lifts: Sequence[int], params: GroupParams) -> int:
    """Product of G^(k_i) values -> G^k, the verification base."""
    acc = 1
    for y in key_lifts:
        acc = (acc * y) % params.p
    return acc


def batch_weights(s: int, round_no: int, length: int, params: GroupParams) -> list[int]:
    """The batch tag check's weights r_i in [1, 2^64], one per element index.

    r_i = 1 + the first 8 bytes of SHA-256(domain || s || round || i), with s
    the verifier's secret round key, so the aggregator cannot predict them.
    """
    q = params.q
    prefix = hashlib.sha256(
        _BATCH_DOMAIN
        + (s % q).to_bytes(-(-q.bit_length() // 8), "big")
        + round_no.to_bytes(8, "big")
    )
    weights = []
    for idx in range(length):
        h = prefix.copy()
        h.update(idx.to_bytes(8, "big"))
        weights.append(1 + int.from_bytes(h.digest()[:BATCH_WEIGHT_BYTES], "big"))
    return weights


def group_verify(
    agg: Sequence[Sequence[int]],
    g_k: int,
    s: int,
    round_no: int,
    params: GroupParams,
) -> bool:
    """Check c2^s * c1 == G^(sum of PRG(k_i, label)) for every element.

    The right side is (G^k)^h_i with h_i = H(label_i): the label coefficient
    is public, so the verifier only needs the recovered lift of the combined
    key.

    On a safe-prime group (P = 2q + 1) every element is checked at once, by
    one small-exponents batch test with the secret weights r_i of
    batch_weights:

        (prod c2_i^r_i)^s * prod c1_i^r_i == (G^k)^(sum r_i * h_i mod q)

    Why that suffices: Z_P^* = {+-1} x QR_P, with QR_P the order-q subgroup.
    Write e_i = c2_i^s * c1_i / (G^k)^h_i as sign_i * u_i with u_i in QR_P.
    The test passes iff prod e_i^r_i == 1, which needs prod u_i^r_i == 1. If
    some u_j != 1, that fixes r_j mod q given the other weights, and an
    aggregator who does not know s hits it with probability about 2^-64
    (2^-61 on the toy group, whose q is below 2^64). So a passing batch
    proves each element's equation up to sign: the QR_P parts of c1_i and
    c2_i pass the per-element check, and only the signs of the components
    can be off. Either way the round still ends in one of its two outcomes:
      - c1 off by sign: unmask yields -G^x, outside the subgroup; the
        baby-step table holds only subgroup elements, so the decode fails
        and the round ends in a named DecodeFailure.
      - c2 alone off by sign: unmask never reads c2, so the decoded sum is
        exact.
    A zero component still fails: zero absorbs the product it is in.

    The sign argument needs the cofactor 2, so a group with a larger
    cofactor checks each element on its own, reading the powers of G^k from
    a window table built once per call.
    """
    p, q = params.p, params.q
    s %= q
    if p == 2 * q + 1:
        weights = batch_weights(s, round_no, len(agg), params)
        c2_prod = multi_pow([c2 for _, c2 in agg], weights, p)
        c1_prod = multi_pow([c1 for c1, _ in agg], weights, p)
        e = sum(r * h for r, h in zip(weights, label_coeffs(round_no, len(agg), q)))
        return pow(c2_prod, s, p) * c1_prod % p == pow(g_k, e % q, p)
    g_k_rows = window_rows(g_k, p, q.bit_length(), CALL_WINDOW_BITS)
    for h, (c1, c2) in zip(label_coeffs(round_no, len(agg), q), agg):
        if (pow(c2, s, p) * c1) % p != window_pow(g_k_rows, h, p):
            return False
    return True


def group_unmask(
    agg: Sequence[Sequence[int]],
    g_pad_base: int,
    round_no: int,
    params: GroupParams,
) -> list[int]:
    """Strip the pad: G^(sum w) = c1 * (G^(sum V_i(0)))^(q - H(label)).

    The pad base lies in the order-q subgroup, so its (q - h)-th power is the
    inverse of its h-th power: one table read per element.
    """
    p, q = params.p, params.q
    pad_rows = window_rows(g_pad_base, p, q.bit_length(), CALL_WINDOW_BITS)
    out = []
    for h, (c1, _) in zip(label_coeffs(round_no, len(agg), q), agg):
        out.append((c1 * window_pow(pad_rows, q - h, p)) % p)
    return out


def baby_step_count(bound: int) -> int:
    """Baby-step table size for bsgs: 8 * ceil(sqrt(bound)), capped at 2^16.

    The table is built once per size and kept, so the wider it is the fewer
    giant steps each element takes; time and memory still grow as sqrt(bound).
    """
    return min(BABY_STEP_WIDTH * (isqrt(bound - 1) + 1), BABY_STEP_CAP)


def bsgs(h: int, bound: int, params: GroupParams) -> int:
    """Discrete log of h base G, assuming it lies in [0, bound).

    Baby-step giant-step: O(sqrt(bound)) time and memory. Raises NotFound
    when no exponent below the bound matches.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > (1 << 32):
        raise ValueError("bound above 2^32; dense decode would be impractical")
    m = baby_step_count(bound)
    table, factor = params.baby_steps(m)  # factor = G^(-m)
    gamma = h % params.p
    for i in range((bound - 1) // m + 1):
        j = table.get(gamma)
        if j is not None:
            x = i * m + j
            if x < bound:
                return x
        gamma = (gamma * factor) % params.p
    raise NotFound(f"no exponent below {bound} matches")
