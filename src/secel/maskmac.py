"""One-time-pad masking with an aggregatable authentication tag.

Two definitions carry the scheme: `pads`, a key's pad for each label, and
`tag_coeffs`, the round's tag coefficient g for each label; the kernels read
these and no hash. Contributor i hides w behind c1 = pad(V_i(0)) + w and binds
it with c2 = (k_i * g - c1) / s, where k_i = V_i(i) and s is the round's shared
authentication key. Both components sum across contributors, so an untrusted
aggregator can add them blind; verifiers check k * g == c2 * s + c1 against
k = sum of k_i, and the sum of inputs is c1 - pad(sum of V_i(0)).

Both read one public hash H(label) in [1, p-1]: g = H(label), and the pad is
key * H(label) mod p. Linear in its key, the pad lets one combined pad strip
the sum, but it is not a general-purpose PRF, so s must be fresh and
unpredictable every round. A key the protocol derives by hashing the dealt key
with the round number is both, while the dealt summands stay secret. The
dealt key does not stay secret from the aggregator: each aggregate reveals its
round's s (below), and the dealing round's s is the dealt key, from which
every later key follows. Deriving keys buys liveness, not secrecy. A keyed PRF
pad would replace the first definition (the leader then sums its members'
pads instead of combining their keys), and a secret g the second.

Neither hiding nor binding holds against an aggregator that solves from what
it sees. For l >= 2, the aggregate it broadcasts reveals s: every element
satisfies c2 * s + c1 == k * H(label) with H public, so two elements solve
for s, and adding (d, -d / s) to any element passes `verify_vector`. The
aggregator alone also unmasks inputs: the pads of two elements of one
submission differ only by public factors, and w is small. And the leader's
opened share bodies, which carry each contributor's k_i and V_i(0), unmask
every input together with the submissions.

Everything here is arithmetic on ints mod p, on whole vectors in the wire
format: a masked vector is a list of [c1, c2] pairs, and the label of a pair
is (round, its position in the list). The kernels take any ints, negative or
at least p included, and reduce what they return mod p, so callers need not
reduce their inputs first. H(label) is computed once per (round,
length, modulus), as one tuple that both definitions zip over.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import LabelMismatch, ZeroAuthKey

__all__ = [
    "label_coeffs",
    "pads",
    "tag_coeffs",
    "sum_auth_keys",
    "mask_vector",
    "aggregate_vectors",
    "verify_vector",
    "unmask_vector",
]

_DOMAIN = b"secel/prg/v1"


@lru_cache(maxsize=16)
def label_coeffs(round_no: int, length: int, p: int) -> tuple[int, ...]:
    """H(label) for the labels (round_no, 0) .. (round_no, length - 1), each hashed
    into [1, p-1] so the pad never vanishes; labels never repeat across rounds."""
    head = _DOMAIN + round_no.to_bytes(8, "big")
    digests = (hashlib.sha256(head + i.to_bytes(8, "big")).digest() for i in range(length))
    return tuple(1 + int.from_bytes(d, "big") % (p - 1) for d in digests)


def pads(key: int, round_no: int, length: int, p: int) -> list[int]:
    """A key's pad for each label (round_no, 0) .. (round_no, length - 1):
    key * H(label) mod p, so the pad of a sum of keys is the sum of their pads."""
    return [key * h % p for h in label_coeffs(round_no, length, p)]


def tag_coeffs(round_no: int, length: int, p: int) -> tuple[int, ...]:
    """The round's tag coefficient g for each label: H(label), public."""
    return label_coeffs(round_no, length, p)


def sum_auth_keys(s_values: Iterable[int], p: int) -> int:
    """s = sum of the per-participant round keys mod p; zero forces a resample."""
    values = list(s_values)
    if not values:
        raise ValueError("no round keys supplied")
    total = sum(values) % p
    if total == 0:
        raise ZeroAuthKey("round authentication key summed to zero")
    return total


def mask_vector(
    values: Sequence[int],
    masking_secret: int,
    self_key: int,
    s: int,
    round_no: int,
    p: int,
) -> list[list[int]]:
    """One contributor's [c1, c2] per element: c1 = pad(V_i(0)) + w and
    c2 = (k_i * g - c1) / s. Requires the round key s != 0."""
    if s % p == 0:
        raise ZeroAuthKey("round authentication key is zero; resample the round")
    s_inv = pow(s, -1, p)
    k_s = self_key * s_inv % p  # so c2 = k_s * g - c1 * s_inv
    length = len(values)
    return [
        [c1 := (pad + w) % p, (k_s * g - c1 * s_inv) % p]
        for w, pad, g in zip(values, pads(masking_secret, round_no, length, p),
                             tag_coeffs(round_no, length, p))
    ]


def aggregate_vectors(vectors: Sequence[Sequence[Sequence[int]]], p: int) -> list[list[int]]:
    """Componentwise sum mod p; every vector must carry the same labels."""
    if not vectors:
        raise ValueError("nothing to aggregate")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise LabelMismatch("vectors of different lengths")
    out = []
    for column in zip(*vectors):
        c1 = c2 = 0
        for a, b in column:
            c1 += a
            c2 += b
        out.append([c1 % p, c2 % p])
    return out


def verify_vector(
    agg: Sequence[Sequence[int]], k: int, s: int, round_no: int, p: int
) -> bool:
    """k * g == c2 * s + c1 for every element, with k the sum of k_i."""
    return all(
        (k * g - c2 * s - c1) % p == 0
        for g, (c1, c2) in zip(tag_coeffs(round_no, len(agg), p), agg)
    )


def unmask_vector(
    agg: Sequence[Sequence[int]], masking_secret_sum: int, round_no: int, p: int
) -> list[int]:
    """Sum of inputs per element = c1 - pad(sum of V_i(0))."""
    return [
        (c1 - pad) % p
        for pad, (c1, _) in zip(pads(masking_secret_sum, round_no, len(agg), p), agg)
    ]
