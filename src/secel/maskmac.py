"""One-time-pad masking with an aggregatable authentication tag.

Each contributor i hides its value w behind c1 = PRG(V_i(0), label) + w and
binds it with c2 = (PRG(k_i, label) - c1) / s, where k_i = V_i(i) and s is the
round's shared authentication key. Both components sum across contributors, so
an untrusted aggregator can add them blind; verifiers then check
PRG(k, label) == c2 * s + c1 against the recovered k = sum of k_i, and the sum
of inputs comes back as c1 - PRG(sum of V_i(0), label).

The PRG is key-linear: PRG(key, label) = key * H(label) mod p, with H a hash
of the label pinned into [1, p-1]. Linearity in the key is exactly what makes
the tags aggregate; it also means this is not a general-purpose PRF, so s must
be fresh and unpredictable every round. A key the protocol derives by hashing
the dealt key with the round number is both, while the dealt summands stay
secret. The dealt key does not stay secret from the aggregator: each aggregate
reveals its round's s (below), and the dealing round's s is the dealt key, from
which every later key follows. Deriving keys buys liveness, not secrecy.

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
is (round, its position in the list). H(label) is computed once per (round,
length, modulus), as one tuple that every kernel of the round zips over.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import LabelMismatch, ZeroAuthKey

__all__ = [
    "label_coeffs",
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
    """One contributor's [c1, c2] per element: c1 = PRG(V_i(0), label) + w and
    c2 = (PRG(k_i, label) - c1) / s. Requires the round key s != 0."""
    if s % p == 0:
        raise ZeroAuthKey("round authentication key is zero; resample the round")
    # c2 = (k_i*h - V_i(0)*h - w) / s = a*h - w/s, with a = (k_i - V_i(0)) / s
    s_inv = pow(s, -1, p)
    a = (self_key - masking_secret) * s_inv % p
    return [
        [(masking_secret * h + w) % p, (a * h - s_inv * w) % p]
        for w, h in zip(values, label_coeffs(round_no, len(values), p))
    ]


def aggregate_vectors(vectors: Sequence[Sequence[Sequence[int]]], p: int) -> list[list[int]]:
    """Componentwise sum mod p; every vector must carry the same labels."""
    if not vectors:
        raise ValueError("nothing to aggregate")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise LabelMismatch("vectors of different lengths")
    c1_cols = zip(*[[pair[0] for pair in v] for v in vectors])
    c2_cols = zip(*[[pair[1] for pair in v] for v in vectors])
    return [[c1 % p, c2 % p] for c1, c2 in zip(map(sum, c1_cols), map(sum, c2_cols))]


def verify_vector(
    agg: Sequence[Sequence[int]], k: int, s: int, round_no: int, p: int
) -> bool:
    """PRG(k, label) == c2 * s + c1 for every element, with k the sum of k_i."""
    return all(
        (k * h - c2 * s - c1) % p == 0
        for h, (c1, c2) in zip(label_coeffs(round_no, len(agg), p), agg)
    )


def unmask_vector(
    agg: Sequence[Sequence[int]], masking_secret_sum: int, round_no: int, p: int
) -> list[int]:
    """Sum of inputs per element = c1 - PRG(sum of V_i(0), label)."""
    return [
        (c1 - masking_secret_sum * h) % p
        for h, (c1, _) in zip(label_coeffs(round_no, len(agg), p), agg)
    ]
