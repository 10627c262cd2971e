"""One-time-pad masking with an aggregatable authentication tag.

Each contributor i hides its value w behind c1 = PRG(V_i(0), label) + w and
binds it with c2 = (PRG(k_i, label) - c1) / s, where k_i = V_i(i) and s is the
round's shared authentication key. Both components sum across contributors, so
an untrusted aggregator can add them blind; verifiers then check
PRG(k, label) == c2 * s + c1 against the recovered k = sum of k_i, and the sum
of inputs comes back as c1 - PRG(sum of V_i(0), label).

The PRG is key-linear: PRG(key, label) = key * H(label) mod p, with H a hash
of the label pinned into [1, p-1]. Linearity in the key is exactly what makes
the tags aggregate; it also means this is not a general-purpose PRF, so keys
must be fresh every round (the protocol layer enforces that).

Everything here is arithmetic on ints mod p, on whole vectors in the wire
format: a masked vector is a list of [c1, c2] pairs, and the label of a pair
is (round, its position in the list).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import LabelMismatch, ZeroAuthKey

__all__ = [
    "RoundLabel",
    "label_coeff",
    "sum_auth_keys",
    "mask_vector",
    "aggregate_vectors",
    "verify_vector",
    "unmask_vector",
]

_DOMAIN = b"secel/prg/v1"


class RoundLabel(NamedTuple):
    """One label per (round, element index); never reused across rounds."""

    round: int
    index: int


@lru_cache(maxsize=1 << 16)
def label_coeff(label: RoundLabel, p: int) -> int:
    """H(label), hashed into [1, p-1] so the pad never vanishes."""
    digest = hashlib.sha256(
        _DOMAIN + label.round.to_bytes(8, "big") + label.index.to_bytes(8, "big")
    ).digest()
    return 1 + int.from_bytes(digest, "big") % (p - 1)


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
    s_inv = pow(s, p - 2, p)
    out = []
    for idx, w in enumerate(values):
        h = label_coeff(RoundLabel(round_no, idx), p)
        c1 = (masking_secret * h + w) % p
        out.append([c1, (self_key * h - c1) * s_inv % p])
    return out


def aggregate_vectors(vectors: Sequence[Sequence[Sequence[int]]], p: int) -> list[list[int]]:
    """Componentwise sum mod p; every vector must carry the same labels."""
    if not vectors:
        raise ValueError("nothing to aggregate")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise LabelMismatch("vectors of different lengths")
    return [
        [sum(pair[0] for pair in column) % p, sum(pair[1] for pair in column) % p]
        for column in zip(*vectors)
    ]


def verify_vector(
    agg: Sequence[Sequence[int]], k: int, s: int, round_no: int, p: int
) -> bool:
    """PRG(k, label) == c2 * s + c1 for every element, with k the sum of k_i."""
    return all(
        (k * label_coeff(RoundLabel(round_no, idx), p) - c2 * s - c1) % p == 0
        for idx, (c1, c2) in enumerate(agg)
    )


def unmask_vector(
    agg: Sequence[Sequence[int]], masking_secret_sum: int, round_no: int, p: int
) -> list[int]:
    """Sum of inputs per element = c1 - PRG(sum of V_i(0), label)."""
    return [
        (c1 - masking_secret_sum * label_coeff(RoundLabel(round_no, idx), p)) % p
        for idx, (c1, _) in enumerate(agg)
    ]
