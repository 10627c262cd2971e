"""The adversary library: each attack beats its positive control, and none
beats the protocol as `run_rounds` runs it."""

import hashlib
import random

import pytest

from adversary import (
    forge_two_element,
    frozen_share_body,
    leader_view,
    rebuild_pair_keys,
    second_rows,
    solve_round_key,
    true_pair_keys,
)
from secel.algebra import DEFAULT_PRIME, FixedPointCodec, PrimeModulus
from secel.protocol import VARIANTS, RoundSpec, run_rounds
from secel.simnet import SimConfig


def run_six(variant: str, share_loss=()):
    spec = RoundSpec(n=6, t=3, length=2, variant=variant, share_loss=share_loss)
    return run_rounds(spec, SimConfig(seed=1, n=6))


def test_f_rebuilds_every_other_pair_key_from_the_frozen_share_bodies():
    result = run_six("scalar")
    r = result.rounds[0]
    assert r.phase == "done"
    others = [j for j in r.t_set if j != r.leader]
    view = {j: [frozen_share_body(result.nodes[j], r.m_set)] for j in others}
    claims = rebuild_pair_keys(view, result.spec.arith().p)
    pairs = {(i, j) for i in others for j in others if i < j}
    assert len(pairs) == 10 and true_pair_keys(result, claims) == pairs


@pytest.mark.parametrize("share_loss", [(), (2, 5)], ids=["honest", "share_loss"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_f_rebuilds_no_pair_key_from_what_the_leader_opens(variant, share_loss):
    result = run_six(variant, share_loss)
    r = result.rounds[0]
    assert r.phase == "done" and r.recovered == list(share_loss)
    view = leader_view(result)
    assert set(view) == set(range(1, 7)) - {r.leader}
    if share_loss and variant == "scalar":
        # the losers' second rows do reach the leader, but never both rows of a pair
        assert {q for q, _ in second_rows(view)} == set(share_loss)
    claims = rebuild_pair_keys(view, result.spec.arith().p)
    assert true_pair_keys(result, claims) == set()


# ---- (d): a frozen copy of the key-linear kernels, pad V_i(0) * h and tag k_i * h


def frozen_labels(round_no: int, length: int, p: int) -> tuple[int, ...]:
    head = b"secel/prg/v1" + round_no.to_bytes(8, "big")
    return tuple(
        1 + int.from_bytes(hashlib.sha256(head + i.to_bytes(8, "big")).digest(), "big") % (p - 1)
        for i in range(length)
    )


def frozen_mask(values, masking_secret, self_key, s, round_no, p):
    s_inv = pow(s, -1, p)
    return [
        [(masking_secret * h + w) % p, (self_key * h - masking_secret * h - w) * s_inv % p]
        for w, h in zip(values, frozen_labels(round_no, len(values), p))
    ]


def frozen_verify(agg, k, s, round_no, p):
    return all(
        (k * h - c2 * s - c1) % p == 0
        for h, (c1, c2) in zip(frozen_labels(round_no, len(agg), p), agg)
    )


def frozen_unmask(agg, masking_secret_sum, round_no, p):
    labels = frozen_labels(round_no, len(agg), p)
    return [(c1 - masking_secret_sum * h) % p for h, (c1, _) in zip(labels, agg)]


@pytest.mark.parametrize("seed", range(5))
def test_d_forges_an_aggregate_the_frozen_key_linear_tag_accepts(seed):
    rng = random.Random(seed)
    p, n, length, round_no = DEFAULT_PRIME, 6, 4, seed
    codec = FixedPointCodec()  # the default 16 scale bits
    pads = [rng.randrange(p) for _ in range(n)]  # each V_i(0)
    keys = [rng.randrange(p) for _ in range(n)]  # each k_i
    s = 1 + rng.randrange(p - 1)
    inputs = [codec.scaled_values(rng.uniform(-1, 1) for _ in range(length)) for _ in range(n)]
    subs = [frozen_mask(w, v, k, s, round_no, p) for w, v, k in zip(inputs, pads, keys)]
    agg = [[sum(column) % p for column in zip(*pairs)] for pairs in zip(*subs)]
    k, v = sum(keys) % p, sum(pads) % p
    assert frozen_verify(agg, k, s, round_no, p)

    h = frozen_labels(round_no, length, p)  # public: the aggregator computes them too
    assert solve_round_key(agg, h, p) == s
    delta = 5 << codec.scale_bits  # +5.0 once decoded
    forged = forge_two_element(agg, h, p, delta)
    assert frozen_verify(forged, k, s, round_no, p)
    honest, shifted = frozen_unmask(agg, v, round_no, p), frozen_unmask(forged, v, round_no, p)
    assert [(b - a) % p for a, b in zip(honest, shifted)] == [delta, 0, 0, 0]
    field = PrimeModulus(p)
    decoded, forged_decoded = codec.decode(honest, field, n), codec.decode(shifted, field, n)
    assert forged_decoded == [decoded[0] + 5.0, *decoded[1:]]
