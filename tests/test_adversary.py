"""The adversary library: each attack beats its positive control, and none
beats the protocol as `run_rounds` runs it."""

import hashlib
import random

import pytest

from adversary import (
    forge_two_element,
    frozen_share_body,
    leader_view,
    linear_search_unmask,
    meet_in_the_middle_unmask,
    rebuild_pad_keys,
    rebuild_pair_keys,
    rogue_rows_request,
    second_rows,
    solve_round_key,
    true_pair_keys,
    unmask_with_self_pads,
)
from secel.algebra import DEFAULT_PRIME, FixedPointCodec, PrimeModulus
from secel.group_variant import DEFAULT_GROUP
from secel.protocol import VARIANTS, ParticipantNode, RoundSpec, run_rounds
from secel.simnet import SimConfig, secure_recv


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


ROGUE = 2  # a peer, behind party 1, which leads every round 0 here


def run_with_rogue(monkeypatch, variant: str, seed: int):
    """A run in which ROGUE sends `rogue_rows_request` as verification opens,
    before the first turn, and the rows bodies it opened, by sender."""
    start, on_message = ParticipantNode.on_phase_start, ParticipantNode.on_message
    opened: dict[int, list[dict]] = {}

    def ask(node, sim, phase):
        start(node, sim, phase)
        if phase == "verification" and node.id == ROGUE:
            rogue_rows_request(node, sim)

    def open_answers(node, sim, env):
        if node.id == ROGUE and env.kind == "rows_resp":
            opened.setdefault(env.src, []).append(secure_recv(node.chan_key(env.src), env))
        on_message(node, sim, env)

    monkeypatch.setattr(ParticipantNode, "on_phase_start", ask)
    monkeypatch.setattr(ParticipantNode, "on_message", open_answers)
    return run_rounds({"seed": seed, "n": 5, "t": 3, "variant": variant}), opened


@pytest.mark.parametrize("variant", VARIANTS)
def test_f_rebuilds_pad_and_pair_keys_from_rows_answered_to_any_asker(variant):
    """The control: holders that answered the rogue as they answer their
    leader would give away every other member's pad key, and in the scalar
    variant every channel key of a pair the rogue is not part of."""
    for seed in range(4):
        result = run_rounds({"seed": seed, "n": 5, "t": 3, "variant": variant})
        nodes, others = result.nodes, [1, 3, 4, 5]
        view = {j: [nodes[j]._rows_body(others, others)] for j in others}
        arith = result.spec.arith()
        pads = rebuild_pad_keys(view, arith, t=3)
        assert pads == {i: nodes[i]._self_keys()[1] for i in others}
        pairs = true_pair_keys(result, rebuild_pair_keys(view, arith.p))
        assert len(pairs) == (6 if variant == "scalar" else 0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_f_a_rogue_rows_request_draws_no_answer(monkeypatch, variant):
    for seed in range(4):
        result, opened = run_with_rogue(monkeypatch, variant, seed)
        answers = result.transcript.count(type="send", kind="rows_resp", dst=ROGUE)
        assert answers == 0 and opened == {}
        assert result.rounds[0].phase == "done"


# ---- (a)-(d): a frozen copy of the key-linear kernels, pad V_i(0) * h and tag k_i * h


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


def frozen_round(seed: int, n: int = 6, length: int = 4):
    """Round `seed` of the frozen kernels at the default prime: each
    contributor's pad key V_i(0), tag key k_i and scaled inputs, the round
    key s, and the submissions."""
    rng = random.Random(seed)
    p, codec = DEFAULT_PRIME, FixedPointCodec()  # the default 16 scale bits
    pads = [rng.randrange(p) for _ in range(n)]  # each V_i(0)
    keys = [rng.randrange(p) for _ in range(n)]  # each k_i
    s = 1 + rng.randrange(p - 1)
    inputs = [codec.scaled_values(rng.uniform(-1, 1) for _ in range(length)) for _ in range(n)]
    subs = [frozen_mask(w, v, k, s, seed, p) for w, v, k in zip(inputs, pads, keys)]
    return pads, keys, s, inputs, subs


@pytest.mark.parametrize("seed", range(5))
def test_c_unmasks_every_frozen_submission_with_the_self_pads_the_leader_opens(seed):
    p, round_no = DEFAULT_PRIME, seed
    pads, keys, _, inputs, subs = frozen_round(seed)
    ids = range(1, len(subs) + 1)
    view = {i: [{"self": [k, v]}] for i, k, v in zip(ids, keys, pads)}  # as share bodies carry it
    submissions = dict(zip(ids, subs))  # what the aggregator receives
    h = frozen_labels(round_no, len(subs[0]), p)  # public
    recovered = unmask_with_self_pads(view, submissions, h, p)
    assert recovered == {i: [w % p for w in ws] for i, ws in zip(ids, inputs)}


@pytest.mark.parametrize("seed", range(5))
def test_d_forges_an_aggregate_the_frozen_key_linear_tag_accepts(seed):
    p, n, length, round_no = DEFAULT_PRIME, 6, 4, seed
    codec = FixedPointCodec()  # the default 16 scale bits
    pads, keys, s, inputs, subs = frozen_round(seed, n, length)
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



def test_a_the_aggregator_alone_unmasks_every_frozen_submission_by_a_linear_search():
    # seed 3, n=5, l=4 at the default codec: each search steps w_1 from -2^20
    p, round_no = DEFAULT_PRIME, 3
    _, _, _, inputs, subs = frozen_round(round_no, n=5, length=4)
    h = frozen_labels(round_no, 4, p)  # public
    recovered = [linear_search_unmask(sub, h, p) for sub in subs]
    # every input to the codec's 2^-16 step
    assert recovered == [[w % p for w in ws] for ws in inputs]


def frozen_group_round(seed: int, n: int = 5, length: int = 4):
    """Round `seed` of the frozen kernels run over Z_q and lifted to G^c on the
    256-bit group, at the group codec's defaults: the scaled inputs, shifted
    into [0, 2 * clip], and the submissions."""
    rng = random.Random(seed)
    group, codec = DEFAULT_GROUP, FixedPointCodec(10, signed=False)
    q = group.q
    s = 1 + rng.randrange(q - 1)
    inputs = [codec.scaled_values(rng.uniform(-8, 8) for _ in range(length)) for _ in range(n)]
    subs = [
        [[group.lift(c1), group.lift(c2)] for c1, c2 in frozen_mask(
            w, rng.randrange(q), rng.randrange(q), s, seed, q
        )]
        for w in inputs
    ]
    return codec, inputs, subs


def test_b_the_aggregator_alone_unmasks_every_lifted_frozen_submission_by_a_meet_in_the_middle():
    round_no = 3
    codec, inputs, subs = frozen_group_round(round_no)
    h = frozen_labels(round_no, 4, DEFAULT_GROUP.q)  # public
    bound = round(2 * codec.clip_bound * codec.scale) + 1  # one contributor's decode range
    assert meet_in_the_middle_unmask(subs, h, DEFAULT_GROUP, bound) == inputs
