"""End-to-end protocol rounds on the simulator: happy paths, faults, recovery."""

import copy
import gc
import json
import math
import random
import tracemalloc
import weakref
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secel.errors import AuthFailure, ConfigError
import secel.group_variant as group_variant
import secel.protocol as protocol
import secel.simnet as simnet
from secel.group_variant import DEFAULT_GROUP, TOY_GROUP, GroupParams, unwrap_share
from secel.algebra import DEFAULT_PRIME, PrimeModulus
from secel.cli import main as cli_main
from secel.protocol import (
    VARIANTS,
    GroupArith,
    ParticipantNode,
    RoundSpec,
    ScenarioResult,
    run_rounds,
    run_setup,
)
from secel.sharing import pairwise_key
from secel.simnet import (
    AGGREGATOR_ID,
    DEFAULT_BUDGETS,
    FAULT_ACTIONS,
    PHASES,
    Fault,
    SimConfig,
    Simulator,
    canonical_json,
    channel_key,
)
import netdraw
from adversary import frozen_share_body
from netdraw import NAMED_REJECTIONS, field_sum_oracle
from test_digest_sweep import sweep_document
from test_golden import SCENARIOS


def clipped_float_sum(result: ScenarioResult, members):
    codec = result.spec.codec()
    clip = codec.clip_bound
    return [
        sum(min(max(result.inputs[i][j], -clip), clip) for i in members)
        for j in range(result.spec.length)
    ]


FLAGSHIP_SPEC = dict(n=7, t=3, length=5, s_min=3, share_loss=(4, 5, 6, 7))
FLAGSHIP_FAULTS = [
    Fault(id=3, phase="masking", action="drop_outbound"),
    Fault(id=6, phase="masking", action="disconnect"),
    Fault(id=7, phase="masking", action="disconnect"),
]


def run_flagship(seed=11, extra_faults=()):
    spec = RoundSpec(**FLAGSHIP_SPEC)
    cfg = SimConfig(seed=seed, n=7, faults=FLAGSHIP_FAULTS + list(extra_faults))
    return run_rounds(spec, cfg)


# ---- fault-free rounds --------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5])
def test_zero_fault_round_is_exact(n):
    spec = RoundSpec(n=n, t=2, length=8)
    result = run_rounds(spec, SimConfig(seed=n, n=n))
    r = result.rounds[0]
    assert r.phase == "done" and r.verified is True and r.error is None
    assert r.t_set == r.m_set == r.u_set == spec.participant_ids
    assert r.failed == [] and r.recovered == []
    assert r.field_sum == field_sum_oracle(result, r.m_set)
    truth = clipped_float_sum(result, r.m_set)
    tol = len(r.m_set) * 2**-16
    assert all(abs(a - b) <= tol for a, b in zip(r.decrypted, truth))
    # every contributor ends the round holding the same plaintext
    assert r.delivered_to == spec.participant_ids
    for i in spec.participant_ids:
        assert result.nodes[i].plaintext == r.decrypted


def test_round_result_vs_plaintext_only_differs_by_quantization():
    spec = RoundSpec(n=4, t=2, length=6)
    result = run_rounds(spec, SimConfig(seed=21, n=4))
    r = result.rounds[0]
    truth = clipped_float_sum(result, r.m_set)
    assert max(abs(a - b) for a, b in zip(r.decrypted, truth)) <= 4 * 2**-16


def test_multi_round_scalar_redeals_every_round():
    spec = RoundSpec(n=4, t=2, length=3, rounds=3)
    result = run_rounds(spec, SimConfig(seed=2, n=4))
    assert [r.phase for r in result.rounds] == ["done"] * 3
    assert all(r.verified for r in result.rounds)
    # fresh dealing each round: n*(n-1) first-round shares per round
    assert result.transcript.count(type="send", kind="setup1") == 3 * 4 * 3
    # same inputs every round -> identical sums
    assert result.rounds[0].field_sum == result.rounds[1].field_sum


def test_single_contributor_quorum_edge():
    spec = RoundSpec(n=2, t=2, length=3, s_min=1)
    faults = [Fault(id=2, phase="masking", action="disconnect")]
    result = run_rounds(spec, SimConfig(seed=6, n=2, faults=faults))
    r = result.rounds[0]
    assert r.phase == "done" and r.m_set == [1] and r.failed == [2]
    assert r.field_sum == field_sum_oracle(result, [1])
    truth = clipped_float_sum(result, [1])
    assert all(abs(a - b) <= 2**-16 for a, b in zip(r.decrypted, truth))


# ---- the flagship dropout scenario ---------------------------------------------------


def test_flagship_scenario_memberships_and_recovery():
    result = run_flagship()
    r = result.rounds[0]
    assert r.phase == "done" and r.verified is True
    assert r.t_set == [1, 2, 3]
    assert r.m_set == [1, 2, 4, 5]
    assert r.u_set == [1, 2, 3, 4, 5]
    assert r.failed == [3, 6, 7]
    assert r.leader in (1, 2, 3)
    assert r.recovered == [4, 5]
    assert result.transcript.count(type="note", note="recover", what="lost_share") == 2
    assert r.field_sum == field_sum_oracle(result, r.m_set)


def test_flagship_share_losers_decrypt_the_same_sum():
    result = run_flagship()
    r = result.rounds[0]
    four, five = result.nodes[4], result.nodes[5]
    assert four.plaintext is not None and four.plaintext == five.plaintext
    assert four.plaintext == r.decrypted
    truth = clipped_float_sum(result, r.m_set)
    tol = len(r.m_set) * 2**-16
    assert all(abs(a - b) <= tol for a, b in zip(four.plaintext, truth))


def test_flagship_restored_share_matches_dealt_polynomials():
    result = run_flagship()
    for q in (4, 5):
        restored = result.nodes[q].own_share
        assert restored is not None
        expected = sum(
            result.nodes[i].dealer.v_poly.eval(q) for i in range(1, 8)
        ) % result.spec.field_modulus().p
        assert restored == expected


def test_flagship_plaintext_gating():
    result = run_flagship()
    r = result.rounds[0]
    # plaintext goes to online contributors only; everyone else gets a verdict
    assert r.delivered_to == [1, 2, 4, 5]
    for i in (6, 7):  # offline throughout: nothing at all
        assert result.nodes[i].plaintext is None
    node3 = result.nodes[3]
    if r.leader == 3:
        assert node3.plaintext is None and node3.status == "done"
    # masked submissions are the only traffic the aggregator ever receives
    for rec in result.transcript.records:
        if rec.get("type") == "deliver" and rec.get("dst") == 0:
            assert rec["kind"] == "submission"


def test_flagship_is_deterministic_end_to_end():
    a = run_flagship(seed=42).transcript.to_ndjson()
    b = run_flagship(seed=42).transcript.to_ndjson()
    c = run_flagship(seed=43).transcript.to_ndjson()
    assert a == b and a != c


@pytest.mark.parametrize("seed", [11, 12, 99])
def test_removing_one_green_fails_recovery_deterministically(seed):
    extra = [Fault(id=3, phase="verification", action="disconnect")]
    result = run_flagship(seed=seed, extra_faults=extra)
    r = result.rounds[0]
    assert r.phase == "rejected"
    assert r.error == "RecoveryQuorumFailure"
    assert r.delivered_to == []
    assert result.transcript.count(type="send", kind="result") == 0
    # one helper and the leader cannot reach t=3: no rows are fetched in vain
    assert result.transcript.count(type="send", kind="rows_req") == 0


# ---- failure modes ----------------------------------------------------------------------


def test_silent_dealer_aborts_setup():
    spec = RoundSpec(n=4, t=2, length=3)
    faults = [Fault(id=2, phase="setup", action="disconnect")]
    result = run_rounds(spec, SimConfig(seed=3, n=4, faults=faults))
    r = result.rounds[0]
    assert r.phase == "rejected" and r.error == "SetupQuorumFailure"
    assert r.t_set == []  # a missing dealer stalls every bundle
    assert result.transcript.count(type="send", kind="submission") == 0


def test_share_loss_below_threshold_aborts_setup():
    spec = RoundSpec(n=4, t=3, length=3, share_loss=(1, 2))
    result = run_rounds(spec, SimConfig(seed=3, n=4))
    r = result.rounds[0]
    assert r.phase == "rejected" and r.error == "SetupQuorumFailure"
    assert r.t_set == [3, 4]


def test_staleness_timeout_when_quorum_unmet():
    spec = RoundSpec(n=4, t=2, length=3, s_min=4)
    faults = [
        Fault(id=1, phase="masking", action="disconnect"),
        Fault(id=2, phase="masking", action="disconnect"),
    ]
    result = run_rounds(spec, SimConfig(seed=3, n=4, faults=faults))
    r = result.rounds[0]
    assert r.phase == "rejected" and r.error == "StalenessTimeout"
    assert r.m_set == [] and r.delivered_to == []


def test_reveal_timeout_when_electorate_vanishes():
    spec = RoundSpec(n=5, t=2, length=3, share_loss=(4, 5), s_min=3)
    faults = [
        Fault(id=i, phase="verification", action="disconnect") for i in (1, 2, 3)
    ]
    result = run_rounds(spec, SimConfig(seed=3, n=5, faults=faults))
    r = result.rounds[0]
    assert r.phase == "rejected" and r.error == "RevealTimeout"
    assert r.u_set == [1, 2, 3, 4, 5]
    assert r.delivered_to == []


def test_leader_vanishing_mid_verification_exhausts_the_round():
    spec = RoundSpec(n=3, t=2, length=3)
    dry = run_rounds(spec, SimConfig(seed=17, n=3))
    leader = dry.rounds[0].leader
    offset = 2 * (SimConfig(n=3).budgets["verification"] // 5) + 10
    faults = [Fault(id=leader, phase="verification", action="disconnect", offset=offset)]
    result = run_rounds(spec, SimConfig(seed=17, n=3, faults=faults))
    r = result.rounds[0]
    assert r.phase == "rejected" and r.error == "BudgetExhausted"
    assert r.delivered_to == []


@pytest.mark.parametrize("offset", [212, 400])
def test_a_sum_that_reaches_no_member_is_not_done(offset):
    # party 1, round 0's first candidate, asks at 200 and passes its tag check
    # at 211; it goes offline at 212 or 400, before decryption. With t = n the
    # two left cannot rebuild its keys, so party 2, which resumes the order
    # in decryption, cannot verify: no member of M receives a sum
    doc = {
        "seed": 0, "n": 3, "t": 3, "l": 3,
        "faults": [{"id": 1, "phase": "verification", "action": "disconnect", "offset": offset}],
    }
    result = run_rounds(doc)
    r = result.rounds[0]
    assert r.leader == 1 and r.verified and r.m_set
    assert r.phase == "rejected" and r.error == "BudgetExhausted"
    assert r.field_sum is None and r.decrypted is None and r.delivered_to == []
    assert [rec["by"] for rec in result.transcript.records if rec.get("note") == "reject"] == [2]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("offset", [212, 400])
def test_a_leader_lost_after_its_tag_check_is_replaced_in_decryption(variant, offset):
    # as above at n=5, t=2: the four left hold two rows of party 1's, so party
    # 2, the next candidate, rebuilds its keys, verifies and hands out the sum
    doc = {
        "seed": 0, "n": 5, "t": 2, "l": 3, "s_min": 4, "variant": variant,
        "faults": [{"id": 1, "phase": "verification", "action": "disconnect", "offset": offset}],
    }
    result = run_rounds(doc)
    r = result.rounds[0]
    assert r.phase == "done" and r.verified and r.leader == 2
    assert r.m_set == [1, 2, 3, 4, 5] and r.delivered_to == [2, 3, 4, 5]
    assert r.field_sum == field_sum_oracle(result, r.m_set)
    records = result.transcript.records
    opened = {rec["phase"]: rec["t"] for rec in records if rec["type"] == "phase"}
    asks = {(rec["src"], rec["t"]) for rec in sends(result, "share_req")}
    # party 1 at its turn; party 2 at its own, a gap into decryption
    assert asks == {(1, opened["verification"] + 200), (2, opened["decryption"] + 6)}


@pytest.mark.parametrize("variant", ["scalar", "group"])
@pytest.mark.parametrize("tamper", ["flip_element", "substitute_all", "inject_offset"])
def test_tampering_is_rejected_without_leaking(variant, tamper):
    spec = RoundSpec(n=4, t=2, length=3, variant=variant, tamper=tamper)
    result = run_rounds(spec, SimConfig(seed=3, n=4))
    r = result.rounds[0]
    assert r.phase == "rejected"
    assert r.error == "VerificationFailed"
    assert r.verified is False
    assert r.delivered_to == []
    assert result.transcript.count(type="send", kind="result") == 0
    for node in result.nodes.values():
        assert getattr(node, "plaintext", None) is None


MALFORMED_AGGREGATES = {
    "truncated": lambda body: {**body, "c": body["c"][:1]},
    "duplicate_member": lambda body: {**body, "m": body["m"] + body["m"][:1]},
    "non_int_member": lambda body: {**body, "m": [str(body["m"][0])] + body["m"][1:]},
    "string_element": lambda body: {**body, "c": [["x", body["c"][0][1]]] + body["c"][1:]},
    "null_body": lambda body: None,
}


@pytest.mark.parametrize("variant", ["scalar", "group"])
@pytest.mark.parametrize("mutation", sorted(MALFORMED_AGGREGATES))
def test_malformed_aggregate_is_rejected(monkeypatch, variant, mutation):
    broadcast = Simulator.broadcast

    def rewrite(sim, src, dsts, kind, body):
        if kind == "aggregate":
            body = MALFORMED_AGGREGATES[mutation](body)
        broadcast(sim, src, dsts, kind, body)

    monkeypatch.setattr(Simulator, "broadcast", rewrite)
    spec = RoundSpec(n=4, t=2, length=4, variant=variant)
    result = run_rounds(spec, SimConfig(seed=3, n=4))
    r = result.rounds[0]
    assert r.phase == "rejected" and r.error == "MalformedAggregate"
    assert r.verified is None and r.field_sum is None and r.delivered_to == []
    assert result.transcript.count(type="note", note="malformed_aggregate") == 4


@pytest.mark.parametrize("variant", ["scalar", "group"])
@pytest.mark.parametrize("target_bad", [True, False], ids=["bad_for_one", "good_for_one"])
def test_aggregate_equivocation_is_checked_per_body(monkeypatch, variant, target_bad):
    # participant 2 gets a different body object from the other three; each
    # body's own verdict holds for whoever received it
    broadcast, target = Simulator.broadcast, 2

    def equivocate(sim, src, dsts, kind, body):
        if kind != "aggregate":
            return broadcast(sim, src, dsts, kind, body)
        bad = MALFORMED_AGGREGATES["truncated"](body)
        shared, own = (body, bad) if target_bad else (bad, body)
        broadcast(sim, src, [d for d in dsts if d != target], kind, shared)
        sim.send(src, target, kind, own)

    monkeypatch.setattr(Simulator, "broadcast", equivocate)
    spec = RoundSpec(n=4, t=2, length=4, variant=variant)
    result = run_rounds(spec, SimConfig(seed=3, n=4))
    notes = [rec for rec in result.transcript.records if rec.get("note") == "malformed_aggregate"]
    rejected = [target] if target_bad else [1, 3, 4]
    assert sorted(rec["dst"] for rec in notes) == rejected
    for i, node in result.nodes.items():
        if i in rejected:
            assert node.reject_reason == "MalformedAggregate" and node.agg is None
        elif i != 0:
            assert node.agg is not None


def _bound(spec):
    """Exclusive upper bound of a wire element: p (scalar) or P (group)."""
    return spec.group.p if spec.variant == "group" else spec.prime


MALFORMED_SUBMISSIONS = {
    "string_element": lambda c, bound: [["x", c[0][1]]] + c[1:],
    "float_element": lambda c, bound: [[float(c[0][0]), c[0][1]]] + c[1:],
    "out_of_range_int": lambda c, bound: [[bound, c[0][1]]] + c[1:],
}


@pytest.mark.parametrize("variant", ["scalar", "group"])
@pytest.mark.parametrize("mutation", sorted(MALFORMED_SUBMISSIONS))
def test_malformed_submission_is_left_out_of_m(monkeypatch, variant, mutation):
    send = Simulator.send

    def rewrite(sim, src, dst, kind, body, key=None):
        if kind == "submission" and src == 1:
            body = {"c": MALFORMED_SUBMISSIONS[mutation](body["c"], bound)}
        send(sim, src, dst, kind, body, key=key)

    monkeypatch.setattr(Simulator, "send", rewrite)
    others = [2, 3, 4]
    for s_min in (3, 4):
        spec = RoundSpec(n=4, t=2, length=3, variant=variant, s_min=s_min)
        bound = _bound(spec)
        result = run_rounds(spec, SimConfig(seed=3, n=4))
        r = result.rounds[0]
        notes = result.transcript.count(type="note", note="malformed_message", kind="submission")
        assert notes == 1 and result.transcript.count(type="note", dst=AGGREGATOR_ID) == 1
        if s_min == 3:
            assert r.phase == "done" and r.verified is True
            assert r.m_set == others and r.failed == [1]
            assert r.field_sum == field_sum_oracle(result, others)
        else:
            assert r.phase == "rejected" and r.error == "StalenessTimeout"
            assert r.field_sum is None and r.delivered_to == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_submission_after_masking_is_stale_at_the_aggregator(monkeypatch, variant):
    """The aggregator takes a kind by the one receive rule too: a submission
    outside masking is noted stale and never reaches the sum's inputs."""
    start, late = ParticipantNode.on_phase_start, 4

    def submit_late(node, sim, phase):
        start(node, sim, phase)
        if phase == "verification" and node.id == late:
            sim.send(node.id, AGGREGATOR_ID, "submission", {"c": [[1, 1]] * node.spec.length})

    monkeypatch.setattr(ParticipantNode, "on_phase_start", submit_late)
    faults = [{"id": late, "phase": "masking", "action": "drop_outbound"}]
    result = run_rounds({"seed": 2, "n": 4, "t": 2, "s_min": 3, "variant": variant,
                         "faults": faults})
    stale = [rec for rec in result.transcript.records if rec.get("note") == "stale_message"]
    assert [(rec["dst"], rec["kind"]) for rec in stale] == [(AGGREGATOR_ID, "submission")]
    assert late not in result.nodes[AGGREGATOR_ID].received
    r = result.rounds[0]
    assert r.phase == "done" and r.m_set == [1, 2, 3]


def test_contribution_gating_for_silent_submitters():
    spec = RoundSpec(n=4, t=2, length=3, s_min=2)
    faults = [Fault(id=2, phase="masking", action="drop_outbound")]
    result = run_rounds(spec, SimConfig(seed=5, n=4, faults=faults))
    r = result.rounds[0]
    assert r.phase == "done" and r.m_set == [1, 3, 4] and r.failed == [2]
    assert r.field_sum == field_sum_oracle(result, [1, 3, 4])
    node2 = result.nodes[2]
    assert node2.status == "done" and node2.plaintext is None
    assert r.delivered_to == [1, 3, 4]


def test_every_single_fault_schedule_terminates():
    spec = RoundSpec(n=5, t=2, length=2, s_min=2)
    for pid in range(1, 6):
        for phase in ("setup", "masking", "aggregation", "verification", "decryption"):
            for action in ("disconnect", "drop_outbound"):
                faults = [Fault(id=pid, phase=phase, action=action)]
                result = run_rounds(spec, SimConfig(seed=9, n=5, faults=faults))
                r = result.rounds[0]
                assert r.phase in ("done", "rejected"), (pid, phase, action)
                if r.phase == "rejected":
                    assert r.error is not None
                else:
                    assert r.field_sum == field_sum_oracle(result, r.m_set)


MALFORMED_SETUP = {
    "setup1_string_v": ("setup1", lambda body: {**body, "v": "x"}),
    "setup2_list_a": ("setup2", lambda body: {**body, "a": [1]}),
    "pk_string": ("pk", lambda body: {**body, "pk": "x"}),
    "gsetup1_float_v": ("gsetup1", lambda body: {**body, "v": 1.5}),
    "gsetup1_no_a": ("gsetup1", lambda body: {"v": body["v"], "s": body["s"]}),
    "setup1_v_at_p": ("setup1", lambda body: {**body, "v": DEFAULT_PRIME}),
    "gsetup1_s_at_q": ("gsetup1", lambda body: {**body, "s": TOY_GROUP.q}),
}


@pytest.mark.parametrize("variant", ["scalar", "group"])
@pytest.mark.parametrize("rewrite", sorted(MALFORMED_SETUP))
def test_malformed_setup_body_counts_as_silence(monkeypatch, variant, rewrite):
    kind, mutate = MALFORMED_SETUP[rewrite]
    send = Simulator.send

    def rewrite_first(sim, src, dst, k, body, key=None):
        if k == kind and sim.transcript.count(type="send", kind=kind) == 0:
            body = mutate(body)
        send(sim, src, dst, k, body, key=key)

    monkeypatch.setattr(Simulator, "send", rewrite_first)
    spec = RoundSpec(n=4, t=2, length=3, variant=variant)
    dealt_here = kind in spec.arith().SETUP
    for seed in range(4):
        result = run_rounds(spec, SimConfig(seed=seed, n=4))
        r = result.rounds[0]
        assert r.phase == "done" or (r.phase == "rejected" and r.error in NAMED_REJECTIONS)
        if r.phase == "done":
            assert r.field_sum == field_sum_oracle(result, r.m_set)
        notes = result.transcript.count(type="note", note="malformed_message", kind=kind)
        assert notes == (1 if dealt_here else 0)


# rewrite -> (kind, body rewrite, RoundSpec overrides, faults); two rounds so
# the group variant's reuse round runs too
MALFORMED_PEER = {
    "share_req_int_m": ("share_req", lambda body: {**body, "m": 5}, {}, []),
    "share_req_unknown_id": ("share_req", lambda body: {"m": [1, 99]}, {}, []),
    "reject_no_reason": ("reject", lambda body: {}, {"tamper": "flip_element"}, []),
    "abort_list_body": (
        "abort",
        lambda body: [1],
        {"s_min": 4},
        [Fault(id=4, phase="masking", action="disconnect")],
    ),
}


@pytest.mark.parametrize("variant", ["scalar", "group"])
@pytest.mark.parametrize("rewrite", sorted(MALFORMED_PEER))
def test_malformed_peer_body_counts_as_silence(monkeypatch, variant, rewrite):
    kind, mutate, overrides, faults = MALFORMED_PEER[rewrite]
    send = Simulator.send

    def rewrite_first(sim, src, dst, k, body, key=None):
        if k == kind and sim.transcript.count(type="send", kind=kind) == 0:
            body = mutate(body)
        send(sim, src, dst, k, body, key=key)

    monkeypatch.setattr(Simulator, "send", rewrite_first)
    spec = RoundSpec(n=4, t=2, length=3, variant=variant, rounds=2, **overrides)
    for seed in range(4):
        result = run_rounds(spec, SimConfig(seed=seed, n=4, faults=faults))
        for r in result.rounds:
            assert r.phase == "done" or (r.phase == "rejected" and r.error in NAMED_REJECTIONS)
            if r.phase == "done":
                assert r.field_sum == field_sum_oracle(result, r.m_set)
        sent = result.transcript.count(type="send", kind=kind)
        notes = result.transcript.count(type="note", note="malformed_message", kind=kind)
        assert sent and notes == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_aggregator_abort_is_a_staleness_timeout_whatever_its_reason(variant):
    broadcast = Simulator.broadcast

    def abort(sim, src, dsts, kind, body):
        if kind == "aggregate":  # the aggregator aborts instead, naming its own reason
            kind, body = "abort", {"reason": "bogus"}
        broadcast(sim, src, dsts, kind, body)

    with mock.patch.object(Simulator, "broadcast", abort):
        result = run_rounds({"seed": 0, "n": 4, "rounds": 2, "variant": variant})
    assert [(r.phase, r.error) for r in result.rounds] == [("rejected", "StalenessTimeout")] * 2


def test_transcript_records_view_matches_dict_records(monkeypatch):
    from secel.simnet import Envelope, Transcript

    class DictTranscript(Transcript):
        """One dict per record, built at write time."""

        def __init__(self):
            super().__init__()  # the payload table the simulator fills
            self.records = []

        def add(self, **record):
            self.records.append(record)

        def envelope(self, rtype, env, **extra):
            rec = {
                "type": rtype,
                "src": env.src,
                "dst": env.dst,
                "kind": env.kind,
                "round": env.round,
                "seq": env.seq,
                "secured": env.secured,
                "digest": simnet.payload_digest(
                    env.blob if env.secured else canonical_json(env.body)
                ),
            }
            rec.update(extra)
            self.records.append(rec)

    result = run_flagship()
    monkeypatch.setattr(simnet, "Transcript", DictTranscript)
    want = run_flagship().transcript
    assert type(want) is DictTranscript
    view, dicts = result.transcript.records, want.records
    assert len(view) == len(dicts) > 100
    assert view == dicts and dicts == view and list(view) == dicts
    assert view != dicts[:-1] and view != [*dicts[:-1], {}]
    for i in (0, 1, len(dicts) // 2, -1):
        assert view[i] == dicts[i]
    assert view[3:40] == dicts[3:40] and view[::7] == dicts[::7] and view[-5:] == dicts[-5:]
    with pytest.raises(IndexError):
        view[len(dicts)]
    for match in (
        {"type": "send"},
        {"type": "deliver", "kind": "setup1"},
        {"type": "drop", "reason": "drop_outbound"},
        {"type": "drop", "reason": "offline_dst"},
        {"type": "note", "note": "recover"},
        {"secured": True},
    ):
        assert result.transcript.count(**match) == want.count(**match) > 0, match
    assert result.transcript.to_ndjson() == want.to_ndjson()

    # rows hold plain values, no envelope; envelope rows hold atoms alone, a
    # payload slot among them; once the records were read, no slot of the
    # payload table holds a body or blob, only its hex digest
    for row in result.transcript._rows:
        values = row.values() if type(row) is dict else row
        for value in values:
            assert not isinstance(value, (Envelope, dict))
            if type(row) is tuple:
                assert value is None or type(value) in (str, int, bool)
    payloads = result.transcript.payloads
    assert payloads and all(
        type(held) is tuple and len(held) == 1 and type(held[0]) is str and len(held[0]) == 16
        for held in payloads
    )


@pytest.mark.parametrize("variant", ["scalar", "group"])
def test_party_offline_when_setup_opens_takes_no_dealing(variant):
    faults = [
        Fault(id=2, phase="setup", action="disconnect"),
        Fault(id=2, phase="setup", action="reconnect", offset=1),
    ]
    spec = RoundSpec(n=4, t=2, length=3, variant=variant, s_min=3)
    for seed in range(3):
        result = run_rounds(spec, SimConfig(seed=seed, n=4, faults=faults))
        r = result.rounds[0]
        assert r.phase == "rejected" and r.error == "SetupQuorumFailure"
        assert result.nodes[2].dealer is None and result.nodes[2].held_v == {}


@pytest.mark.parametrize("variant", ["scalar", "group"])
def test_duplicate_opening_deals_the_second_row_once(monkeypatch, variant):
    spec = RoundSpec(n=4, t=2, length=3, variant=variant)
    opening, second_row = {"scalar": ("setup1", "setup2"), "group": ("pk", "gsetup1")}[variant]
    send = Simulator.send

    def send_twice(sim, src, dst, kind, body, key=None):
        send(sim, src, dst, kind, body, key=key)
        if (src, dst, kind) == (2, 1, opening):
            send(sim, src, dst, kind, body, key=key)

    monkeypatch.setattr(Simulator, "send", send_twice)
    for seed in range(8):
        result = run_rounds(spec, SimConfig(seed=seed, n=4))
        assert result.transcript.count(type="send", kind=opening, src=2, dst=1) == 2
        assert result.transcript.count(type="send", kind=second_row, src=1) == 3
        r = result.rounds[0]
        assert r.phase == "done" and r.field_sum == field_sum_oracle(result, r.m_set)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [3, 10])
def test_dealing_sends_two_envelopes_per_ordered_pair(variant, n):
    # the paper's 2N(N-1) dealing cost, measured as setup-phase sends
    spec = RoundSpec(n=n, t=2, length=2, variant=variant)
    result = run_rounds(spec, SimConfig(seed=n, n=n))
    assert result.rounds[0].phase == "done"
    phase, sends = None, Counter()
    for rec in result.transcript.records:
        if rec["type"] == "phase":
            phase = rec["phase"]
        elif rec["type"] == "send" and phase == "setup":
            sends[rec["kind"]] += 1
    kinds = {"scalar": ("setup1", "setup2"), "group": ("pk", "gsetup1")}[variant]
    assert sends == dict.fromkeys(kinds, n * (n - 1))
    assert sum(sends.values()) == 2 * n * (n - 1)


@pytest.mark.parametrize("variant", ["scalar", "group"])
def test_negate_tamper_is_a_named_rejection(variant):
    # pair 0 becomes [p - c1, p - c2]; in the group that passes the batch tag
    # check only up to sign, so the round ends at the check or at the decode
    spec = RoundSpec(n=4, t=2, length=3, variant=variant, tamper="negate")
    errors = set()
    for seed in range(6):
        result = run_rounds(spec, SimConfig(seed=seed, n=4))
        r = result.rounds[0]
        assert r.phase == "rejected" and r.error in ("VerificationFailed", "DecodeFailure")
        assert r.field_sum is None and r.delivered_to == []
        assert result.transcript.count(type="send", kind="result") == 0
        errors.add(r.error)
    # a field negation is just a wrong value; only the group's -1 can pass
    assert "DecodeFailure" in errors if variant == "group" else errors == {"VerificationFailed"}


def _negate_first_pair(monkeypatch, spec):
    """The aggregator swaps pair 0 for [p - c1, p - c2]: an order-2 component
    that the tag check, which holds only up to sign, may pass."""
    broadcast = Simulator.broadcast

    def rewrite(sim, src, dsts, kind, body):
        if kind == "aggregate":
            (c1, c2), *rest = body["c"]
            p = spec.group.p
            body = {**body, "c": [[p - c1, p - c2], *rest]}
        broadcast(sim, src, dsts, kind, body)

    monkeypatch.setattr(Simulator, "broadcast", rewrite)


def _shift_one_contribution(monkeypatch, spec):
    """Contributor 1 shifts its encoded element 0 by 10^30 before masking."""
    arith_cls = protocol.ARITHS[spec.variant]
    mask = arith_cls.mask

    def shifted(arith, values, dealer, s, round_no):
        if dealer.id == 1:
            values = [(values[0] + 10**30) % arith.q, *values[1:]]
        return mask(arith, values, dealer, s, round_no)

    monkeypatch.setattr(arith_cls, "mask", shifted)


def _wrong_pad_key(monkeypatch, spec):
    """Participant 2 vouches its true tag key k_2 beside V_2(0) + 1: the tag
    check reads only k, so only the unmasked sum can show the fault."""
    send = Simulator.send

    def rewrite(sim, src, dst, kind, body, **kw):
        if src == 2 and kind == "share_resp" and body["self"] is not None:
            k, v0 = body["self"]
            body = {**body, "self": [k, v0 + 1]}
        return send(sim, src, dst, kind, body, **kw)

    monkeypatch.setattr(Simulator, "send", rewrite)


@pytest.mark.parametrize("variant,probe", [
    ("group", _negate_first_pair),
    ("group", _shift_one_contribution),
    ("scalar", _shift_one_contribution),
    ("group", _wrong_pad_key),
    ("scalar", _wrong_pad_key),
])
def test_undecodable_sum_is_a_named_rejection(monkeypatch, variant, probe):
    spec = RoundSpec(n=4, t=2, length=3, variant=variant)
    probe(monkeypatch, spec)
    errors = set()
    for seed in range(6):
        result = run_rounds(spec, SimConfig(seed=seed, n=4))
        r = result.rounds[0]
        assert r.phase == "rejected" and r.error in ("DecodeFailure", "VerificationFailed")
        assert r.field_sum is None and r.delivered_to == []
        errors.add(r.error)
        if r.error == "DecodeFailure":
            [note] = [
                rec for rec in result.transcript.records
                if rec.get("note") == "reject" and rec["reason"] == "DecodeFailure"
            ]
            assert note["detail"].startswith("element 0 ")
    assert "DecodeFailure" in errors


# ---- group variant -------------------------------------------------------------------


def test_group_round_and_key_reuse_across_rounds():
    spec = RoundSpec(n=4, t=2, length=3, variant="group", rounds=3)
    result = run_rounds(spec, SimConfig(seed=5, n=4))
    assert all(r.phase == "done" and r.verified for r in result.rounds)
    for r in result.rounds:
        assert r.field_sum == field_sum_oracle(result, r.m_set)
        truth = clipped_float_sum(result, r.m_set)
        tol = len(r.m_set) * 2**-10
        assert all(abs(a - b) <= tol for a, b in zip(r.decrypted, truth))
    # dealing happened exactly once; later rounds derive their key with no message
    assert result.transcript.count(type="send", kind="pk") == 4 * 3
    assert result.transcript.count(type="send", kind="setup1") == 0
    later = {rec["kind"] for rec in result.transcript.records
             if rec["type"] == "send" and rec["round"] > 0}
    assert later.isdisjoint({"pk", "gsetup1", "gsetup2", "refresh"})


def _two_step_key(node, j):
    """The group channel key with peer j, unwrapped first and then raised."""
    group = node.arith.group
    lift = unwrap_share(node.held_a[j], node.keypair.sk_inv, group)
    return channel_key(pow(lift, node.dealer.a_poly.eval(j), group.p), context=b"group")


@pytest.mark.parametrize("group", [TOY_GROUP, DEFAULT_GROUP], ids=["toy", "default"])
@pytest.mark.parametrize("n", [4, 10])
def test_fused_group_key_equals_unwrap_then_raise(group, n):
    spec = RoundSpec(n=n, t=2, length=2, variant="group", group=group)
    result = run_rounds(spec, SimConfig(seed=n, n=n))
    assert result.rounds[0].phase == "done"
    for node in participants(result):
        for j in node.peers:
            assert node.chan_keys[j] == _two_step_key(node, j)
            assert node.chan_keys[j] == result.nodes[j].chan_keys[node.id]


@pytest.mark.parametrize("dealt", ["p_minus_w", "zero", "one"])
def test_fused_group_key_holds_outside_the_subgroup(monkeypatch, dealt):
    # a rewritten second row breaks the pair's channel, not the key derivation
    spec = RoundSpec(n=4, t=2, length=2, variant="group")
    rewrite = {"p_minus_w": lambda w: spec.group.p - w, "zero": lambda w: 0, "one": lambda w: 1}[dealt]
    send, rewritten = Simulator.send, []

    def rewrite_second_rows(sim, src, dst, kind, body, key=None):
        if kind == "gsetup1":
            body = {**body, "a": rewrite(body["a"])}
            rewritten.append((src, dst))
        send(sim, src, dst, kind, body, key=key)

    monkeypatch.setattr(Simulator, "send", rewrite_second_rows)
    result = run_rounds(spec, SimConfig(seed=1, n=4))
    assert len(rewritten) == 4 * 3
    for node in participants(result):
        assert len(node.chan_keys) == len(node.peers)
        for j in node.peers:
            assert node.chan_keys[j] == _two_step_key(node, j)


def phase_pows(monkeypatch, name):
    """(exponent, modulus) of every builtin pow the protocol and group modules
    make in each `name` phase."""
    calls, in_phase = [], []

    def counting_pow(base, exp, mod=None):
        calls.append((exp, mod))
        return pow(base, exp, mod)

    for module in (protocol, group_variant):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    run_phase = Simulator.run_phase

    def counted_run_phase(sim, phase, round_no):
        start = len(calls)
        run_phase(sim, phase, round_no)
        if phase == name:
            in_phase.extend(calls[start:])

    monkeypatch.setattr(Simulator, "run_phase", counted_run_phase)
    return in_phase


@pytest.mark.parametrize("n", [4, 10])
def test_group_dealing_wraps_each_pair_once_and_makes_one_full_width_pow(monkeypatch, n):
    wraps = []

    def counting_wrap(values, pk, params):
        wraps.append(len(values))
        return group_variant.wrap_share(values, pk, params)

    setup_calls = phase_pows(monkeypatch, "setup")
    monkeypatch.setattr(protocol, "wrap_share", counting_wrap)
    spec = RoundSpec(n=n, t=2, length=2, variant="group", group=DEFAULT_GROUP)
    result = run_rounds(spec, SimConfig(seed=1, n=n))
    assert result.rounds[0].phase == "done"
    full_width = [exp for exp, _ in setup_calls if exp.bit_length() > 64]
    # the DH power alone: a dealt first row stays wrapped until a leader asks for it
    assert len(full_width) == n * (n - 1)
    assert wraps == [2] * (n * (n - 1))  # both rows to a peer in one call
    assert [call for call in setup_calls if call[0] == -1] == [(-1, DEFAULT_GROUP.q)] * n


@pytest.mark.parametrize("n, t", [(4, 2), (10, 4)])
def test_an_honest_group_verification_makes_two_full_width_pows(monkeypatch, n, t):
    verify_calls = phase_pows(monkeypatch, "verification")
    spec = RoundSpec(n=n, t=t, length=4, variant="group", group=DEFAULT_GROUP)
    result = run_rounds(spec, SimConfig(seed=1, n=n))
    assert result.rounds[0].phase == "done"
    # the batch tag check alone; the pad combines the members' own V_i(0) lifts
    full_width = [exp for exp, _ in verify_calls if exp.bit_length() > 64]
    assert len(full_width) == 2


class CountingChains(dict):
    """A key-chain cache that counts the chains stored in it."""

    stored = 0

    def __setitem__(self, base, chain):
        self.stored += 1
        super().__setitem__(base, chain)


@pytest.mark.parametrize("n", [3, 10])
def test_group_dealing_builds_one_chain_per_published_key(monkeypatch, n):
    # DEFAULT_GROUP's numbers on a fresh instance: no earlier run filled its cache
    group = GroupParams(p=DEFAULT_GROUP.p, q=DEFAULT_GROUP.q, g=DEFAULT_GROUP.g)
    group._key_chains = chains = CountingChains()
    wrapped_for = []

    def counting_wrap(values, pk, params):
        wrapped_for.append(pk)
        return group_variant.wrap_share(values, pk, params)

    monkeypatch.setattr(protocol, "wrap_share", counting_wrap)
    spec = RoundSpec(n=n, t=2, length=2, variant="group", group=group)
    result = run_rounds(spec, SimConfig(seed=1, n=n))
    assert result.rounds[0].phase == "done"
    published = {node.keypair.pk for node in participants(result)}
    assert len(wrapped_for) == n * (n - 1) and set(wrapped_for) == published
    assert chains.stored == n and set(chains) == published


def test_group_share_loss_recovers_the_lifted_share():
    spec = RoundSpec(n=5, t=2, length=3, variant="group", share_loss=(4,), s_min=3)
    result = run_rounds(spec, SimConfig(seed=8, n=5))
    r = result.rounds[0]
    assert r.phase == "done" and r.recovered == [4]
    group = spec.group
    exponent = sum(
        result.nodes[i].dealer.v_poly.eval(4) for i in range(1, 6)
    ) % group.q
    assert result.nodes[4].own_share == group.lift(exponent)


def test_group_tamper_grid_rejected():
    # covered per-policy above; here: a tampered group round leaves no lifts
    spec = RoundSpec(n=3, t=2, length=2, variant="group", tamper="flip_element")
    result = run_rounds(spec, SimConfig(seed=4, n=3))
    assert result.rounds[0].phase == "rejected"
    assert result.rounds[0].error == "VerificationFailed"


# ---- pure operations -----------------------------------------------------------------


def test_run_setup_pure_happy_path():
    import random

    modulus = PrimeModulus(31)
    setup = run_setup([1, 2, 3, 4], t=2, modulus=modulus, rng=random.Random(0))
    for holder in (1, 2, 3, 4):
        for dealer in (1, 2, 3, 4):
            if dealer == holder:
                continue
            assert (
                setup.received_v[holder][dealer]
                == setup.dealers[dealer].v_poly.eval(holder)
            )
            assert (
                setup.received_a[holder][dealer]
                == setup.dealers[dealer].a_poly.eval(holder)
            )
    for i in (1, 2, 3, 4):
        assert setup.dealers[i].a_poly.constant_term() == setup.dealers[i].s_v


# ---- configuration plumbing ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1},
        {"t": 1},
        {"t": 7},
        {"length": 0},
        {"rounds": 0},
        {"s_min": 0},
        {"s_min": 9},
        {"variant": "vector"},
        {"tamper": "sneaky"},
        {"share_loss": (1, 1)},
        {"share_loss": (99,)},
        {"gradients": [[0.0]]},
        {"prime": 91},
        {"variant": "group", "scale_bits": 30},
        {"share_loss": 5},
        {"gradients": 5},
        {"gradients": [["x", 0.0]] * 6},
        {"gradients": [[float("nan"), 0.0]] * 6},
        {"s_min": "2"},
        {"clip_bound": "x"},
        {"scale_bits": "x"},
        {"scale_bits": 0},
        {"variant": "group", "group": "toy"},  # from_dict resolves names, not the constructor
    ],
)
def test_round_spec_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        RoundSpec(**{"n": 6, "t": 2, "length": 2, **kwargs}).validate()


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3, "l": True},
        {"n": 3, "rounds": True},
        {"n": 3, "s_min": True},
        {"n": 3, "clip_bound": True},
        {"n": 3, "seed": True},
        {"n": 3, "l": 2, "gradients": [[True, 0.0], [False, 0.0], [0.0, 0.0]]},
        {"n": 3, "l": 4, "gradients": [[math.inf] * 4] * 3},
        {"n": 3, "l": 2, "gradients": [[0.0, -math.inf]] * 3},
        {"n": 3, "l": 1, "gradients": [[10**400]] * 3},
        # codec settings whose capacity is past float range
        {"n": 3, "clip_bound": 1e308},
        {"n": 3, "clip_bound": 1e308, "variant": "group"},
        {"n": 3, "scale_bits": 5000},
        {"n": 3, "scale_bits": 5000, "variant": "group"},
        {"n": 3, "clip_bound": 10**400},
        {"n": 3, "prime": [7]},  # not an int
        # a scale whose largest scaled value, clip * 2^scale_bits, is past float
        # range, in a field wide enough to hold it
        {"n": 3, "l": 2, "prime": 2**1279 - 1, "scale_bits": 1022},
        {"n": 3, "l": 2, "prime": 2**1279 - 1, "scale_bits": 1021},
        {"n": 3, "l": 2, "prime": 2**1279 - 1, "scale_bits": 1021, "gradients": [[8.0] * 2] * 3},
        {"n": 3, "l": 2, "prime": 2**1279 - 1, "scale_bits": 1100},
        # the values fit, but the scale itself is past float range
        {"n": 3, "l": 2, "prime": 2**1279 - 1, "scale_bits": 2000, "clip_bound": 1e-300},
    ],
)
def test_bools_and_non_finite_numbers_are_config_errors(doc):
    with pytest.raises(ConfigError):
        run_rounds(doc)


def test_the_widest_scale_in_float_range_runs_at_the_clip():
    # 8 * 2^1020 = 2^1023 is the largest scaled value, and a finite float
    grads = [[8.0, -8.0], [-8.0, -8.0], [8.0, 8.0]]
    doc = {"n": 3, "l": 2, "prime": 2**1279 - 1, "scale_bits": 1020, "gradients": grads}
    result = run_rounds(doc)
    r = result.rounds[0]
    assert r.phase == "done" and r.verified
    assert r.decrypted == [8.0, -8.0]


@pytest.mark.parametrize("prime", [91, DEFAULT_PRIME + 2, (2**61 - 1) * (2**31 - 1)])
def test_composite_prime_is_rejected_on_every_validate(prime):
    spec = RoundSpec(n=4, t=2, length=2, prime=prime)
    for _ in range(2):  # the second check is answered from the cache, alike
        with pytest.raises(ConfigError, match="prime must be prime"):
            spec.validate()


@pytest.mark.parametrize("seed", range(3))
def test_a_prime_past_512_bits_runs_with_share_loss(seed):
    # the share-loser's fallback link and every channel key hash a field value
    # wider than 64 bytes
    doc = {"seed": seed, "n": 5, "t": 3, "l": 2, "prime": 2**1279 - 1, "share_loss": [2]}
    result = run_rounds(doc)
    r = result.rounds[0]
    assert r.phase == "done" and r.verified and r.recovered == [2]
    assert r.field_sum == field_sum_oracle(result, r.m_set)


def test_round_spec_from_dict_ignores_sim_keys_and_rejects_unknown():
    spec = RoundSpec.from_dict(
        {
            "seed": 9,
            "delay": {"min": 1, "max": 2},
            "budgets": {},
            "faults": [],
            "n": 4,
            "t": 3,
            "l": 7,
            "variant": "scalar",
        }
    )
    assert (spec.n, spec.t, spec.length) == (4, 3, 7)
    with pytest.raises(ConfigError):
        RoundSpec.from_dict({"n": 3, "thershold": 2})
    with pytest.raises(ConfigError):
        RoundSpec.from_dict({"t": 2})
    with pytest.raises(ConfigError):
        RoundSpec.from_dict({"n": 3, "group": "enormous"})
    with pytest.raises(ConfigError):
        RoundSpec.from_dict({"n": 3, "group": 42})
    parsed = RoundSpec.from_dict(
        {"n": 3, "group": {"p": TOY_GROUP.p, "q": TOY_GROUP.q, "g": TOY_GROUP.g}}
    )
    assert parsed.group.p == TOY_GROUP.p
    assert RoundSpec.from_dict({"n": 3, "length": 5}).length == 5
    # a length given twice, even alike, would otherwise keep one silently
    for length in (5, 2):
        with pytest.raises(ConfigError, match="l or as length, not both"):
            RoundSpec.from_dict({"n": 3, "l": 2, "length": length})


def test_a_document_with_a_sim_config_is_a_config_error():
    # the document's seed, delay, budgets and faults would be dropped unread
    doc = {"seed": 4, "n": 3, "faults": [{"id": 1, "phase": "masking", "action": "disconnect"}]}
    with pytest.raises(ConfigError, match="pass no SimConfig"):
        run_rounds(doc, SimConfig(n=3))
    assert run_rounds(doc).sim_config == SimConfig.from_dict(doc)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_node_of_a_run_holds_the_one_arith_validate_built(variant):
    built, validate = [], RoundSpec.validate

    def keep(spec):
        built.append(validate(spec))
        return built[-1]

    with mock.patch.object(RoundSpec, "validate", keep):
        result = run_rounds(
            {"seed": 1, "n": 4, "l": 2, "rounds": 2, "variant": variant, "share_loss": [2]}
        )
    assert result.ok
    assert len({id(node.arith) for node in result.nodes.values()}) == 1
    # a document is validated once, and the run holds what that validate built
    assert len(built) == 1 and result.nodes[AGGREGATOR_ID].arith is built[0]


def test_run_rounds_accepts_one_flat_document():
    doc = {
        "seed": 11,
        "n": 7,
        "t": 3,
        "l": 5,
        "s_min": 3,
        "share_loss": [4, 5, 6, 7],
        "faults": [
            {"id": 3, "phase": "masking", "action": "drop_outbound"},
            {"id": 6, "phase": "masking", "action": "disconnect"},
            {"id": 7, "phase": "masking", "action": "disconnect"},
        ],
    }
    result = run_rounds(doc)
    r = result.rounds[0]
    assert r.phase == "done" and r.m_set == [1, 2, 4, 5] and r.recovered == [4, 5]
    # flat-document drive equals the explicit two-object drive
    explicit = run_flagship(seed=11)
    assert result.transcript.to_ndjson() == explicit.transcript.to_ndjson()


def test_a_spec_without_sim_config_runs_the_default_simulation():
    result = run_rounds(RoundSpec(n=3, t=2, length=2))
    assert result.sim_config == SimConfig(n=3)
    flat = run_rounds({"n": 3, "t": 2, "l": 2})
    assert result.transcript.to_ndjson() == flat.transcript.to_ndjson()


def test_run_rounds_document_seed_picks_the_simulation():
    first = run_rounds({"n": 3, "seed": 5})
    assert first.sim_config.seed == 5
    second = run_rounds({"n": 3, "seed": 9})
    assert first.transcript.to_ndjson() != second.transcript.to_ndjson()
    assert run_rounds({"n": 3, "seed": 5}).transcript.to_ndjson() == (
        first.transcript.to_ndjson()
    )


def test_sim_and_spec_disagreeing_on_n_is_an_error():
    with pytest.raises(ConfigError):
        run_rounds(RoundSpec(n=3, t=2), SimConfig(seed=1, n=4))


LATE_FAULT_BASE = {"n": 4, "t": 2, "l": 2, "seed": 1}
LATE_FAULT = {"id": 2, "phase": "decryption", "action": "disconnect", "offset": 400}


@pytest.mark.parametrize(
    "doc",
    [
        # fired at t=1100, under aggregation
        {**LATE_FAULT_BASE, "faults": [{**LATE_FAULT, "phase": "masking", "offset": 600}]},
        # never fired: the round ended done with budget_exhausted
        {**LATE_FAULT_BASE, "faults": [LATE_FAULT]},
        # fired in round 1's masking, which it rejected with StalenessTimeout
        {**LATE_FAULT_BASE, "rounds": 2, "variant": "group", "faults": [LATE_FAULT]},
    ],
)
def test_a_fault_at_or_past_its_phase_budget_is_a_config_error(tmp_path, capsys, doc):
    with pytest.raises(ConfigError, match="fault offset must be below the phase budget"):
        run_rounds(doc)
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["round", "--config", str(path)]) == 1
    assert "fault offset must be below the phase budget" in capsys.readouterr().err


def test_a_fault_on_the_last_tick_of_its_phase_fires_there():
    last = SimConfig(n=4).budgets["decryption"] - 1
    result = run_rounds({**LATE_FAULT_BASE, "faults": [{**LATE_FAULT, "offset": last}]})
    assert not result.budget_exhausted
    assert [rec["phase"] for rec in result.transcript.records if rec["type"] == "fault"] == [
        "decryption"
    ]


def test_summary_lines_mention_verdict():
    result = run_rounds(RoundSpec(n=3, t=2, length=2), SimConfig(seed=1, n=3))
    lines = result.summary_lines()
    assert len(lines) == 1
    assert "verified=true" in lines[0] and "status=done" in lines[0]
    assert result.ok


# ---- channel keys and the result multicast ---------------------------------------------


def eager_key(node, peer):
    """The channel key with `peer`, from both second rows, outside chan_key."""
    if node.spec.variant == "group":
        return _two_step_key(node, peer)
    return channel_key(pairwise_key(node.dealer, peer, node.held_a[peer]))


def participants(result):
    return [node for i, node in sorted(result.nodes.items()) if i != AGGREGATOR_ID]


@pytest.mark.parametrize(
    "run",
    [
        run_flagship,
        lambda: run_rounds(RoundSpec(n=7, t=3, length=4), SimConfig(seed=5, n=7)),
        lambda: run_rounds(
            RoundSpec(**FLAGSHIP_SPEC, variant="group"),
            SimConfig(seed=11, n=7, faults=FLAGSHIP_FAULTS),
        ),
        lambda: run_rounds(
            RoundSpec(n=7, t=3, length=4, variant="group", rounds=2), SimConfig(seed=5, n=7)
        ),
    ],
    ids=["flagship", "honest_n7", "group_flagship", "group_n7"],
)
def test_lazy_scalar_channel_keys_equal_the_eager_ones(run):
    result = run()
    assert result.ok
    used = 0
    for node in participants(result):
        if not node.complete:  # a share-loser: nothing to derive from
            assert node.chan_keys == {}
            assert all(node.chan_key(j) is None for j in node.peers)
            continue
        used += len(node.chan_keys)
        for j, key in node.chan_keys.items():  # derived while the round ran
            assert key == eager_key(node, j)
        for j in node.peers:
            assert node.chan_key(j) == eager_key(node, j)
    assert used > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_second_row_dealt_again_after_setup_moves_no_key(monkeypatch, variant):
    spec = RoundSpec(n=5, t=2, length=3, variant=variant)
    kind = {"scalar": "setup2", "group": "gsetup1"}[variant]
    p = spec.arith().p
    on_message, resent = ParticipantNode.on_message, []

    def deal_again_once_complete(node, sim, env):
        was_complete = node.complete
        on_message(node, sim, env)
        if node.complete and not was_complete:
            # every peer's second row arrives once more, altered per holder, while
            # setup still runs; a group second row rides a whole gsetup1 again
            for j in node.peers:
                body = {"a": (node.held_a[j] + node.id) % p}
                if kind == "gsetup1":
                    body.update(v=node.held_v[j], s=node.s_peers[j])
                sim.send(j, node.id, kind, body)
                resent.append((j, node.id))

    monkeypatch.setattr(ParticipantNode, "on_message", deal_again_once_complete)
    result = run_rounds(spec, SimConfig(seed=2, n=5))
    assert len(resent) == 5 * 4
    assert result.transcript.count(type="note", note="stale_message") == 0
    assert result.transcript.count(type="note", note="malformed_message") == 0
    r = result.rounds[0]
    assert r.phase == "done" and r.field_sum == field_sum_oracle(result, r.m_set)
    nodes = result.nodes
    for i, j in resent:
        assert nodes[i].chan_key(j) is not None
        assert nodes[i].chan_key(j) == nodes[j].chan_key(i) == eager_key(nodes[j], i)


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_aggregate_sent_again_in_verification_is_dropped_as_stale(monkeypatch, variant):
    start = protocol.AggregatorNode.on_phase_start

    def broadcast_again(node, sim, phase):
        start(node, sim, phase)
        if phase == "verification":  # the same aggregate body, one phase late
            agg = node.arith.aggregate([node.received[i] for i in node.m])
            body = {"m": node.m, "c": agg}
            sim.broadcast(node.id, node.spec.participant_ids, "aggregate", body)

    monkeypatch.setattr(protocol.AggregatorNode, "on_phase_start", broadcast_again)
    doc = {"seed": 1, "n": 4, "t": 2, "l": 3, "s_min": 3, "variant": variant,
           "faults": [{"id": 4, "phase": "masking", "action": "disconnect"}]}
    result = run_rounds(doc)
    stale = [rec for rec in result.transcript.records if rec.get("note") == "stale_message"]
    assert sorted(rec["dst"] for rec in stale) == [1, 2, 3]  # the online participants
    assert {(rec["kind"], rec["round"]) for rec in stale} == {("aggregate", 0)}
    r = result.rounds[0]
    assert r.phase == "done" and r.m_set == [1, 2, 3]
    assert r.field_sum == field_sum_oracle(result, r.m_set)


# round 0's second candidate; party 1, the first, leads each round-0 run here
PEER_REQUESTER = 2


@pytest.mark.parametrize(
    "variant, requester",
    [
        *(pytest.param(variant, AGGREGATOR_ID, id=variant) for variant in VARIANTS),
        *(pytest.param(variant, PEER_REQUESTER, id=f"peer-{variant}") for variant in VARIANTS),
    ],
)
def test_a_share_request_from_the_aggregator_is_refused(monkeypatch, variant, requester):
    """Neither the aggregator nor a later candidate draws a share response by
    posing as the leader before the first turn."""
    node_class = protocol.AggregatorNode if requester == AGGREGATOR_ID else ParticipantNode
    start, on_message = node_class.on_phase_start, ParticipantNode.on_message
    leaders = []

    def ask_for_shares(node, sim, phase):
        start(node, sim, phase)
        if phase == "verification" and node.id == requester:
            members = node.m if requester == AGGREGATOR_ID else node.m_set
            targets = [i for i in node.spec.participant_ids if i != requester]
            sim.broadcast(node.id, targets, "share_req", {"m": members})

    def watch(node, sim, env):
        on_message(node, sim, env)
        if node.id != requester:
            leaders.append(node.leader)

    monkeypatch.setattr(node_class, "on_phase_start", ask_for_shares)
    monkeypatch.setattr(ParticipantNode, "on_message", watch)
    sizes = {"n": 4} if requester == AGGREGATOR_ID else {"n": 5, "t": 3}
    result = run_rounds({"seed": 0, "variant": variant, **sizes})
    answers = [
        rec for rec in result.transcript.records
        if rec["type"] == "send" and rec["kind"] in ("share_resp", "share_resp_fb")
    ]
    assert answers and all(rec["secured"] and rec["dst"] != requester for rec in answers)
    assert leaders and requester not in leaders
    r = result.rounds[0]
    assert r.phase == "done" and r.leader != requester


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "asks_at",
    ["open", "first_turn", "reveals_first"],
    ids=["asks-at-open", "asks-at-first-turn", "reveals-then-asks"],
)
def test_a_member_without_the_aggregate_answers_only_the_leader_it_tallies(
    monkeypatch, variant, asks_at
):
    """A member of M that missed the aggregate tallies the candidates' turns
    as the holders do and answers only the candidate whose request came at
    its turn. A later candidate draws nothing by asking as verification
    opens, nor by asking at the first candidate's turn, before its own, nor
    by first broadcasting a `reveal` of the retired election, a kind every
    party drops."""
    start, on_timer = ParticipantNode.on_phase_start, ParticipantNode.on_timer

    def ask_for_shares(node, sim, phase):
        start(node, sim, phase)
        if phase == "verification" and node.id == PEER_REQUESTER:
            if asks_at == "open":
                ask_on_timer(node, sim, "ask", None)
                return
            first_turn = 2 * (sim.config.budgets["verification"] // 5)
            if asks_at == "reveals_first":
                sim.schedule_timer(node.id, sim.now + first_turn - 1, "reveal")
            sim.schedule_timer(node.id, sim.now + first_turn, "ask")

    def ask_on_timer(node, sim, name, data):
        if name not in ("ask", "reveal"):
            on_timer(node, sim, name, data)
            return
        targets = [i for i in node.spec.participant_ids if i != node.id]
        if name == "reveal":
            sim.broadcast(node.id, targets, "reveal", {"v": 0, "salt": "00"})
        else:
            sim.broadcast(node.id, targets, "share_req", {"m": node.m_set})

    monkeypatch.setattr(ParticipantNode, "on_phase_start", ask_for_shares)
    monkeypatch.setattr(ParticipantNode, "on_timer", ask_on_timer)
    for seed in range(4):
        faults = [
            {"id": 3, "phase": "aggregation", "action": "disconnect"},
            {"id": 3, "phase": "verification", "action": "reconnect"},
        ]
        doc = {"seed": seed, "n": 5, "t": 3, "s_min": 4, "variant": variant, "faults": faults}
        result = run_rounds(doc)
        r, member = result.rounds[0], result.nodes[3]
        assert 3 in r.m_set and member.agg is None
        answered = [
            rec["dst"] for rec in result.transcript.records
            if rec["type"] == "send" and rec["src"] == 3
            and rec["kind"] in ("share_resp", "share_resp_fb")
        ]
        assert answered == [r.leader] and member.leader == r.leader != PEER_REQUESTER
        assert r.phase == "done" and member.status == "done"
        reveals = [
            (rec["type"], rec.get("note")) for rec in result.transcript.records
            if rec.get("kind") == "reveal" and rec["type"] in ("deliver", "note")
        ]
        delivered = reveals.count(("deliver", None))
        assert (delivered > 0) == (asks_at == "reveals_first")
        assert reveals.count(("note", "stale_message")) == delivered


# field kind of each resolved (field, test, text) entry, read back from its text
FIELD_KIND_OF = {text: kind for kind, (_, text) in protocol.FIELD_KINDS.items()}


def well_formed(field_kind: str, spec: RoundSpec) -> st.SearchStrategy:
    """Values that pass `field_kind`'s check on a participant of `spec`."""
    arith, n = spec.arith(), spec.n
    p, q = arith.p, arith.q
    ids = st.integers(1, n)
    return {
        "int<p>": st.integers(0, p - 1),
        "int<q>": st.integers(0, q - 1),
        "str": st.text(max_size=8),
        "members": st.lists(ids, unique=True, max_size=n),
        "quorum": st.lists(ids, unique=True, min_size=spec.quorum, max_size=n),
        "pairs": st.lists(
            st.lists(st.integers(0, p - 1), min_size=2, max_size=2),
            min_size=spec.length, max_size=spec.length,
        ),
        "int<p>?": st.none() | st.integers(0, p - 1),
        "bool": st.booleans(),
        "keys": st.none() | st.lists(st.integers(0, p - 1), min_size=2, max_size=2),
        "rows": st.dictionaries(ids.map(str), st.integers(0, p - 1), max_size=n),
        "sum": st.lists(st.integers(0, q - 1), min_size=spec.length, max_size=spec.length),
    }[field_kind]


POSING_SIZES = {"n": 5, "t": 3, "l": 2}


@st.composite
def aggregator_posings(draw):
    """A run in which the aggregator sends every participant one kind, with a
    body that passes the kind's field checks, at one tick of one phase. A
    sealed kind goes out plaintext or sealed under a key of its own."""
    variant = draw(st.sampled_from(VARIANTS))
    spec = RoundSpec.from_dict({**POSING_SIZES, "variant": variant})
    kind = draw(st.sampled_from(sorted(protocol.MESSAGE_KINDS)))
    *_, fields, _ = protocol.MESSAGE_KINDS[kind]
    body = {name: draw(well_formed(FIELD_KIND_OF[text], spec)) for name, _, text in fields}
    key = draw(st.none() | st.integers(1, 2**64)) if kind in protocol.SEALED_KINDS else None
    steps = [[0, kind, body, key]]
    phase = draw(st.sampled_from(PHASES))
    return {
        "variant": variant, "seed": draw(st.integers(0, 3)), "rounds": draw(st.integers(1, 2)),
        "phase": phase, "offset": draw(st.just(0) | st.integers(0, DEFAULT_BUDGETS[phase] - 1)),
        "steps": steps,
    }


def run_posing(doc: dict) -> ScenarioResult:
    steps, start = doc["steps"], protocol.AggregatorNode.on_phase_start

    def schedule(node, sim, phase):
        start(node, sim, phase)
        if phase == doc["phase"]:
            for i, (delay, *_) in enumerate(steps):
                sim.schedule_timer(node.id, sim.now + doc["offset"] + delay, "pose", i)

    def pose(node, sim, name, i):
        _, kind, body, key = steps[i]
        for dst in node.spec.participant_ids:
            sim.send(node.id, dst, kind, body, key=None if key is None else channel_key(key))

    with (
        mock.patch.object(protocol.AggregatorNode, "on_phase_start", schedule),
        mock.patch.object(protocol.AggregatorNode, "on_timer", pose),
    ):
        run = {name: doc[name] for name in ("seed", "variant", "rounds")}
        return run_rounds({**POSING_SIZES, **run})


def posed_at_open(variant: str, seed: int, phase: str, *steps) -> dict:
    """An `aggregator_posings` document whose steps start as `phase` opens."""
    return {
        "variant": variant, "seed": seed, "rounds": 1, "phase": phase, "offset": 0,
        "steps": [list(step) for step in steps],
    }


@settings(max_examples=150, deadline=None)
@given(doc=aggregator_posings())
# a `setup1` from the aggregator, counted as a peer's opening, would start the
# scalar second dealing before a peer's first row arrived (MissingStep1Share)
@example(doc=posed_at_open("scalar", 0, "setup", (0, "setup1", {"v": 1, "s": 1}, None)))
# a `pk` from the aggregator, counted as a peer's opening, would make a member
# wrap its rows before a peer's key arrived (KeyError)
@example(doc=posed_at_open("group", 0, "setup", (0, "pk", {"pk": 2}, None)))
def test_no_kind_sent_by_the_aggregator_raises_or_moves_a_sum(doc):
    """Only `aggregate` and `abort` are the aggregator's to send; whatever else
    it sends, whenever, each round still ends done with the exact sum over the
    leader's M or in a named rejection."""
    result = run_posing(doc)
    for r in result.rounds:
        assert r.phase == "done" or (r.phase == "rejected" and r.error in NAMED_REJECTIONS)
        if r.phase == "done":
            claimed = sorted(result.nodes[r.leader].m_set)
            assert r.field_sum == field_sum_oracle(result, claimed)


def test_wiped_party_serves_no_channel_key():
    result = run_rounds(RoundSpec(n=5, t=2, length=3), SimConfig(seed=2, n=5))
    node = participants(result)[0]
    assert all(node.chan_key(j) is not None for j in node.peers)
    node.wipe_shares()
    assert node.chan_keys == {}
    assert all(node.chan_key(j) is None for j in node.peers)


def test_envelope_rows_hold_atoms_alone_so_the_collector_untracks_them():
    """Rows of a faulty run (share loss, disconnects, a drop_outbound, a tampered
    aggregate) hold no container, so one collection untracks every row and the
    collector's later passes walk none of them."""
    spec = RoundSpec(n=10, t=4, s_min=7, length=4, share_loss=(2, 5), tamper="flip_element")
    faults = [
        Fault(id=3, phase="masking", action="disconnect"),
        Fault(id=8, phase="masking", action="disconnect"),
        Fault(id=6, phase="masking", action="drop_outbound"),
    ]
    result = run_rounds(spec, SimConfig(seed=1, n=10, faults=faults))
    assert result.rounds[0].error == "VerificationFailed"
    gc.collect()
    rows = [row for row in result.transcript._rows if type(row) is tuple]
    assert {(row[0], row[9]) for row in rows} >= {
        ("send", None), ("deliver", None), ("drop", "drop_outbound"), ("drop", "offline_dst"),
    }
    for row in rows:
        assert not gc.is_tracked(row), row
        assert all(value is None or type(value) in (str, int, bool) for value in row), row


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_finished_run_is_freed_without_the_collector(variant):
    spec = RoundSpec(n=5, t=2, length=3, variant=variant, share_loss=(5,), s_min=3)
    gc.collect()
    gc.disable()
    try:
        result = run_rounds(spec, SimConfig(seed=1, n=5))
        assert result.ok
        for node in participants(result):
            for j in node.peers:
                node.chan_key(j)  # fill every key store there is
        refs = [weakref.ref(node) for node in result.nodes.values()]
        del node, result
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_result_body_is_encoded_once_per_round(monkeypatch):
    encoded = []
    real = simnet.canonical_json

    def counting(obj):
        if type(obj) is dict and "sum" in obj:
            encoded.append(obj)
        return real(obj)

    monkeypatch.setattr(simnet, "canonical_json", counting)
    result = run_rounds(RoundSpec(n=7, t=3, length=5, rounds=2), SimConfig(seed=3, n=7))
    assert result.ok
    assert all(r.delivered_to == list(range(1, 8)) for r in result.rounds)
    assert len(encoded) == 2  # one body per round, sealed for six members


def test_an_honest_round_encodes_no_submission_or_aggregate_until_read(monkeypatch):
    encoded = Counter()
    real = simnet.canonical_json

    def counting(obj):
        if type(obj) is dict and "c" in obj:
            encoded["aggregate" if "m" in obj else "submission"] += 1
        return real(obj)

    monkeypatch.setattr(simnet, "canonical_json", counting)
    result = run_rounds(RoundSpec(n=10, length=256), SimConfig(seed=0, n=10))
    assert result.rounds[0].phase == "done"
    assert encoded == {}
    result.transcript.to_ndjson()
    # each submission once; the aggregate's copies share one digest
    assert encoded == {"submission": 10, "aggregate": 1}


# ---- sealed multicast: authenticated per copy, parsed once ------------------------------


def counting_loads(monkeypatch, wrap=lambda body: body):
    """Every body simnet parses, in order; `wrap` may swap each for another object."""
    parsed = []

    def loads(data):
        parsed.append(wrap(json.loads(data)))
        return parsed[-1]

    monkeypatch.setattr(simnet, "json", SimpleNamespace(loads=loads))
    return parsed


def test_the_sealed_result_is_parsed_once_for_every_member(monkeypatch):
    opened = []
    real_open = simnet.open_sealed
    monkeypatch.setattr(
        simnet, "open_sealed", lambda *args: opened.append(args[1]["kind"]) or real_open(*args)
    )
    parsed = counting_loads(monkeypatch)
    result = run_rounds(RoundSpec(n=10, t=4, length=16), SimConfig(seed=1, n=10))
    r = result.rounds[0]
    assert r.phase == "done" and r.delivered_to == list(range(1, 11))
    # every copy is still opened under its own key; one parse serves nine members
    assert opened.count("result") == 9 and opened.count("share_resp") == 9
    assert sum("sum" in body for body in parsed) == 1
    assert len(parsed) == 10
    assert all(node.plaintext == r.decrypted for node in participants(result))


def test_a_corrupted_copy_fails_after_another_copy_opened(monkeypatch):
    real = protocol.secure_recv
    opened, failed = [], []

    def corrupt_second(key, env):
        if env.kind == "result":
            opened.append(env.dst)
            if len(opened) == 2:
                env.blob = bytes([env.blob[0] ^ 1]) + env.blob[1:]
        try:
            return real(key, env)
        except AuthFailure:
            failed.append(env.dst)
            raise

    monkeypatch.setattr(protocol, "secure_recv", corrupt_second)
    result = run_rounds(RoundSpec(n=10, t=4, length=16), SimConfig(seed=1, n=10))
    victim = opened[1]
    assert failed == [victim]
    fails = [rec for rec in result.transcript.records if rec["type"] == "auth_fail"]
    assert [(rec["kind"], rec["dst"]) for rec in fails] == [("result", victim)]
    r = result.rounds[0]
    assert victim not in r.delivered_to and len(r.delivered_to) == 9


def test_a_member_with_a_recovered_share_gets_its_own_result_body(monkeypatch):
    real = protocol.secure_recv
    got = {}

    def keep(key, env):
        body = real(key, env)
        if env.kind == "result":
            got[env.dst] = body
        return body

    monkeypatch.setattr(protocol, "secure_recv", keep)
    result = run_flagship()
    r = result.rounds[0]
    recovered = result.nodes[r.leader].recovered
    assert sorted(recovered) == [4, 5] and {4, 5} <= set(got)
    for u, body in got.items():
        assert body["sum"] == r.field_sum
        assert body.get("recovered") == recovered.get(u)
    plain = [body for u, body in got.items() if u not in recovered]
    assert plain and all(body is plain[0] for body in plain)
    assert len({id(body) for body in got.values()}) == 3  # 4's, 5's and the shared one


def counting_decodes(monkeypatch):
    """(phase, round) of every FixedPointCodec.decode call, None for one made
    outside every phase."""
    calls, phase = [], [None]
    run_phase, decode = Simulator.run_phase, protocol.FixedPointCodec.decode

    def timed_phase(sim, name, round_no):
        phase[0] = (name, round_no)
        try:
            run_phase(sim, name, round_no)
        finally:
            phase[0] = None

    def counting(codec, *args, **kwargs):
        calls.append(phase[0])
        return decode(codec, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run_phase", timed_phase)
    monkeypatch.setattr(protocol.FixedPointCodec, "decode", counting)
    return calls


def assert_own_plaintexts(result):
    r = result.rounds[-1]
    holders = [node for node in participants(result) if node.plaintext is not None]
    assert [node.id for node in holders] == r.delivered_to
    assert all(node.plaintext == r.decrypted for node in holders)
    # every holder keeps a list of its own, and the round state holds one more
    lists = {id(node.plaintext) for node in holders} | {id(r.decrypted)}
    assert len(lists) == len(holders) + 1


@pytest.mark.parametrize(
    "spec",
    [
        RoundSpec(n=10, t=4, length=16),
        RoundSpec(n=5, t=2, length=3, variant="group", rounds=2),
    ],
    ids=["scalar", "group"],
)
def test_each_result_multicast_is_decoded_once(monkeypatch, spec):
    calls = counting_decodes(monkeypatch)
    result = run_rounds(spec, SimConfig(seed=1, n=spec.n))
    assert all(r.phase == "done" and len(r.delivered_to) == spec.n for r in result.rounds)
    # the sealed copies' one shared decode, and the leader's own; the runner
    # reports a holder's list and decodes nothing
    assert Counter(calls) == {("decryption", r): 2 for r in range(spec.rounds)}
    assert_own_plaintexts(result)


def test_a_member_with_a_recovered_share_decodes_its_own_body(monkeypatch):
    calls = counting_decodes(monkeypatch)
    result = run_flagship()
    r = result.rounds[0]
    own = set(result.nodes[r.leader].recovered) & set(r.m_set)
    assert own == {4, 5} and r.leader == 1 and r.m_set == [1, 2, 4, 5]
    # member 2 decodes the shared body, 4 and 5 each their own, and the
    # leader its own sum
    assert calls == [("decryption", 0)] * (2 + len(own))
    assert_own_plaintexts(result)


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_round_reports_the_leaders_sum_past_a_forged_result(monkeypatch, variant):
    """Every non-leader seals a made-up sum, every element 1, to each other
    non-leader 20 ticks into decryption. A `result` comes only from the
    leader a member follows, so each member ignores the forgery unopened and
    keeps the leader's sum; the round reports that sum, delivered to all of M."""
    start, on_timer = ParticipantNode.on_phase_start, ParticipantNode.on_timer

    def forge_later(node, sim, phase):
        start(node, sim, phase)
        if phase == "decryption" and node.leader not in (None, node.id):
            sim.schedule_timer(node.id, sim.now + 20, "forge")

    def forge_on_timer(node, sim, name, data):
        if name != "forge":
            on_timer(node, sim, name, data)
            return
        body = {"sum": [1] * node.spec.length, "m": node.m_set}
        for u in node.peers:
            if u != node.leader:
                sim.send(node.id, u, "result", body, key=node.link_key(u))

    monkeypatch.setattr(ParticipantNode, "on_phase_start", forge_later)
    monkeypatch.setattr(ParticipantNode, "on_timer", forge_on_timer)
    for seed in range(4):
        result = run_rounds({"seed": seed, "n": 5, "t": 3, "l": 2, "variant": variant})
        r = result.rounds[0]
        assert r.phase == "done" and r.verified
        real = result.nodes[r.leader].plaintext
        assert any(
            rec["type"] == "deliver" and rec["kind"] == "result" and rec["src"] != r.leader
            for rec in result.transcript.records
        )
        assert [i for i in r.m_set if result.nodes[i].plaintext != real] == []
        assert r.decrypted == real and r.delivered_to == r.m_set


def leader_interpolations(monkeypatch):
    """The point x of every interpolation either variant's arithmetic makes."""
    calls = []
    for arith in (protocol.ScalarArith, GroupArith):

        def counting(self, points, x, t, interpolate=arith.interpolate):
            calls.append(x)
            return interpolate(self, points, x, t)

        monkeypatch.setattr(arith, "interpolate", counting)
    return calls


@pytest.mark.parametrize(
    "spec",
    [
        RoundSpec(n=10, t=4, length=4),
        RoundSpec(n=5, t=2, length=3, variant="group", rounds=2),
    ],
    ids=["scalar", "group"],
)
def test_an_honest_full_attendance_round_interpolates_nothing(monkeypatch, spec):
    calls = leader_interpolations(monkeypatch)
    result = run_rounds(spec, SimConfig(seed=1, n=spec.n))
    assert [len(r.m_set) for r in result.rounds if r.phase == "done"] == [spec.n] * spec.rounds
    # every member vouches for its own keys, and the pad combines their V_i(0)
    assert calls == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_member_silent_after_submitting_costs_two_interpolations(monkeypatch, variant):
    calls = leader_interpolations(monkeypatch)
    spec = RoundSpec(n=6, t=3, length=3, s_min=4, variant=variant)
    faults = [Fault(id=2, phase="aggregation", action="disconnect")]
    result = run_rounds(spec, SimConfig(seed=1, n=6, faults=faults))
    r = result.rounds[0]
    assert r.phase == "done" and r.m_set == [1, 2, 3, 4, 5, 6] and 2 not in r.delivered_to
    assert r.field_sum == field_sum_oracle(result, r.m_set)
    # its tag key V_2(2), then its pad key V_2(0)
    assert calls == [2, 0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_opened_body_outlives_the_run(monkeypatch, variant):
    class Body(dict):
        """A parsed body that can be weakly referenced."""

    parsed = counting_loads(monkeypatch, wrap=Body)
    spec = RoundSpec(n=5, t=2, length=3, variant=variant, share_loss=(5,), s_min=3)
    gc.collect()
    gc.disable()
    try:
        result = run_rounds(spec, SimConfig(seed=1, n=5))
        assert result.ok and any("sum" in body for body in parsed)
        refs = [weakref.ref(body) for body in parsed]
        parsed.clear()
        del result
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


# ---- plaintext bodies: each multicast checked once ---------------------------------------

BROADCAST_KINDS = ("pk", "aggregate", "share_req")
DEALING_KINDS = ("setup1", "setup2", "gsetup1")


@pytest.mark.parametrize(
    "spec",
    [
        RoundSpec(n=10, t=4, length=3),
        RoundSpec(n=5, t=2, length=3, variant="group", rounds=2),
    ],
    ids=["scalar", "group"],
)
def test_each_multicast_body_is_checked_once(monkeypatch, spec):
    sent, checked = {}, Counter()
    send, check = Simulator.send, protocol.body_problem

    def keep(sim, src, dst, kind, body, key=None):
        if key is None:
            sent[id(body)] = (kind, body)  # held, so no id is reused
        send(sim, src, dst, kind, body, key=key)

    def count(body, fields, node):
        checked[id(body)] += 1
        return check(body, fields, node)

    monkeypatch.setattr(Simulator, "send", keep)
    monkeypatch.setattr(protocol, "body_problem", count)
    result = run_rounds(spec, SimConfig(seed=1, n=spec.n))
    assert result.ok
    per_kind = Counter()
    for key, (kind, _) in sent.items():
        if kind in BROADCAST_KINDS:
            assert checked[key] == 1, kind
        per_kind[kind] += checked[key]
    dealt = spec.arith().SETUP.keys() & set(DEALING_KINDS)
    multicast = {"pk"} if spec.variant == "group" else set()
    assert {"aggregate", "share_req", *multicast, *dealt} <= set(per_kind)
    # every point-to-point dealing copy is still checked on its own
    for kind in dealt:
        delivered = result.transcript.count(type="deliver", kind=kind)
        assert per_kind[kind] == delivered == spec.n * (spec.n - 1)


# ---- shape-breaking tamper policies and arbitrary aggregate bodies ------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tamper", ["truncate", "duplicate_member", "malformed"])
def test_shape_breaking_tamper_is_a_malformed_aggregate(variant, tamper):
    spec = RoundSpec(n=4, t=2, length=3, variant=variant, tamper=tamper)
    for seed in range(6):
        result = run_rounds(spec, SimConfig(seed=seed, n=4))
        r = result.rounds[0]
        assert r.phase == "rejected" and r.error == "MalformedAggregate"
        assert r.field_sum is None and r.delivered_to == []
        assert result.transcript.count(type="note", note="malformed_aggregate") == 4


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def rewritten_aggregates(body, p):
    """The honest aggregate body, replaced or rewritten in one of several ways."""
    m, c = body["m"], body["c"]
    entry = st.integers(-1, p) | st.sampled_from([0, 1, p - 1, p]) | JSON_VALUES
    pair = st.lists(entry, max_size=3)
    return st.one_of(
        JSON_VALUES,
        st.builds(lambda k, v: {**body, k: v}, st.sampled_from(["m", "c"]), JSON_VALUES),
        st.sampled_from(["m", "c"]).map(lambda k: {x: body[x] for x in body if x != k}),
        st.permutations(m).map(lambda perm: {**body, "m": perm}),
        st.lists(st.integers(-1, 6), max_size=6).map(lambda ids: {**body, "m": ids}),
        st.tuples(st.integers(0, len(c) - 1), pair).map(
            lambda ip: {**body, "c": c[: ip[0]] + [ip[1]] + c[ip[0] + 1 :]}
        ),
        st.lists(pair, max_size=5).map(lambda pairs: {**body, "c": pairs}),
    )


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 5))
def test_any_aggregate_body_ends_done_with_the_exact_sum_or_named(variant, data, seed):
    spec = RoundSpec(n=4, t=2, length=3, variant=variant, s_min=3)
    broadcast = Simulator.broadcast

    def inject(sim, src, dsts, kind, body):
        if kind == "aggregate":
            body = data.draw(rewritten_aggregates(body, spec.arith().p))
        broadcast(sim, src, dsts, kind, body)

    with mock.patch.object(Simulator, "broadcast", inject):
        result = run_rounds(spec, SimConfig(seed=seed, n=4))
    for r in result.rounds:
        assert r.phase == "done" or (r.phase == "rejected" and r.error in NAMED_REJECTIONS)
        if r.phase == "done":
            claimed = sorted(result.nodes[r.leader].m_set)
            assert r.field_sum == field_sum_oracle(result, claimed)


# ---- a peer's sealed bodies: checked where they open -----------------------------------------

ROGUE_SIZES = {"n": 5, "t": 3, "l": 2}


def honest_leader(network: dict, delays) -> int | None:
    """The leader of an unmodified run of `network`, over a copy of
    `delays` that replays the same draws."""
    with netdraw.delays_from(copy.copy(delays)):
        return run_rounds(network).rounds[0].leader


@st.composite
def rogue_seals(draw, networks=None):
    """A run in which one peer, the round's leader or not, seals a drawn body
    of a drawn sealed kind under a key it holds, to drawn recipients: at a
    drawn tick of the kind's phase, and in place of each of its own sealed
    sends of that kind to them. An object body draws some of the kind's
    fields, each well-formed or any JSON value. `networks`, if given, draws
    the run's document, and its link delays are drawn too (netdraw); else
    the run is ROGUE_SIZES at one of four seeds."""
    if networks is None:
        network = {
            **ROGUE_SIZES,
            "variant": draw(st.sampled_from(VARIANTS)),
            "seed": draw(st.integers(0, 3)),
            "share_loss": draw(st.lists(
                st.integers(1, ROGUE_SIZES["n"]), unique=True,
                max_size=ROGUE_SIZES["n"] - ROGUE_SIZES["t"],
            )),
        }
        delays = None
    else:
        network, delays = draw(networks), draw(st.randoms())
    spec = RoundSpec.from_dict(network)
    kind = draw(st.sampled_from(sorted(protocol.SEALED_KINDS)))
    phase, _, fields, _ = protocol.MESSAGE_KINDS[kind]
    values = {
        name: well_formed(FIELD_KIND_OF[text], spec) | JSON_VALUES for name, _, text in fields
    }
    ids = st.integers(1, spec.n)
    return {
        "network": network,
        "delays": delays,
        "rogue": draw(st.just("leader") | ids),
        "kind": kind,
        "body": draw(JSON_VALUES | st.fixed_dictionaries({}, optional=values)),
        "to": draw(st.lists(ids, unique=True, min_size=1)),
        "tick": draw(st.integers(0, DEFAULT_BUDGETS[phase] - 1)),
    }


def run_rogue(doc: dict) -> ScenarioResult:
    """Run a `rogue_seals` document. The bodies are swapped at Simulator.send:
    the handlers are bound into MESSAGE_KINDS at import, so a patched handler
    would never be dispatched."""
    network, delays = doc["network"], doc["delays"]
    kind, forged, dsts = doc["kind"], doc["body"], doc["to"]
    rogue = doc["rogue"]
    if rogue == "leader":
        rogue = honest_leader(network, delays) or 1
    phase = protocol.MESSAGE_KINDS[kind][0]
    send, start, on_timer = Simulator.send, ParticipantNode.on_phase_start, ParticipantNode.on_timer

    def swap(sim, src, dst, k, body, key=None):
        if (src, k) == (rogue, kind) and key is not None and dst in dsts:
            body = forged
        send(sim, src, dst, k, body, key=key)

    def arm(node, sim, p):
        start(node, sim, p)
        if (node.id, p) == (rogue, phase):
            sim.schedule_timer(node.id, sim.now + doc["tick"], "rogue")

    def seal(node, sim, name, data):
        if name != "rogue":
            on_timer(node, sim, name, data)
            return
        for dst in dsts:
            key = None if dst == node.id or node.dealer is None else node.link_key(dst)
            if key is not None:
                send(sim, node.id, dst, kind, forged, key=key)

    with (
        mock.patch.object(Simulator, "send", swap),
        mock.patch.object(ParticipantNode, "on_phase_start", arm),
        mock.patch.object(ParticipantNode, "on_timer", seal),
        netdraw.delays_from(delays),
    ):
        return run_rounds(network)


def rogue_at(kind: str, body, variant: str, share_loss=()) -> dict:
    """Peer 2, not the leader at seed 0, seals `body` to every other party."""
    network = {**ROGUE_SIZES, "variant": variant, "seed": 0, "share_loss": list(share_loss)}
    return {
        "network": network, "delays": None, "rogue": PEER_REQUESTER,
        "kind": kind, "body": body, "to": [1, 3, 4, 5], "tick": 0,
    }


@settings(max_examples=100, deadline=None)
@given(doc=rogue_seals() | rogue_seals(netdraw.documents()))
# each of these once made run_rounds raise: a member decoding a result with no
# sum (KeyError) or a string sum (TypeError), the leader reading fetched rows
# with no `lost` (KeyError), and the leader unpacking a `self` of the wrong
# length (ValueError)
@example(doc=rogue_at("result", {}, "scalar"))
@example(doc=rogue_at("result", {"sum": "x", "m": [1]}, "group"))
@example(doc=rogue_at("rows_resp", {}, "scalar", share_loss=(4,)))
@example(doc=rogue_at("share_resp", {"self": "x"}, "group"))
@example(doc=rogue_at("share_resp", {"self": [1]}, "scalar"))
@example(doc=rogue_at("share_resp", {"self": [1, 2, 3]}, "group"))
# the leader's own result, on a 1279-bit prime, with an element whose decode
# divided past float range (OverflowError)
@example(doc={
    "network": {
        "seed": 0, "n": 3, "t": 2, "l": 1, "s_min": 1, "rounds": 1, "variant": "scalar",
        "share_loss": [], "faults": [], "prime": netdraw.PRIMES[-1],
    },
    "delays": None, "rogue": "leader", "kind": "result", "body": {"sum": [2**1200], "m": []},
    "to": [2], "tick": 0,
})
def test_no_body_a_peer_seals_raises_or_moves_a_sum(doc):
    assert netdraw.safety_problems(run_rogue(doc)) == []


def test_each_result_multicast_is_checked_once(monkeypatch):
    checked, check = [], protocol.body_problem

    def count(body, fields, node):
        if type(body) is dict and "sum" in body:
            checked.append(node.round_no)
        return check(body, fields, node)

    monkeypatch.setattr(protocol, "body_problem", count)
    result = run_rounds(RoundSpec(n=7, t=3, length=5, rounds=2), SimConfig(seed=3, n=7))
    assert all(r.delivered_to == list(range(1, 8)) for r in result.rounds)
    assert checked == [0, 1]  # one check of the body sealed for six members


def field_names(kind: str) -> list[str]:
    return [name for name, *_ in protocol.MESSAGE_KINDS[kind][2]]


def test_every_kind_declares_its_body_sealed_kinds_included():
    # the aggregator aborts only for staleness, so an abort carries nothing
    assert {kind for kind in protocol.MESSAGE_KINDS if not field_names(kind)} == {"abort"}
    assert field_names("aggregate") == ["m", "c"]
    assert field_names("result") == ["sum", "m", "recovered"]
    sealed = {kind for kind, (*_, handler) in protocol.MESSAGE_KINDS.items() if handler in (
        ParticipantNode._on_share_resp, ParticipantNode._on_rows_resp, ParticipantNode._on_result
    )}
    assert sealed == protocol.SEALED_KINDS


@lru_cache(maxsize=None)
def plaintext_sends(name: str) -> int:
    """How many plaintext sends an unmodified run of golden scenario `name` makes."""
    sends = []
    send = Simulator.send

    def count(sim, src, dst, kind, body, key=None):
        if key is None:
            sends.append(kind)
        send(sim, src, dst, kind, body, key=key)

    with mock.patch.object(Simulator, "send", count):
        run_rounds(SCENARIOS[name])
    return len(sends)


def shape_breaking(body: dict, bound: int):
    """`body` as null, as {}, or with one field replaced by a value of the wrong
    type or out of range: `bound` is at or above every int field's bound."""
    wrong = st.sampled_from([1.5, True, ["x"], None, -1]) | st.integers(bound, 2 * bound)
    rewrites = [st.just(None), st.just({})]
    for name, value in sorted(body.items()):
        values = wrong if type(value) is str else wrong | st.just("zz")
        rewrites.append(values.map(lambda v, name=name: {**body, name: v}))
    return st.one_of(rewrites)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SCENARIOS)))
def test_any_plaintext_body_ends_done_with_the_exact_sum_or_named(data, name):
    # one plaintext envelope of a golden scenario gets a body of the wrong shape;
    # sealed envelopes are out of scope, since AES-GCM rejects any rewrite
    doc = SCENARIOS[name]
    target = data.draw(st.integers(0, plaintext_sends(name) - 1), label="send")
    bound = RoundSpec.from_dict(doc).arith().p
    send, seen = Simulator.send, []

    def rewrite(sim, src, dst, kind, body, key=None):
        if key is None:
            if len(seen) == target:
                body = data.draw(shape_breaking(body, bound), label=kind)
            seen.append(kind)
        send(sim, src, dst, kind, body, key=key)

    with mock.patch.object(Simulator, "send", rewrite):
        result = run_rounds(doc)
    for r in result.rounds:
        assert r.phase == "done" or (r.phase == "rejected" and r.error in NAMED_REJECTIONS)
        if r.phase == "done":
            # a leader holds a well-formed aggregate, which only the aggregator's
            # own broadcast is here, so the M it claimed is the round's m_set
            assert r.field_sum == field_sum_oracle(result, r.m_set)


# ---- the cyclic collector: no run makes reference cycles ----------------------------------
# Simulator.run_phase pauses the collector, which is sound only while a run frees
# everything it drops by reference counting alone.


def cyclic_garbage(doc, corrupt=False):
    """Run `doc` with the collector off and drop the result; return its rounds, its
    auth_fail count and every object left in a reference cycle. `corrupt` flips a
    bit of the first sealed blob."""
    real_seal, unflipped = simnet.seal, [corrupt]

    def seal(key, header, body, data=None):
        blob = real_seal(key, header, body, data)
        if unflipped[0]:
            unflipped[0] = False
            blob = bytes([blob[0] ^ 1]) + blob[1:]
        return blob

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with mock.patch.object(simnet, "seal", seal):
            result = run_rounds(doc)
            rounds, auth_fails = result.rounds, result.transcript.count(type="auth_fail")
            del result
            gc.collect()
            return rounds, auth_fails, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@st.composite
def fault_documents(
    draw, rounds=st.integers(1, 2), tampers=st.sampled_from(protocol.TAMPER_POLICIES)
):
    """A run document over both variants, `rounds` rounds, a tamper policy from
    `tampers`, share loss, s_min and faults from FAULT_ACTIONS x PHASES at
    offsets inside the budget."""
    n = draw(st.integers(3, 6))
    ids = st.integers(1, n)
    variant = draw(st.sampled_from(VARIANTS))
    doc = {
        "seed": draw(st.integers(0, 2**16)),
        "n": n,
        "t": draw(st.integers(2, n)),
        "l": draw(st.integers(1, 4)),
        "rounds": draw(rounds),
        "variant": variant,
        "tamper": draw(tampers),
        "share_loss": draw(st.lists(ids, unique=True, max_size=n)),
        "s_min": draw(st.none() | st.integers(1, n)),
        "faults": [
            {
                "id": draw(ids),
                "phase": phase,
                "action": draw(st.sampled_from(FAULT_ACTIONS)),
                "offset": draw(st.integers(0, DEFAULT_BUDGETS[phase] - 1)),
            }
            for phase in draw(st.lists(st.sampled_from(PHASES), max_size=3))
        ],
    }
    if variant == "group":
        doc["group"] = draw(st.sampled_from(["toy", "default"]))
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=fault_documents(), corrupt=st.booleans())
def test_no_run_creates_cyclic_garbage(doc, corrupt):
    rounds, _, garbage = cyclic_garbage(doc, corrupt)
    assert garbage == []
    for r in rounds:
        assert r.phase == "done" or (r.phase == "rejected" and r.error in NAMED_REJECTIONS)


@settings(max_examples=40, deadline=None)
@given(doc=fault_documents())
def test_records_carry_the_digest_of_each_payload_as_it_was_sent(doc):
    # digests are computed when records are read, so a sender that changed a
    # body after sending it would show here as a digest that moved
    real_send, real_seal = Simulator.send, simnet.seal
    blobs, at_send = [], {}  # transcript position -> digest of the payload at send

    def seal(key, header, body, data=None):
        blobs.append(real_seal(key, header, body, data))
        return blobs[-1]

    def send(sim, src, dst, kind, body, key=None):
        digest = None if key is not None else simnet.payload_digest(canonical_json(body))
        pos = len(sim.transcript.records)
        real_send(sim, src, dst, kind, body, key=key)
        if len(sim.transcript.records) > pos:  # an offline sender records nothing
            at_send[pos] = simnet.payload_digest(blobs[-1]) if digest is None else digest

    with mock.patch.object(Simulator, "send", send), mock.patch.object(simnet, "seal", seal):
        result = run_rounds(doc)
    records = result.transcript.records
    by_envelope = {}
    for pos, digest in at_send.items():
        rec = records[pos]
        assert rec["type"] in ("send", "drop") and rec["digest"] == digest
        by_envelope[rec["src"], rec["dst"], rec["seq"]] = digest
    for rec in records:
        if rec["type"] in ("send", "deliver", "drop", "auth_fail"):
            assert rec["digest"] == by_envelope[rec["src"], rec["dst"], rec["seq"]]


# an honest aggregator leaves the leader nothing to reject the sum for
LIVENESS_REJECTIONS = set(NAMED_REJECTIONS) - {
    "VerificationFailed", "MalformedAggregate", "DecodeFailure"
}


@settings(max_examples=60, deadline=None)
@given(doc=fault_documents(rounds=st.integers(1, 3), tampers=st.just("honest")))
# a masking-phase drop_outbound at offset 0, then party 5 leads the reuse round
@example(doc={
    "n": 7, "t": 3, "l": 3, "s_min": 3, "rounds": 2, "variant": "group", "seed": 355,
    "faults": [{"id": 5, "phase": "masking", "action": "drop_outbound", "offset": 0}],
})
# party 3 is offline when each reuse round's masking starts, then leads round 2
@example(doc={
    "seed": 0, "n": 3, "t": 2, "l": 3, "rounds": 3, "variant": "group", "s_min": 1,
    "faults": [
        {"id": 3, "phase": "masking", "action": "reconnect", "offset": 293},
        {"id": 3, "phase": "decryption", "action": "disconnect", "offset": 154},
    ],
})
# parties 3 and 4 are offline when round 1's scalar dealing opens, then rejoin
@example(doc={
    "seed": 0, "n": 4, "t": 2, "l": 2, "rounds": 2, "s_min": 2,
    "faults": [
        {"id": 3, "phase": "decryption", "action": "disconnect"},
        {"id": 4, "phase": "decryption", "action": "disconnect"},
        {"id": 3, "phase": "masking", "action": "reconnect"},
        {"id": 4, "phase": "masking", "action": "reconnect"},
    ],
})
# every party attends while share-loser 5 is in M: both variants end done,
# with 5's share rebuilt in round 0
@example(doc={"seed": 2, "n": 5, "t": 2, "l": 3, "rounds": 2, "share_loss": [5]})
@example(doc={
    "seed": 2, "n": 5, "t": 2, "l": 3, "rounds": 2, "share_loss": [5], "variant": "group",
})
def test_honest_rounds_end_done_with_the_exact_sum_or_a_liveness_rejection(doc):
    result = run_rounds(doc)
    spec = RoundSpec.from_dict(doc)
    arith, codec, modulus = spec.arith(), spec.codec(), spec.field_modulus()
    opened = {
        (rec["round"], rec["src"]) for rec in result.transcript.records
        if rec.get("type") in ("send", "drop") and rec.get("kind") == arith.OPENING
    }
    for r in result.rounds:
        if r.phase == "done":
            assert r.verified and r.field_sum == field_sum_oracle(result, r.m_set)
            # the runner reports the members' decode; it must be the sum's own
            assert r.decrypted == codec.decode(r.field_sum, modulus, len(r.m_set))
        else:
            assert r.phase == "rejected" and r.error in LIVENESS_REJECTIONS, r
        # every holder dealt the dealing this round uses, none holds a stale one
        dealt_in = 0 if arith.reuses_setup else r.round
        assert {(dealt_in, i) for i in r.t_set} <= opened, r


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_run_with_auth_failures_creates_no_cyclic_garbage(variant):
    _, auth_fails, garbage = cyclic_garbage({"seed": 3, "n": 5, "variant": variant}, corrupt=True)
    assert auth_fails == 1 and garbage == []


# ---- the leader's view: held rows only on request -------------------------------------


def opened_problems(node) -> list[str]:
    """Where the bodies `node` opened as leader carry more than recovery needs.

    A share response carries the sender's own keys alone; a fetched rows body
    carries a first row only of a member of M that sent no keys of its own,
    and a second row or share lift only for a party that asked for its share.
    """
    vouched = {
        src for src, body in {**node.resp, **node.resp_fb}.items() if body.get("self") is not None
    }
    silent = set(node.m_set) - vouched - {node.id}
    need = {src for src, body in node.resp_fb.items() if body.get("need")}
    problems = [
        f"share_resp from {src}: {sorted(body)}"
        for src, body in node.resp.items() if set(body) != {"self"}
    ]
    problems += [
        f"share_resp_fb from {src}: {sorted(body)}"
        for src, body in node.resp_fb.items() if set(body) != {"need", "self"}
    ]
    for src, body in node.rows.items():
        if set(body) != {"v", "lost"}:
            problems.append(f"rows_resp from {src}: {sorted(body)}")
            continue
        problems += [f"first row of {i} from {src}" for i in map(int, body["v"]) if i not in silent]
        problems += [f"lost row of {q} from {src}" for q in map(int, body["lost"]) if q not in need]
    return problems


@st.composite
def view_documents(draw):
    """One-round documents over both variants with faults in masking and
    verification, the phases that decide who answers a leader, and at most
    n - t share-losers, so that setup leaves t holders and rows get fetched."""
    n = draw(st.integers(3, 7))
    t = draw(st.integers(2, n))
    ids = st.integers(1, n)
    return {
        "seed": draw(st.integers(0, 2**16)),
        "n": n,
        "t": t,
        "l": 2,
        "variant": draw(st.sampled_from(VARIANTS)),
        "share_loss": draw(st.lists(ids, unique=True, max_size=n - t)),
        "s_min": draw(st.none() | st.integers(1, n)),
        "faults": [
            {
                "id": draw(ids),
                "phase": phase,
                "action": draw(st.sampled_from(FAULT_ACTIONS)),
                "offset": draw(st.integers(0, DEFAULT_BUDGETS[phase] - 1)),
            }
            for phase in draw(st.lists(st.sampled_from(["masking", "verification"]), max_size=3))
        ],
    }


@settings(max_examples=80, deadline=None)
@given(doc=view_documents())
# share-losers 4 and 5 in M ask for their shares: rows fetched for them alone
@example(doc={**SCENARIOS["scalar/flagship"], "rounds": 1})
@example(doc={**SCENARIOS["group/flagship"], "rounds": 1})
# member 5 goes silent when verification opens: its first rows are fetched
@example(doc={
    "seed": 1, "n": 5, "t": 2, "l": 2, "s_min": 3, "share_loss": [4],
    "faults": [{"id": 5, "phase": "verification", "action": "disconnect", "offset": 0}],
})
def test_a_leader_opens_only_the_rows_recovery_needs(doc):
    result = run_rounds(doc)
    for node in participants(result):
        assert opened_problems(node) == [], node.id


def sealed_sizes(monkeypatch) -> dict[str, list[int]]:
    """kind -> the length of every sealed blob sent, in order."""
    sizes = defaultdict(list)
    seal = simnet.seal

    def measured(key, header, body, data=None):
        blob = seal(key, header, body, data)
        sizes[header["kind"]].append(len(blob))
        return blob

    monkeypatch.setattr(simnet, "seal", measured)
    return sizes


def sends(result, kind: str) -> list[dict]:
    records = result.transcript.records
    return [rec for rec in records if rec["type"] == "send" and rec["kind"] == kind]


GCM_TAG = 16  # bytes a sealed blob adds to its plaintext


@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("variant", VARIANTS)
def test_honest_share_responses_shrink_by_half_and_fetch_nothing(monkeypatch, variant, n):
    sizes = sealed_sizes(monkeypatch)
    result = run_rounds(RoundSpec(n=n, t=3, length=64, variant=variant), SimConfig(seed=0, n=n))
    r = result.rounds[0]
    assert r.phase == "done"
    responders = [rec["src"] for rec in sends(result, "share_resp")]
    assert len(responders) == len(sizes["share_resp"]) == n - 1
    # what the same holders sent when every share response carried its held rows
    before = [len(canonical_json(frozen_share_body(result.nodes[j], r.m_set))) for j in responders]
    if (variant, n) == ("scalar", 10):
        # the JSON bytes the holders sent here while share responses carried every held row
        assert sum(before) == 8554
    assert 2 * sum(sizes["share_resp"]) <= sum(before) + GCM_TAG * len(before)
    assert sends(result, "rows_req") == sends(result, "rows_resp") == []


@pytest.mark.parametrize("n", [10, 30])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_share_loss_round_fetches_rows_once_from_each_intact_responder(variant, n):
    spec = RoundSpec(n=n, t=3, length=64, variant=variant, share_loss=(2, 5))
    result = run_rounds(spec, SimConfig(seed=0, n=n))
    r = result.rounds[0]
    assert r.phase == "done" and r.recovered == [2, 5]
    responders = sorted(rec["src"] for rec in sends(result, "share_resp"))
    assert len(responders) == n - 3  # every intact holder but the leader
    assert sorted(rec["dst"] for rec in sends(result, "rows_req")) == responders
    assert sorted(rec["src"] for rec in sends(result, "rows_resp")) == responders
    assert all(rec["secured"] for rec in sends(result, "rows_resp"))


def test_a_member_silent_in_verification_is_rebuilt_from_fetched_rows():
    faults = [Fault(id=5, phase="verification", action="disconnect")]
    result = run_rounds(
        RoundSpec(n=5, t=2, length=2, s_min=3), SimConfig(seed=1, n=5, faults=faults)
    )
    r = result.rounds[0]
    assert r.phase == "done" and 5 in r.m_set
    assert r.field_sum == field_sum_oracle(result, r.m_set)
    leader = result.nodes[r.leader]
    assert leader.gaps[1:] == ([5], [])
    assert all(set(body["v"]) == {"5"} and body["lost"] == {} for body in leader.rows.values())
    assert result.transcript.count(type="note", note="recover", what="contributor_keys") == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_fetched_at_the_budget_floor_are_read_before_the_deadline(variant):
    # one-tick links and the smallest verification budget: the last answer
    # lands on the very tick of the leader's deadline, and is still read
    budgets = {phase: 10 for phase in PHASES}
    cfg = SimConfig(seed=0, n=5, delay_min=1, delay_max=1, budgets=budgets)
    result = run_rounds(RoundSpec(n=5, t=3, length=2, variant=variant, share_loss=(4,)), cfg)
    r = result.rounds[0]
    assert r.phase == "done" and r.recovered == [4]
    assert len(sends(result, "rows_resp")) == 3


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_odd_slot_rounds_each_verification_tick_down(variant):
    # budget 57: the slot rounds down to 11, so the first turn falls at 22,
    # `lead` a round trip and a tick on, at 33, and the row read a round trip
    # after that, at 43
    cfg = SimConfig(seed=0, n=5, budgets={**DEFAULT_BUDGETS, "verification": 57})
    result = run_rounds(RoundSpec(n=5, t=3, length=2, variant=variant, share_loss=(4,)), cfg)
    assert result.rounds[0].phase == "done"
    records = result.transcript.records
    start = next(
        rec["t"] for rec in records if rec["type"] == "phase" and rec["phase"] == "verification"
    )
    assert {rec["t"] - start for rec in sends(result, "share_req")} == {22}
    assert {rec["t"] - start for rec in sends(result, "rows_req")} == {33}
    recovers = [rec for rec in records if rec["type"] == "note" and rec["note"] == "recover"]
    assert recovers and {rec["t"] - start for rec in recovers} == {43}


def verification_clock(delay_max: int, budget: int, n: int = 100) -> tuple[int, list[int]]:
    """As `ParticipantNode._set_clock` times verification when the phase opens
    at tick 0: the turns it leaves, and the ticks at which candidate 0 asks,
    leads and reads the rows it fetched."""
    spec = RoundSpec(n=n, t=2, length=1)
    node = ParticipantNode(1, spec, spec.validate(), random.Random(0))
    node.begin_round(0, deals=True)  # participant 1 is round 0's candidate 0
    timers = []
    sim = SimpleNamespace(
        now=0,
        phase="verification",
        config=SimConfig(
            n=n, delay_max=delay_max, budgets={**DEFAULT_BUDGETS, "verification": budget}
        ),
        schedule_timer=lambda dst, at, name, data=None: timers.append((name, at)),
    )
    node.on_phase_start(sim, "verification")
    [(name, ask)] = timers
    assert name == "turn"
    lead = ask + node.lead_wait
    return node.turns, [ask, lead, lead + node.rows_wait]


@pytest.mark.parametrize("delay_max, turns", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 2), (6, 2)])
def test_turns_at_the_budget_floor(delay_max, turns):
    # at the smallest budget SimConfig accepts, 10 * delay_max, the room left
    # after candidate 0's row read, 2 * delay_max - 2, holds a second turn's
    # gap, delay_max + 1, only from delay_max 3 on
    assert verification_clock(delay_max, 10 * delay_max)[0] == turns


@pytest.mark.parametrize("variant", VARIANTS)
def test_at_the_budget_floor_of_delay_max_1_a_silent_first_candidate_times_out(variant):
    # the one turn is party 1's, whose request reaches no one; four intact
    # holders stay online, but none gets a turn
    faults = [Fault(id=1, phase="verification", action="drop_outbound")]
    budgets = {phase: 10 for phase in DEFAULT_BUDGETS}
    cfg = SimConfig(seed=0, n=5, delay_max=1, budgets=budgets, faults=faults)
    r = run_rounds(RoundSpec(n=5, t=3, length=2, variant=variant), cfg).rounds[0]
    assert (r.phase, r.error) == ("rejected", "RevealTimeout")


def test_readme_verification_ticks_are_the_clocks():
    """README's worked ticks, at the default budgets and at a verification
    budget of 57, as the one clock computes them, and as README states them."""
    turns, (ask, lead, rows) = verification_clock(5, DEFAULT_BUDGETS["verification"])
    _, odd = verification_clock(5, 57)
    assert (turns, [ask, lead, rows], odd) == (47, [200, 211, 221], [22, 33, 43])
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    assert f"asks at +{ask}, leads at +{lead} and, if it fetches rows, reads them at +{rows}" in text
    assert f"every candidate up to n = {turns} can" in text
    assert "asks at +{}, sends `rows_req` at +{} and recovers at +{}".format(*odd) in text


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_huge_scale_bits_is_rejected_before_its_scale_is_built(variant):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            RoundSpec.from_dict({"n": 3, "scale_bits": 10**7, "variant": variant})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_scale_past_the_field_still_fits_under_a_tiny_clip():
    # 140 scale bits against a 130-bit prime: one party's width is 2^111
    assert DEFAULT_PRIME.bit_length() == 130
    RoundSpec(n=3, scale_bits=140, clip_bound=2.0**-30).validate()
    with pytest.raises(ConfigError):
        RoundSpec(n=3, scale_bits=140, clip_bound=2.0**-10).validate()


# ---- the candidate order: no election traffic, and a takeover on time ---------------------

FIRST_TURN = 2 * (DEFAULT_BUDGETS["verification"] // 5)  # the first candidate's turn


@pytest.mark.parametrize(
    "doc, round_no, count",
    [
        ({"seed": 0, "n": 10}, 0, 227),
        ({"seed": 0, "n": 10, "variant": "group", "rounds": 2}, 1, 47),
        ({"seed": 0, "n": 30}, 0, 1887),
    ],
    ids=["scalar-n10", "group-reuse-n10", "scalar-n30"],
)
def test_an_honest_round_sends_nothing_to_choose_its_leader(monkeypatch, doc, round_no, count):
    timers, on_timer = Counter(), ParticipantNode.on_timer

    def count_timers(node, sim, name, data):
        if sim.round == round_no:
            timers[sim.phase, name] += 1
        on_timer(node, sim, name, data)

    monkeypatch.setattr(ParticipantNode, "on_timer", count_timers)
    result = run_rounds(doc)
    assert all(r.phase == "done" for r in result.rounds)
    sent = [rec for rec in result.transcript.records if rec["type"] == "send"]
    assert sum(rec["round"] == round_no for rec in sent) == count
    assert not {rec["kind"] for rec in sent} & {"commit", "reveal"}
    # the first candidate leads: one turn timer per party and its own lead
    # step, then one look per other party for a missing sum
    n = doc["n"]
    assert timers == {("verification", "turn"): n, ("verification", "lead"): 1,
                      ("decryption", "turn"): n - 1}


@st.composite
def losses_before_the_first_turn(draw) -> dict:
    """n 3-7, t <= n - 1, either variant: one participant disconnects in
    verification before the first turn."""
    n = draw(st.integers(3, 7))
    fault = {
        "id": draw(st.integers(1, n)), "phase": "verification", "action": "disconnect",
        "offset": draw(st.integers(0, FIRST_TURN - 1)),
    }
    return {
        "seed": draw(st.integers(0, 2**16)), "n": n, "t": draw(st.integers(2, n - 1)), "l": 2,
        "variant": draw(st.sampled_from(VARIANTS)), "faults": [fault],
    }


# party 2 disconnects at tick 101 of verification: the round must not wait on it
LOST_AT_101 = {
    "seed": 0, "n": 4, "t": 2, "l": 3, "s_min": 3,
    "faults": [{"id": 2, "phase": "verification", "action": "disconnect", "offset": 101}],
}


@settings(max_examples=60, deadline=None)
@given(doc=losses_before_the_first_turn())
@example(doc={**LOST_AT_101, "variant": "scalar"})
@example(doc={**LOST_AT_101, "variant": "group"})
def test_a_party_lost_before_the_first_turn_never_leads_and_the_round_ends_done(doc):
    """The n - 1 parties left hold t rows of every member, and a candidate
    that went before its turn never asks, so the next one leads."""
    result = run_rounds(doc)
    r = result.rounds[0]
    assert r.phase == "done" and r.verified and r.leader != doc["faults"][0]["id"]
    assert r.m_set == list(range(1, doc["n"] + 1))
    assert r.field_sum == field_sum_oracle(result, r.m_set)


def test_a_candidate_whose_request_reaches_no_one_stays_silent():
    # sweep document 367: party 1, the first candidate, drops all it sends from
    # tick 75 of verification, so its request reaches no one and it hears no
    # answer by `lead`: it sends no `reject` and keeps following itself, and
    # party 2, which asks a turn later, rebuilds party 1's keys from rows
    result = run_rounds(sweep_document(367))
    r = result.rounds[0]
    assert r.phase == "done" and r.leader == 2 and r.m_set == [1, 2, 3, 5, 6, 7]
    assert r.field_sum == field_sum_oracle(result, r.m_set)
    assert [rec for rec in result.transcript.records if rec.get("note") == "reject"] == []
    assert result.nodes[1].leader == 1 and result.nodes[1].sums is None


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tick", [FIRST_TURN + 7, FIRST_TURN + 12, 300, 480])
def test_a_later_candidate_asking_past_its_turn_draws_nothing(monkeypatch, variant, tick):
    """Party 2, round 0's second candidate, broadcasts `share_req` once its
    own turn has passed, while party 1 leads: neither the leader nor any
    member answers it, and the round ends done under party 1."""
    start, on_timer = ParticipantNode.on_phase_start, ParticipantNode.on_timer

    def arm(node, sim, phase):
        start(node, sim, phase)
        if phase == "verification" and node.id == PEER_REQUESTER:
            sim.schedule_timer(node.id, sim.now + tick, "ask")

    def ask(node, sim, name, data):
        if name != "ask":
            on_timer(node, sim, name, data)
            return
        sim.broadcast(node.id, node.peers, "share_req", {"m": node.m_set})

    monkeypatch.setattr(ParticipantNode, "on_phase_start", arm)
    monkeypatch.setattr(ParticipantNode, "on_timer", ask)
    result = run_rounds({"seed": 0, "n": 5, "t": 3, "variant": variant})
    r = result.rounds[0]
    assert r.phase == "done" and r.leader == 1 and r.delivered_to == [1, 2, 3, 4, 5]
    assert r.field_sum == field_sum_oracle(result, r.m_set)
    assert [rec["src"] for rec in sends(result, "share_req")] == [1] * 4 + [PEER_REQUESTER] * 4
    answers = sends(result, "share_resp") + sends(result, "share_resp_fb")
    assert sorted(rec["src"] for rec in answers) == [2, 3, 4, 5]
    assert {rec["dst"] for rec in answers} == {1}


@pytest.mark.parametrize("variant", VARIANTS)
def test_at_the_smallest_budgets_a_second_candidate_leads_past_a_silent_first(variant):
    """Every budget 10 * delay_max: party 1, the first candidate, drops all it
    sends in verification, so its request reaches no one. Party 2 asks a
    turn later, rebuilds party 1's keys from the rows it fetches in time,
    and the round ends done."""
    budgets = {phase: 10 * SimConfig(n=5).delay_max for phase in DEFAULT_BUDGETS}
    for seed in range(4):
        faults = [Fault(id=1, phase="verification", action="drop_outbound")]
        cfg = SimConfig(seed=seed, n=5, budgets=budgets, faults=faults)
        result = run_rounds(RoundSpec(n=5, t=3, length=2, variant=variant), cfg)
        r = result.rounds[0]
        assert r.phase == "done" and r.leader == 2 and r.m_set == [1, 2, 3, 4, 5]
        assert r.field_sum == field_sum_oracle(result, r.m_set)
        assert [rec["by"] for rec in result.transcript.records if rec.get("note") == "reject"] == []


@pytest.mark.parametrize("index", [303, 423, 476])
def test_a_first_candidate_lost_after_its_turn_leaves_the_round_done(index):
    """Sweep documents 303, 423 and 476: party 1, round 0's first candidate,
    disconnects in verification after leading; the next candidate takes over
    in decryption, and every round that ended done under the commit/reveal
    election ends done with the exact sum over M."""
    result = run_rounds(sweep_document(index))
    r = result.rounds[0]
    assert r.phase == "done" and r.leader != 1
    assert r.field_sum == field_sum_oracle(result, r.m_set)
    if index == 476:  # round 1's first candidate is party 2
        assert result.rounds[1].phase == "done"
        assert result.rounds[1].field_sum == field_sum_oracle(result, result.rounds[1].m_set)


# Every sweep round in which two candidates asked. The earlier of the two in
# the candidate order heard no answer and stayed silent; the round reports the
# later one, which gave a verdict: (document, round, the candidates that asked,
# leader, error, verified).
TWO_ASKED = [
    (3, 2, [1, 3], 1, "RecoveryQuorumFailure", None),
    (23, 1, [2, 4], 4, "RecoveryQuorumFailure", None),
    (157, 0, [2, 3], 3, "VerificationFailed", False),
    (216, 1, [2, 5], 5, "RecoveryQuorumFailure", None),
    (234, 1, [2, 3], 3, "RecoveryQuorumFailure", None),
    (393, 0, [1, 2], 2, "RecoveryQuorumFailure", None),
    (457, 1, [3, 4], 4, "RecoveryQuorumFailure", None),
    (457, 2, [3, 4], 4, "RecoveryQuorumFailure", None),
]


@pytest.mark.parametrize(("index", "r", "asked", "leader", "error", "verified"), TWO_ASKED)
def test_a_round_two_candidates_asked_in_reports_the_one_with_a_verdict(
    index, r, asked, leader, error, verified
):
    result = run_rounds(sweep_document(index))
    requests = [rec for rec in result.transcript.records if rec.get("kind") == "share_req"]
    assert sorted({rec["src"] for rec in requests if rec["round"] == r}) == asked
    state = result.rounds[r]
    assert (state.phase, state.leader, state.error, state.verified) == (
        "rejected", leader, error, verified,
    )
