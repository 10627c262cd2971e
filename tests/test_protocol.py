"""End-to-end protocol rounds on the simulator: happy paths, faults, recovery."""

import gc
import json
import math
import weakref
from collections import Counter
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secel.errors import AuthFailure, ConfigError, RevealTimeout, SetupQuorumFailure
import secel.group_variant as group_variant
import secel.protocol as protocol
import secel.simnet as simnet
from secel.group_variant import DEFAULT_GROUP, TOY_GROUP, unwrap_share
from secel.algebra import DEFAULT_PRIME, PrimeModulus
from secel.cli import main as cli_main
from secel.protocol import (
    VARIANTS,
    GroupArith,
    ParticipantNode,
    RoundSpec,
    ScenarioResult,
    elect_leader,
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
    channel_key,
)
from test_golden import SCENARIOS


def field_sum_oracle(result: ScenarioResult, members, round_state=None):
    """Independently recompute the expected field sums from the raw inputs."""
    spec = result.spec
    codec = spec.codec()
    modulus = spec.field_modulus()
    total = [0] * spec.length
    for i in members:
        for j, e in enumerate(codec.encode(result.inputs[i], modulus)):
            total[j] = (total[j] + e) % modulus.p
    return total


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
            assert node.reject_reason == "MalformedAggregate" and not node.has_aggregate
        elif i != 0:
            assert node.has_aggregate


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
        assert result.transcript.count(type="note", note="malformed_submission") == 1
        if s_min == 3:
            assert r.phase == "done" and r.verified is True
            assert r.m_set == others and r.failed == [1]
            assert r.field_sum == field_sum_oracle(result, others)
        else:
            assert r.phase == "rejected" and r.error == "StalenessTimeout"
            assert r.field_sum is None and r.delivered_to == []


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


NAMED_REJECTIONS = (
    "SetupQuorumFailure",
    "StalenessTimeout",
    "MalformedAggregate",
    "RevealTimeout",
    "VerificationFailed",
    "RecoveryQuorumFailure",
    "DecodeFailure",
    "BudgetExhausted",
)

MALFORMED_SETUP = {
    "setup1_string_v": ("setup1", lambda body: {**body, "v": "x"}),
    "setup2_list_a": ("setup2", lambda body: {**body, "a": [1]}),
    "pk_string": ("pk", lambda body: {**body, "pk": "x"}),
    "gsetup1_float_w": ("gsetup1", lambda body: {**body, "w": 1.5}),
    "gsetup2_empty": ("gsetup2", lambda body: {}),
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
    "commit_int_h": ("commit", lambda body: {**body, "h": 5}, {}, []),
    "reveal_string_v": ("reveal", lambda body: {**body, "v": "x"}, {}, []),
    "reveal_int_salt": ("reveal", lambda body: {**body, "salt": 7}, {}, []),
    "reveal_v_at_range": ("reveal", lambda body: {**body, "v": 1 << 32}, {}, []),
    "share_req_int_m": ("share_req", lambda body: {**body, "m": 5}, {}, []),
    "share_req_unknown_id": ("share_req", lambda body: {"m": [1, 99]}, {}, []),
    "reject_no_reason": ("reject", lambda body: {}, {"tamper": "flip_element"}, []),
    "abort_list_reason": (
        "abort",
        lambda body: {"reason": [1]},
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
                "digest": env.digest,
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

    # rows hold plain values: no envelope, no body
    for row in result.transcript._rows:
        values = row.values() if type(row) is dict else row
        for value in values:
            assert not isinstance(value, (Envelope, dict))
            if type(row) is tuple:
                assert value is None or type(value) in (str, int, bool)


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
    opening, second_row = {"scalar": ("setup1", "setup2"), "group": ("pk", "gsetup2")}[variant]
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
    mask = GroupArith.mask

    def shifted(arith, values, dealer, s, round_no):
        if dealer.id == 1:
            values = [(values[0] + 10**30) % arith.q, *values[1:]]
        return mask(arith, values, dealer, s, round_no)

    monkeypatch.setattr(GroupArith, "mask", shifted)


@pytest.mark.parametrize("probe", [_negate_first_pair, _shift_one_contribution])
def test_undecodable_group_sum_is_a_named_rejection(monkeypatch, probe):
    spec = RoundSpec(n=4, t=2, length=3, variant="group")
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
    arith, group = node.arith, node.arith.group
    lift = unwrap_share(node.held_a[j], arith.keypair.sk_inv, group)
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
    send = Simulator.send

    def rewrite_second_rows(sim, src, dst, kind, body, key=None):
        if kind == "gsetup2":
            body = {"w": rewrite(body["w"])}
        send(sim, src, dst, kind, body, key=key)

    monkeypatch.setattr(Simulator, "send", rewrite_second_rows)
    result = run_rounds(spec, SimConfig(seed=1, n=4))
    for node in participants(result):
        assert len(node.chan_keys) == len(node.peers)
        for j in node.peers:
            assert node.chan_keys[j] == _two_step_key(node, j)


@pytest.mark.parametrize("n", [4, 10])
def test_group_dealing_costs_four_full_width_pows_per_pair(monkeypatch, n):
    calls = []

    def counting_pow(base, exp, mod=None):
        calls.append((exp, mod))
        return pow(base, exp, mod)

    for module in (protocol, group_variant):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    run_phase, setup_calls = Simulator.run_phase, []

    def counted_run_phase(sim, phase, round_no):
        start = len(calls)
        run_phase(sim, phase, round_no)
        if phase == "setup":
            setup_calls.extend(calls[start:])

    monkeypatch.setattr(Simulator, "run_phase", counted_run_phase)
    spec = RoundSpec(n=n, t=2, length=2, variant="group", group=DEFAULT_GROUP)
    result = run_rounds(spec, SimConfig(seed=1, n=n))
    assert result.rounds[0].phase == "done"
    full_width = [exp for exp, _ in setup_calls if exp.bit_length() > 64]
    assert len(full_width) == 4 * n * (n - 1)  # two wraps, one unwrap, one DH power
    assert [call for call in setup_calls if call[0] == -1] == [(-1, DEFAULT_GROUP.q)] * n


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


def test_elect_leader_examples_and_uniformity():
    assert elect_leader({1: 0, 2: 0, 3: 0}) == 1
    assert elect_leader({1: 1, 2: 0, 3: 0}) == 2
    assert elect_leader({5: 7}) == 5
    # one honest uniform reveal sweeps the whole electorate
    electorate = [2, 3, 5, 8, 13]
    seen = {elect_leader(dict.fromkeys(electorate, 0) | {2: r}) for r in range(5)}
    assert seen == set(electorate)
    with pytest.raises(RevealTimeout):
        elect_leader({})


def test_run_setup_pure_happy_path():
    import random

    modulus = PrimeModulus(31)
    setup = run_setup([1, 2, 3, 4], t=2, modulus=modulus, rng=random.Random(0))
    assert setup.survivors == [1, 2, 3, 4]
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


def test_run_setup_share_loss_and_quorum():
    import random

    modulus = PrimeModulus(31)
    setup = run_setup(
        [1, 2, 3], t=2, modulus=modulus, rng=random.Random(1), share_loss=(3,)
    )
    assert setup.survivors == [1, 2]
    assert setup.received_v[3] == {} and setup.dealers[3].a_poly is None
    with pytest.raises(SetupQuorumFailure):
        run_setup(
            [1, 2, 3], t=2, modulus=modulus, rng=random.Random(1), share_loss=(2, 3)
        )


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
    ],
)
def test_bools_and_non_finite_numbers_are_config_errors(doc):
    with pytest.raises(ConfigError):
        run_rounds(doc)


@pytest.mark.parametrize("prime", [91, DEFAULT_PRIME + 2, (2**61 - 1) * (2**31 - 1)])
def test_composite_prime_is_rejected_on_every_validate(prime):
    spec = RoundSpec(n=4, t=2, length=2, prime=prime)
    for _ in range(2):  # the second check is answered from the cache, alike
        with pytest.raises(ConfigError, match="prime must be prime"):
            spec.validate()


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
    kind, name = {"scalar": ("setup2", "a"), "group": ("gsetup2", "w")}[variant]
    p = spec.arith().p
    on_message, resent = ParticipantNode.on_message, []

    def deal_again_once_complete(node, sim, env):
        was_complete = node.complete
        on_message(node, sim, env)
        if node.complete and not was_complete:
            # every peer's second row arrives once more, altered per holder, while
            # setup still runs
            for j in node.peers:
                sim.send(j, node.id, kind, {name: (node.held_a[j] + node.id) % p})
                resent.append((j, node.id))

    monkeypatch.setattr(ParticipantNode, "on_message", deal_again_once_complete)
    result = run_rounds(spec, SimConfig(seed=2, n=5))
    assert len(resent) == 5 * 4
    assert result.transcript.count(type="note", note="stale_message") == 0
    r = result.rounds[0]
    assert r.phase == "done" and r.field_sum == field_sum_oracle(result, r.m_set)
    nodes = result.nodes
    for i, j in resent:
        assert nodes[i].chan_key(j) is not None
        assert nodes[i].chan_key(j) == nodes[j].chan_key(i) == eager_key(nodes[j], i)


def test_wiped_party_serves_no_channel_key():
    result = run_rounds(RoundSpec(n=5, t=2, length=3), SimConfig(seed=2, n=5))
    node = participants(result)[0]
    assert all(node.chan_key(j) is not None for j in node.peers)
    node.wipe_shares()
    assert node.chan_keys == {}
    assert all(node.chan_key(j) is None for j in node.peers)


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
    assert all(node.field_sum == r.field_sum for node in participants(result))


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
    recovered = result.nodes[r.leader].findings.recovered
    assert sorted(recovered) == [4, 5] and {4, 5} <= set(got)
    for u, body in got.items():
        assert body["sum"] == r.field_sum
        assert body.get("recovered") == recovered.get(u)
    plain = [body for u, body in got.items() if u not in recovered]
    assert plain and all(body is plain[0] for body in plain)
    assert len({id(body) for body in got.values()}) == 3  # 4's, 5's and the shared one


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

BROADCAST_KINDS = ("pk", "aggregate", "commit", "reveal", "share_req")
DEALING_KINDS = ("setup1", "setup2", "gsetup1", "gsetup2")


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
    assert {"aggregate", "commit", "reveal", "share_req", *multicast, *dealt} <= set(per_kind)
    # every point-to-point dealing copy is still checked on its own
    for kind in dealt:
        delivered = result.transcript.count(type="deliver", kind=kind)
        assert per_kind[kind] == delivered == spec.n * (spec.n - 1)


# ---- commit/reveal: each revealed commitment hashed once ----------------------------------


def counting_commitments(monkeypatch):
    calls = []
    real = protocol._commitment
    monkeypatch.setattr(protocol, "_commitment", lambda *args: calls.append(args) or real(*args))
    protocol._revealed_commitment.cache_clear()
    return calls


def test_each_revealed_commitment_is_hashed_once(monkeypatch):
    calls = counting_commitments(monkeypatch)
    result = run_rounds(RoundSpec(n=10, t=4, length=2), SimConfig(seed=1, n=10))
    assert result.ok
    electors = result.transcript.count(type="send", kind="reveal") // 9
    assert electors == 10
    assert len(calls) == 2 * electors  # its own commitment, then its reveal once for all


def test_a_mismatched_reveal_is_noted_by_every_receiver(monkeypatch):
    counting_commitments(monkeypatch)
    broadcast = Simulator.broadcast

    def lie(sim, src, dsts, kind, body):
        if kind == "reveal" and src == 1:
            body = {**body, "v": (body["v"] + 1) % (1 << 32)}
        broadcast(sim, src, dsts, kind, body)

    monkeypatch.setattr(Simulator, "broadcast", lie)
    result = run_rounds(RoundSpec(n=10, t=4, length=2), SimConfig(seed=1, n=10))
    notes = [rec for rec in result.transcript.records if rec.get("note") == "bad_reveal"]
    assert sorted(rec["seen_by"] for rec in notes) == list(range(2, 11))
    assert all(rec["voter"] == 1 for rec in notes)
    assert all(1 not in node.reveals for node in participants(result) if node.id != 1)
    assert result.ok


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
        st.builds(lambda k, v: {**body, k: v}, st.sampled_from(["m", "failed", "c"]), JSON_VALUES),
        st.sampled_from(["m", "failed", "c"]).map(lambda k: {x: body[x] for x in body if x != k}),
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


# MESSAGE_KINDS entries whose plaintext body is not checked field by field,
# each with the reason; a new plaintext kind must name its fields instead
UNCHECKED_KINDS = {
    "share_resp": "sealed: a body that does not open under the channel key is dropped",
    "share_resp_fb": "sealed: a body that does not open under the fallback key is dropped",
    "result": "sealed: a body that does not open is dropped",
    "round_done": "its handler reads only the sealed form; a plaintext body is never read",
}


def test_only_sealed_and_unread_bodies_skip_the_field_table():
    unchecked = {kind for kind, (_, fields, _) in protocol.MESSAGE_KINDS.items() if not fields}
    assert unchecked == set(UNCHECKED_KINDS)
    _, fields, _ = protocol.MESSAGE_KINDS["aggregate"]
    assert [name for name, _, _ in fields] == ["m", "failed", "c"]


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
    bound = max(RoundSpec.from_dict(doc).arith().p, protocol.COMMIT_RANGE)
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
# party 3 is offline when each reuse round's masking starts, then is elected
@example(doc={
    "seed": 0, "n": 3, "t": 2, "l": 3, "rounds": 3, "variant": "group", "s_min": 1,
    "faults": [
        {"id": 3, "phase": "masking", "action": "reconnect", "offset": 293},
        {"id": 3, "phase": "decryption", "action": "disconnect", "offset": 154},
    ],
})
def test_honest_rounds_end_done_with_the_exact_sum_or_a_liveness_rejection(doc):
    result = run_rounds(doc)
    for r in result.rounds:
        if r.phase == "done":
            assert r.verified and r.field_sum == field_sum_oracle(result, r.m_set)
        else:
            assert r.phase == "rejected" and r.error in LIVENESS_REJECTIONS, r


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_run_with_auth_failures_creates_no_cyclic_garbage(variant):
    _, auth_fails, garbage = cyclic_garbage({"seed": 3, "n": 5, "variant": variant}, corrupt=True)
    assert auth_fails == 1 and garbage == []
