"""Simulator-core checks: config parsing, channels, faults, determinism."""

import gc
import hashlib
import heapq
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import secel.simnet as simnet
from secel.errors import AuthFailure, ConfigError
from secel.protocol import MESSAGE_KINDS
from secel.simnet import (
    AGGREGATOR_ID,
    DEFAULT_BUDGETS,
    FAULT_ACTIONS,
    PHASES,
    Envelope,
    Fault,
    Node,
    SimConfig,
    Simulator,
    aead_data,
    aead_header,
    canonical_json,
    channel_key,
    derive_seed,
    open_sealed,
    payload_digest,
    seal,
    secure_recv,
)


class Recorder(Node):
    """Passive endpoint that logs everything the simulator hands it."""

    def __init__(self, node_id):
        self.id = node_id
        self.got = []
        self.timers = []
        self.started = []

    def on_phase_start(self, sim, phase):
        self.started.append((sim.now, phase))

    def on_message(self, sim, env):
        self.got.append(env)

    def on_timer(self, sim, name, data):
        self.timers.append((sim.now, name, data))


class Chatter(Recorder):
    """Greets every other node at each phase start."""

    def on_phase_start(self, sim, phase):
        super().on_phase_start(sim, phase)
        for j in sorted(sim.nodes):
            if j != self.id:
                sim.send(self.id, j, "hello", {"who": self.id, "phase": phase})


def make_sim(n=3, seed=0, faults=(), node_cls=Chatter):
    cfg = SimConfig(seed=seed, n=n, faults=list(faults))
    sim = Simulator(cfg)
    for i in range(1, n + 1):
        sim.add_node(node_cls(i))
    return sim


# ---- configuration ---------------------------------------------------------------


def test_default_budgets_cover_all_phases():
    assert set(DEFAULT_BUDGETS) == set(PHASES)
    assert AGGREGATOR_ID == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"n": 0},
        {"delay_min": 0},
        {"delay_min": 6, "delay_max": 5},
        {"budgets": {**DEFAULT_BUDGETS, "setup": 3}},  # < 10 * delay_max
        {"budgets": {k: v for k, v in DEFAULT_BUDGETS.items() if k != "setup"}},
        {"faults": [Fault(id=1, phase="bogus", action="disconnect")]},
        {"faults": [Fault(id=1, phase="setup", action="explode")]},
        {"faults": [Fault(id=0, phase="setup", action="disconnect")]},
        {"faults": [Fault(id=9, phase="setup", action="disconnect")]},
        {"faults": [Fault(id=1, phase="setup", action="disconnect", offset=-1)]},
        {"delay_min": "1"},
        {"budgets": [1]},
        {"faults": 5},
        {"faults": [Fault(id="x", phase="setup", action="disconnect")]},
        {"faults": [Fault(id=1, phase="setup", action="disconnect", offset="x")]},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**{"n": 3, **kwargs}).validate()


def test_config_from_dict_roundtrip():
    cfg = SimConfig.from_dict(
        {
            "seed": 4,
            "n": 2,
            "delay": {"min": 2, "max": 3},
            "budgets": {"setup": 1000},
            "faults": [
                {"id": 1, "phase": "masking", "action": "disconnect", "offset": 7}
            ],
        }
    )
    assert (cfg.seed, cfg.n, cfg.delay_min, cfg.delay_max) == (4, 2, 2, 3)
    assert cfg.budgets["setup"] == 1000
    assert cfg.budgets["masking"] == DEFAULT_BUDGETS["masking"]
    assert cfg.faults == [Fault(id=1, phase="masking", action="disconnect", offset=7)]


def test_config_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        SimConfig.from_dict("not a dict")
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"n": 3, "faults": [{"id": 1}]})
    fault = {"id": 1, "phase": "setup", "action": "disconnect"}
    for garbage in (
        {"delay": 5},
        {"delay": {"min": "1"}},
        {"budgets": [1]},
        {"budgets": {"setpu": 900}},
        {"delay": {"mn": 3}},
        {"faults": 5},
        {"faults": [{**fault, "id": "x"}]},
        {"faults": [{**fault, "offset": "x"}]},
        {"faults": [{**fault, "note": "x"}]},
    ):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"n": 3, **garbage})


def test_config_from_dict_reads_each_document_key_and_no_other():
    # a bad value under each key of DOC_KEYS is refused, so from_dict reads it
    bad = {"seed": -1, "n": 0, "delay": 5, "budgets": [1], "faults": 5}
    assert set(bad) == SimConfig.DOC_KEYS
    for key, value in bad.items():
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"n": 3, key: value})
    # a round spec's own keys pass through unread
    assert SimConfig.from_dict({"n": 3, "t": "x", "l": None, "variant": 5}) == SimConfig(n=3)


# ---- seeds and canonical encoding ---------------------------------------------------


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(7, "node", 3) == derive_seed(7, "node", 3)
    streams = {
        derive_seed(7, "node", 1),
        derive_seed(7, "node", 2),
        derive_seed(7, "net"),
        derive_seed(8, "node", 1),
    }
    assert len(streams) == 4


def test_derive_seed_survives_hash_randomization():
    code = "from secel.simnet import derive_seed; print(derive_seed(7, 'node', 3))"
    outputs = set()
    for hashseed in ("0", "1", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]}) == (
        b'{"a":[2,{"y":1,"z":0}],"b":1}'
    )
    digest = payload_digest(b"hello")
    assert len(digest) == 16
    int(digest, 16)  # hex


def reference_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


WIDE_INTS = st.integers(min_value=-(2**520), max_value=2**520)
IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
KEYS = st.one_of(
    IDENTIFIERS,  # the keys every protocol body uses
    st.text(max_size=4),  # quotes, backslashes, control and non-ASCII characters
    st.sampled_from(["é", "a b", 'q"', "x\\y", "\n", "1", "ab", "a", "_"]),
)
PAIR_LISTS = st.lists(st.lists(WIDE_INTS, min_size=2, max_size=2), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(WIDE_INTS, st.booleans(), st.none(), st.text(max_size=3), st.floats()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=3)
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        KEYS, st.one_of(WIDE_INTS, st.booleans(), st.floats(), PAIR_LISTS, JSON_VALUES), max_size=6
    )
)
@example({})
@example({"v": 0, "s": -1, "w": 2**400})
@example({"v": True, "s": False})
@example({"v": 1, "s": 2.0})
@example({"a": 1, "ab": 2, "a_": 3, "A": 4, "_": 5, "a0": 6})
@example({"é": 1, "v": 2})
@example({"x": [1, 2], "y": {}})
@example({"c": [[1, 2], [3, -4]], "m": [1, 2], "failed": []})
@example({"sum": [1, 2], "m": [3], "failed": [], "recovered": 2**129})
def test_canonical_json_matches_json_dumps(obj):
    assert canonical_json(obj) == reference_json(obj)


class RecordingEncoder:
    """Wraps the general encoder and notes what reaches it."""

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def encode(self, obj):
        self.seen.append(obj)
        return self.inner.encode(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"v": True},
        {"v": 1, "s": False},
        {"v": 1.5},
        {"v": 2, "s": 2.0},
        {"v": None},
        {"v": [1, 2]},
        {"a b": 1},
        {"é": 1},
        {"1": 2},
        {"q\"": 3},
        {1: 2},
    ],
)
def test_bodies_that_are_not_flat_ints_fall_through(monkeypatch, obj):
    import secel.simnet as simnet

    # bools, floats, nesting and keys that need escaping: one pass of the one encoder
    recorder = RecordingEncoder(simnet._ENCODER)
    monkeypatch.setattr(simnet, "_ENCODER", recorder)
    assert canonical_json(obj) == reference_json(obj)
    assert recorder.seen == [obj]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    lo=st.integers(min_value=1, max_value=10**6),
    extra=st.one_of(st.integers(min_value=0, max_value=70), st.integers(min_value=0, max_value=10**6)),
)
@example(seed=0, lo=1, extra=0)
@example(seed=1, lo=1, extra=4)
@example(seed=2, lo=3, extra=2**20 - 1)
def test_delay_draws_match_randint(seed, lo, extra):
    hi = lo + extra
    budget = 10 * hi
    cfg = SimConfig(seed=seed, n=2, delay_min=lo, delay_max=hi, budgets=dict.fromkeys(PHASES, budget))
    sim = Simulator(cfg)
    for i in (1, 2):
        sim.add_node(Recorder(i))
    for _ in range(8):
        sim.send(1, 2, "x", {})
    sim.run_phase("setup", 0)
    assert sorted(env.seq for env in sim.nodes[2].got) == list(range(8))
    # seq -> the tick of its send record, then of its deliver record
    at = {"send": {}, "deliver": {}}
    for rec in sim.transcript.records:
        if rec["type"] in at:
            at[rec["type"]][rec["seq"]] = rec["t"]
    rng = random.Random(derive_seed(seed, "net"))
    assert [at["deliver"][seq] - at["send"][seq] for seq in range(8)] == [
        rng.randint(lo, hi) for _ in range(8)
    ]


# ---- the authenticated channel -------------------------------------------------------


HEADER = {"src": 1, "dst": 2, "kind": "share_resp", "round": 0, "seq": 0}


def test_seal_open_roundtrip():
    key = channel_key(123456789)
    body = {"values": [1, 2, 3], "note": "x"}
    blob = seal(key, HEADER, body)
    assert open_sealed(key, HEADER, blob) == body


def test_channel_key_depends_on_secret_and_context():
    assert channel_key(5) != channel_key(5, context=b"fallback")
    assert len(channel_key(5)) == 32
    # a value past 512 bits is packed in as many bytes as it needs; below, in 64
    values = [5, 6, 2**512 - 1, 2**512, 2**1279 - 2]
    assert len({channel_key(v) for v in values}) == len(values)
    below = hashlib.sha256(b"secel/chan/v1/pairwise/" + (2**512 - 1).to_bytes(64, "big"))
    assert channel_key(2**512 - 1) == below.digest()


def test_every_ciphertext_bitflip_is_rejected():
    key = channel_key(42)
    blob = seal(key, HEADER, {"x": 1})
    for byte in range(len(blob)):
        for bit in range(8):
            broken = bytearray(blob)
            broken[byte] ^= 1 << bit
            with pytest.raises(AuthFailure):
                open_sealed(key, HEADER, bytes(broken))


def test_header_fields_are_bound_as_associated_data():
    key = channel_key(42)
    blob = seal(key, HEADER, {"x": 1})
    tampered = [
        {**HEADER, "src": 3},
        {**HEADER, "dst": 3},
        {**HEADER, "kind": "result"},
        {**HEADER, "round": 1},
        {**HEADER, "seq": 1},
    ]
    for header in tampered:
        with pytest.raises(AuthFailure):
            open_sealed(key, header, blob)
    with pytest.raises(AuthFailure):
        open_sealed(channel_key(43), HEADER, blob)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(MESSAGE_KINDS)) | st.text(max_size=8),
    src=st.integers(-(2**70), 2**70),
    dst=st.integers(0, 2**70),
    round_no=st.integers(0, 2**40),
    seq=st.integers(0, 2**70),
)
def test_associated_data_is_the_canonical_json_of_the_header(kind, src, dst, round_no, seq):
    # every sealed digest rests on this; a drawn kind checks the escaping
    header = aead_header(src, dst, kind, round_no, seq)
    assert aead_data(header) == canonical_json(header)


def test_a_cached_cipher_still_binds_its_key_and_header():
    key, other = channel_key(42), channel_key(43)
    blob = seal(key, HEADER, {"x": 1})
    assert open_sealed(key, HEADER, blob) == {"x": 1}
    assert simnet._cipher(key) is simnet._cipher(key)  # the cipher is kept, not rebuilt
    seal(other, HEADER, {"x": 2})  # the other key's cipher is kept too
    with pytest.raises(AuthFailure):
        open_sealed(other, HEADER, blob)
    with pytest.raises(AuthFailure):
        open_sealed(key, {**HEADER, "seq": 1}, blob)
    assert open_sealed(key, HEADER, blob) == {"x": 1}


def test_secure_send_and_recv_through_the_simulator():
    key = channel_key(7)

    class Sender(Recorder):
        def on_phase_start(self, sim, phase):
            if self.id == 1:
                sim.send(1, 2, "secret", {"v": 99}, key=key)
                sim.send(1, 2, "open", {"v": 1})

    sim = make_sim(n=2, node_cls=Sender)
    sim.run_phase("setup", 0)
    kinds = {env.kind: env for env in sim.nodes[2].got}
    sealed = kinds["secret"]
    assert sealed.secured and sealed.body is None and sealed.blob is not None
    assert secure_recv(key, sealed) == {"v": 99}
    with pytest.raises(AuthFailure):
        secure_recv(key, kinds["open"])  # not channel-secured
    with pytest.raises(AuthFailure):
        secure_recv(channel_key(8), sealed)


# ---- event loop mechanics -------------------------------------------------------------


def test_phase_windows_are_fixed_width():
    sim = make_sim(n=2, node_cls=Recorder)  # nobody sends: still advances
    sim.run_phase("setup", 0)
    assert sim.now == DEFAULT_BUDGETS["setup"]
    sim.run_phase("masking", 0)
    assert sim.now == DEFAULT_BUDGETS["setup"] + DEFAULT_BUDGETS["masking"]


def test_unknown_phase_rejected():
    sim = make_sim()
    with pytest.raises(ConfigError):
        sim.run_phase("bogus", 0)


class CollectorProbe(Recorder):
    """Notes whether the cyclic collector runs during its handlers; may raise in one."""

    raise_in = None

    def __init__(self, node_id):
        super().__init__(node_id)
        self.collecting = []

    def on_phase_start(self, sim, phase):
        super().on_phase_start(sim, phase)
        self.collecting.append(gc.isenabled())
        sim.schedule_timer(self.id, sim.now + 5, "tick")

    def on_timer(self, sim, name, data):
        self.collecting.append(gc.isenabled())
        if self.raise_in == sim.phase:
            raise RuntimeError("handler failed")


@pytest.mark.parametrize("enabled", [True, False])
def test_a_phase_runs_with_the_collector_paused_and_restores_it(enabled):
    sim = make_sim(n=2, node_cls=CollectorProbe)
    sim.nodes[2].raise_in = "masking"
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        sim.run_phase("setup", 0)
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run_phase("masking", 0)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # two phase starts and two timers each; node 2's masking timer raised
    assert sim.nodes[1].collecting == sim.nodes[2].collecting == [False] * 4


def test_delivery_delays_respect_bounds():
    sim = make_sim(n=4, seed=9)
    sim.run_phase("setup", 0)
    sends = {}
    for rec in sim.transcript.records:
        if rec.get("type") == "send":
            sends[(rec["src"], rec["dst"], rec["seq"])] = rec["t"]
        elif rec.get("type") == "deliver":
            lag = rec["t"] - sends[(rec["src"], rec["dst"], rec["seq"])]
            assert sim.config.delay_min <= lag <= sim.config.delay_max


def test_transcript_time_is_monotone_and_digests_match():
    sim = make_sim(n=3, seed=2)
    sim.run_phase("setup", 0)
    times = [rec["t"] for rec in sim.transcript.records]
    assert times == sorted(times)
    digest_of = {}
    for rec in sim.transcript.records:
        if rec.get("type") in ("send", "deliver"):
            ident = (rec["src"], rec["dst"], rec["seq"])
            digest_of.setdefault(ident, rec["digest"])
            assert digest_of[ident] == rec["digest"]


def test_transcripts_are_reproducible_and_seed_sensitive():
    def run(seed):
        sim = make_sim(n=3, seed=seed)
        for phase in PHASES:
            sim.run_phase(phase, 0)
        return sim.transcript.to_ndjson()

    assert run(5) == run(5)
    assert run(5) != run(6)
    for line in run(5).splitlines():
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)


def test_broadcast_encodes_the_body_once(monkeypatch):
    import secel.simnet as simnet

    body = {"c": [[i, i + 1] for i in range(64)], "m": [1, 2, 3, 4]}

    class Caster(Recorder):
        def __init__(self, node_id, fan_out):
            super().__init__(node_id)
            self.fan_out = fan_out

        def on_phase_start(self, sim, phase):
            if self.id == 1:
                self.fan_out(sim)

    def run(fan_out):
        sim = Simulator(SimConfig(seed=4, n=5))
        for i in range(1, 6):
            sim.add_node(Caster(i, fan_out))
        sim.run_phase("aggregation", 0)
        return sim.transcript.records

    def one_by_one(sim):
        for dst in range(2, 6):
            sim.send(1, dst, "aggregate", body)

    encoded = []

    def counting(obj):
        encoded.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(simnet, "canonical_json", counting)
    sent = run(lambda sim: sim.broadcast(1, range(1, 6), "aggregate", body))
    assert encoded == []  # nothing is encoded while the phase runs
    assert [r["type"] for r in sent].count("deliver") == 4
    assert encoded == [body]  # the copies share one digest, computed on first read
    assert list(sent) == list(sent) and encoded == [body]
    separate = run(one_by_one)
    assert len(encoded) == 1
    assert sent == separate
    assert len(encoded) == 5  # the separate sends encode once per peer, when read


def test_shared_body_is_encoded_once_and_sealed_per_recipient(monkeypatch):
    import secel.simnet as simnet

    body = {"sum": [5, 6, 7], "m": [1, 2, 3, 4], "failed": []}
    keys = {dst: channel_key(100 + dst) for dst in (2, 3, 4)}

    class Leader(Recorder):
        def on_phase_start(self, sim, phase):
            if self.id == 1:
                with sim.shared_body(body):
                    for dst, key in keys.items():
                        sim.send(1, dst, "result", body, key=key)

    encoded = []

    def counting(obj):
        encoded.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(simnet, "canonical_json", counting)
    sim = make_sim(n=4, node_cls=Leader)
    sim.run_phase("decryption", 0)
    monkeypatch.undo()
    assert sum(obj is body for obj in encoded) == 1
    blobs = set()
    for dst, key in keys.items():
        (env,) = sim.nodes[dst].got
        blobs.add(env.blob)
        assert secure_recv(key, env) == body
        for other in keys:
            if other != dst:
                with pytest.raises(AuthFailure):
                    secure_recv(keys[other], env)
    assert len(blobs) == 3


def test_shared_bytes_do_not_outlive_the_block():
    body = {"sum": [1, 2]}
    key = channel_key(5)

    class Leader(Recorder):
        def on_phase_start(self, sim, phase):
            if self.id == 1:
                with sim.shared_body(body):
                    sim.send(1, 2, "inside", body, key=key)
                body["sum"][0] = 9
                sim.send(1, 2, "sealed_after", body, key=key)
                sim.send(1, 2, "plain_after", body)

    sim = make_sim(n=2, node_cls=Leader)
    sim.run_phase("decryption", 0)
    got = {env.kind: env for env in sim.nodes[2].got}
    assert secure_recv(key, got["inside"]) == {"sum": [1, 2]}
    assert secure_recv(key, got["sealed_after"]) == {"sum": [9, 2]}
    digests = {rec["digest"] for rec in sim.transcript.records if rec.get("kind") == "plain_after"}
    assert digests == {payload_digest(b'{"sum":[9,2]}')}


def test_sealed_copies_share_one_parse_of_equal_plaintext_only():
    body = {"sum": [1, 2], "m": [1, 2, 3]}
    keys = {dst: channel_key(10 + dst) for dst in (2, 3, 4)}

    class Leader(Recorder):
        def on_phase_start(self, sim, phase):
            if self.id == 1:
                with sim.shared_body(body):
                    for dst, key in keys.items():
                        sim.send(1, dst, "result", body, key=key)

    sim = make_sim(n=4, node_cls=Leader)
    sim.run_phase("decryption", 0)
    (two,), (three,), (four,) = (sim.nodes[dst].got for dst in keys)
    first = secure_recv(keys[2], two)
    assert first == body and first is not body
    assert secure_recv(keys[3], three) is first
    # a copy resealed over other plaintext is parsed on its own
    four.blob = seal(keys[4], four.header(), {"sum": [1, 3]})
    assert secure_recv(keys[4], four) == {"sum": [1, 3]}
    assert secure_recv(keys[2], two) is first
    with pytest.raises(AuthFailure):
        secure_recv(keys[2], three)


def test_timers_fire_in_order_and_skip_offline_nodes():
    sim = make_sim(n=2, node_cls=Recorder)
    sim.schedule_timer(1, 30, "later", {"k": 1})
    sim.schedule_timer(1, 10, "sooner")
    sim.schedule_timer(2, 20, "unreachable")
    sim.offline.add(2)
    sim.run_phase("setup", 0)
    assert [(t, name) for t, name, _ in sim.nodes[1].timers] == [
        (10, "sooner"),
        (30, "later"),
    ]
    assert sim.nodes[2].timers == []


# ---- fault fidelity ----------------------------------------------------------------------


def test_disconnected_node_emits_nothing_and_receives_nothing():
    sim = make_sim(n=3, faults=[Fault(id=2, phase="setup", action="disconnect")])
    sim.run_phase("setup", 0)
    assert sim.transcript.count(type="send", src=2) == 0
    assert sim.transcript.count(type="deliver", dst=2) == 0
    assert sim.transcript.count(type="drop", dst=2, reason="offline_dst") == 2
    assert sim.nodes[2].started == []  # no phase-start hook while offline
    # still offline next phase: disconnect persists until a reconnect fault
    sim.run_phase("masking", 0)
    assert sim.transcript.count(type="send", src=2) == 0


def test_reconnect_restores_a_node():
    sim = make_sim(
        n=2,
        faults=[
            Fault(id=2, phase="setup", action="disconnect"),
            Fault(id=2, phase="masking", action="reconnect"),
        ],
    )
    sim.run_phase("setup", 0)
    sim.run_phase("masking", 0)
    assert sim.transcript.count(type="send", src=2, kind="hello") == 1


def test_drop_outbound_logs_drops_and_clears_at_phase_end():
    sim = make_sim(n=3, faults=[Fault(id=1, phase="setup", action="drop_outbound")])
    sim.run_phase("setup", 0)
    assert sim.transcript.count(type="send", src=1) == 0
    assert sim.transcript.count(type="drop", src=1, reason="drop_outbound") == 2
    assert sim.nodes[2].got and all(env.src != 1 for env in sim.nodes[2].got)
    sim.run_phase("masking", 0)  # the drop set does not leak across phases
    assert sim.transcript.count(type="send", src=1, kind="hello") == 2


def test_offset_fault_applies_mid_phase():
    class Pinger(Recorder):
        def on_phase_start(self, sim, phase):
            sim.schedule_timer(self.id, sim.now + 40, "before")
            sim.schedule_timer(self.id, sim.now + 60, "after")

    sim = make_sim(
        n=1,
        faults=[Fault(id=1, phase="setup", action="disconnect", offset=50)],
        node_cls=Pinger,
    )
    sim.run_phase("setup", 0)
    names = [name for _, name, _ in sim.nodes[1].timers]
    assert names == ["before"]
    assert sim.transcript.count(type="fault", id=1, action="disconnect") == 1


def test_offline_sender_produces_no_audit_trail():
    sim = make_sim(n=2, node_cls=Recorder)
    sim.offline.add(1)
    sim.send(1, 2, "ghost", {})
    assert sim.transcript.count(kind="ghost") == 0
    assert sim.pending_events() == 0


# ---- the event queue against a (time, tick) heap ----------------------------------------


class HeapSimulator(Simulator):
    """The event loop over one binary heap of (time, tick, item): the reference order."""

    def __init__(self, config):
        super().__init__(config)
        self.heap = []
        self.tick = 0

    def _push(self, time, item):
        assert time >= self.now
        self.tick += 1
        heapq.heappush(self.heap, (time, self.tick, item))

    def pending_events(self):
        return len(self.heap)

    def run_phase(self, phase, round_no):
        self.phase, self.round, self.dropping = phase, round_no, set()
        start = self.now
        end = start + self.config.budgets[phase]
        self.transcript.add(t=start, type="phase", phase=phase, round=round_no)
        for fault in self.config.faults:
            if fault.phase == phase:
                if fault.offset == 0:
                    self._apply_fault(fault)
                else:
                    self._push(start + fault.offset, ("fault", fault))
        for node_id in sorted(self.nodes):
            if self.is_online(node_id):
                self.nodes[node_id].on_phase_start(self, phase)
        while self.heap and self.heap[0][0] < end:
            self.now, _, item = heapq.heappop(self.heap)
            if type(item) is Envelope:
                env = item
                if env.dst in self.offline or env.dst not in self.nodes:
                    self.transcript.envelope("drop", env, t=self.now, reason="offline_dst")
                    continue
                self.transcript.envelope("deliver", env, t=self.now)
                self.nodes[env.dst].on_message(self, env)
            elif item[0] == "timer":
                _, node_id, name, data = item
                if self.is_online(node_id):
                    self.nodes[node_id].on_timer(self, name, data)
            else:
                self._apply_fault(item[1])
        self.now = end


class Scripted(Node):
    """Acts out a script: timers and messages carry labels, each label has actions.

    An action is ("timer", offset, label), with offset 0 meaning the tick being
    processed, or ("send", dst, label). Actions under a label only name higher
    labels, so every script ends.
    """

    def __init__(self, node_id, script, log):
        self.id, self.script, self.log = node_id, script, log

    def on_phase_start(self, sim, phase):
        self.log.append((sim.now, self.id, "start", phase))
        for offset, label in self.script["start"].get((self.id, phase), ()):
            sim.schedule_timer(self.id, sim.now + offset, label)

    def on_timer(self, sim, name, data):
        self.log.append((sim.now, self.id, "timer", name, sim.pending_events()))
        self.act(sim, name)

    def on_message(self, sim, env):
        self.log.append((sim.now, self.id, "msg", env.src, env.seq, env.body["label"]))
        self.act(sim, env.body["label"])

    def act(self, sim, label):
        for what, arg, child in self.script["actions"].get(label, ()):
            if what == "timer":
                sim.schedule_timer(self.id, sim.now + arg, child)
            else:
                sim.send(self.id, arg, "m", {"label": child})


QUEUE_PHASES = PHASES[:3]
QUEUE_BUDGET = 60  # offsets reach past it, so items carry into later phases


@st.composite
def queue_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    labels = 6
    nodes = st.integers(min_value=1, max_value=n)
    actions = {}
    for label in range(labels - 1):
        child = st.integers(min_value=label + 1, max_value=labels - 1)
        action = st.one_of(
            st.tuples(st.just("timer"), st.sampled_from([0, 0, 1, 2, 5, 40, 90]), child),
            st.tuples(st.just("send"), nodes, child),
        )
        actions[label] = draw(st.lists(action, max_size=2))
    start = draw(
        st.dictionaries(
            st.tuples(nodes, st.sampled_from(QUEUE_PHASES)),
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=130), st.integers(0, labels - 1)),
                max_size=3,
            ),
            max_size=5,
        )
    )
    faults = draw(
        st.lists(
            st.builds(
                Fault,
                id=nodes,
                phase=st.sampled_from(QUEUE_PHASES),
                action=st.sampled_from(FAULT_ACTIONS),
                offset=st.integers(min_value=0, max_value=70),
            ),
            max_size=3,
        )
    )
    delay_max = draw(st.integers(min_value=1, max_value=6))
    delay_min = draw(st.integers(min_value=1, max_value=delay_max))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    config = dict(
        seed=seed,
        n=n,
        delay_min=delay_min,
        delay_max=delay_max,
        budgets=dict.fromkeys(PHASES, QUEUE_BUDGET),
        faults=faults,
    )
    return config, {"start": start, "actions": actions}


def replay(sim_cls, config, script):
    log = []
    sim = sim_cls(SimConfig(**config))
    for i in range(1, config["n"] + 1):
        sim.add_node(Scripted(i, script, log))
    pending = []
    for phase in QUEUE_PHASES:
        sim.run_phase(phase, 0)
        pending.append(sim.pending_events())
    return log, pending, sim.transcript.to_ndjson()


@settings(max_examples=200, deadline=None)
@given(queue_scenarios())
def test_event_buckets_deliver_in_heap_order(scenario):
    config, script = scenario
    assert replay(Simulator, config, script) == replay(HeapSimulator, config, script)


def test_a_same_tick_push_runs_after_the_tick_and_leftovers_carry_over():
    script = {
        "start": {(1, "setup"): [(3, 0), (3, 1), (75, 4)]},
        "actions": {0: [("timer", 0, 2), ("timer", 58, 3)], 2: [("timer", 0, 5)]},
    }
    config = dict(seed=1, n=1, budgets=dict.fromkeys(PHASES, QUEUE_BUDGET))
    log, pending, _ = replay(Simulator, config, script)
    timers = [(entry[0], entry[3]) for entry in log if entry[2] == "timer"]
    # 0 and 1 were due at t=3 first; 2 was pushed for t=3 while it ran, 5 from 2
    assert timers == [(3, 0), (3, 1), (3, 2), (3, 5), (61, 3), (75, 4)]
    assert pending == [2, 0, 0]  # after setup: 3 at t=61 and 4 at t=75 carried over
    assert (log, pending) == replay(HeapSimulator, config, script)[:2]


def test_scheduling_before_now_is_refused():
    sim = make_sim(n=1, node_cls=Recorder)
    sim.run_phase("setup", 0)
    with pytest.raises(ValueError):
        sim.schedule_timer(1, sim.now - 1, "late")
    assert sim.pending_events() == 0
    sim.schedule_timer(1, sim.now, "due now")  # the current tick itself is fine
    assert sim.pending_events() == 1
