"""Deterministic in-process message-passing simulator.

Virtual time is an integer tick counter driven by an event heap. Every source
of nondeterminism (link delays, per-node randomness) derives from the scenario
seed, so equal configs replay to byte-identical transcripts. Faults are
phase-targeted: a disconnected node neither sends nor receives, a node with
drop_outbound loses everything it emits during that phase, and reconnect
brings a node back at a phase boundary.

Messages between participants can ride authenticated channels: AES-GCM with
the envelope header (src, dst, kind, round, seq) as associated data and a
deterministic per-(src, dst, seq) nonce. Tampering with the ciphertext or
re-addressing an envelope raises AuthFailure. A multicast body is encoded
once, and every copy of it, plaintext or sealed, carries one receive-side
slot (`Multicast`). A sealed copy is still authenticated under its own key,
and copies whose plaintext equals the multicast's bytes share one parsed
body; the receivers of plaintext copies keep their one check verdict there.
Bodies handed to receivers, opened or plaintext, are read-only.

Pending events wait in per-tick FIFO buckets, {time: [items in scheduling
order]}, beside a small heap of the distinct pending times (a calendar queue
in Brown's sense, CACM 1988). Link delays span a few ticks, so only a handful
of times are ever pending, and taking the next event costs a list step, not a
sift through every pending event. Delivery order is (time, scheduling order):
an item scheduled for the tick being processed runs after everything already
due at that tick, and items past a phase budget wait for the next phase.
Nothing may be scheduled before the current time.

The transcript stores each envelope record (send, deliver, drop, auth_fail)
as one flat tuple row, (type, src, dst, kind, round, seq, secured, digest, t,
reason), with reason None when the record has none. A row keeps no reference
to the envelope or its body, and is less than half the size of the dict it
stands for. Phase, fault and note records stay dicts. `Transcript.records`
is a read-only sequence view over the rows that builds each record's dict on
access, so readers, `count` and the NDJSON see the same records as when
every row was a dict.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter, length_hint
from typing import Any, Iterable, Iterator

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthFailure, ConfigError

PHASES = ("setup", "masking", "aggregation", "verification", "decryption")
FAULT_ACTIONS = ("drop_outbound", "disconnect", "reconnect")

DEFAULT_BUDGETS = {
    "setup": 500,
    "masking": 500,
    "aggregation": 200,
    "verification": 500,
    "decryption": 300,
}

AGGREGATOR_ID = 0


# ---- canonical serialization ---------------------------------------------------------


# Sorted keys, no whitespace, check_circular off: a body is a tree of lists,
# dicts and scalars, so no markers dict is kept for its inner lists.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)

FLAT_PLAN_LIMIT = 256  # distinct key tuples whose plan is kept
_flat_plans: dict[tuple, tuple] = {}


def _flat_plan(keys: tuple) -> tuple:
    """How to format a dict of ints with these keys: (getter, %d template), or ().

    Only ASCII identifier keys are planned: they need no escaping, so the
    template is the exact json.dumps text with each value replaced by %d.
    The getter returns the values as a tuple in sorted key order.
    """
    if not all(type(k) is str and k.isascii() and k.isidentifier() for k in keys):
        return ()
    order = sorted(keys)
    template = ("{" + ",".join(f'"{k}":%d' for k in order) + "}").encode()
    if len(order) > 1:
        return itemgetter(*order), template
    if order:
        key = order[0]
        return (lambda obj: (obj[key],)), template
    return (lambda obj: ()), template


def canonical_json(obj: Any) -> bytes:
    """Stable byte encoding: sorted keys, no whitespace.

    A dict of ints under ASCII identifier keys (every dealing body) is
    formatted from a plan cached per key tuple, to the same bytes json.dumps
    gives. Past FLAT_PLAN_LIMIT key tuples a plan is computed but not kept.
    Everything else goes through one shared JSONEncoder.
    """
    if type(obj) is dict:
        keys = tuple(obj)
        plan = _flat_plans.get(keys)
        if plan is None:
            plan = _flat_plan(keys)
            if len(_flat_plans) < FLAT_PLAN_LIMIT:
                _flat_plans[keys] = plan
        if plan:
            get, template = plan
            values = get(obj)
            for v in values:
                if type(v) is not int:  # bools and floats are not %d
                    break
            else:
                return template % values
    return _ENCODER.encode(obj).encode()


def payload_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def derive_seed(root_seed: int, *parts: Any) -> int:
    """Stable 64-bit sub-seed, independent of process hash randomization."""
    tag = "/".join(str(p) for p in (root_seed, *parts)).encode()
    return int.from_bytes(hashlib.sha256(b"secel/rng/" + tag).digest()[:8], "big")


# ---- configuration -------------------------------------------------------------------


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: applied `offset` ticks after the phase opens."""

    id: int
    phase: str
    action: str
    offset: int = 0


@dataclass
class SimConfig:
    """Scenario-level knobs: everything the transcript depends on."""

    seed: int = 0
    n: int = 3
    delay_min: int = 1
    delay_max: int = 5
    budgets: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_BUDGETS))
    faults: list[Fault] = field(default_factory=list)

    def validate(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError("n must be a positive integer")
        delays = (self.delay_min, self.delay_max)
        if not (all(type(d) is int for d in delays) and 1 <= self.delay_min <= self.delay_max):
            raise ConfigError("need integers 1 <= delay_min <= delay_max")
        if not isinstance(self.budgets, dict) or not isinstance(self.faults, (list, tuple)):
            raise ConfigError("budgets must be a mapping and faults a list")
        for name in PHASES:
            budget = self.budgets.get(name)
            if not isinstance(budget, int) or budget <= 0:
                raise ConfigError(f"missing or invalid budget for phase {name!r}")
            if budget < 10 * self.delay_max:
                raise ConfigError(
                    f"budget for {name!r} too small for the configured delays"
                )
        for f in self.faults:
            if f.phase not in PHASES:
                raise ConfigError(f"unknown phase {f.phase!r} in fault schedule")
            if f.action not in FAULT_ACTIONS:
                raise ConfigError(f"unknown fault action {f.action!r}")
            if type(f.id) is not int or not (1 <= f.id <= self.n):
                raise ConfigError(f"fault references unknown participant {f.id!r}")
            if type(f.offset) is not int or f.offset < 0:
                raise ConfigError("fault offset must be an integer >= 0")

    @classmethod
    def from_dict(cls, raw: dict) -> SimConfig:
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        delay, own, entries = raw.get("delay", {}), raw.get("budgets", {}), raw.get("faults", [])
        if not (isinstance(delay, dict) and isinstance(own, dict) and isinstance(entries, list)):
            raise ConfigError("delay and budgets must be objects and faults a list")
        faults = []
        for entry in entries:
            try:  # a missing, unknown or non-keyword key is a TypeError
                faults.append(Fault(**entry))
            except TypeError as exc:
                raise ConfigError(f"malformed fault entry {entry!r}") from exc
        # a key the document leaves out takes the field's default
        args = {name: raw[name] for name in ("seed", "n") if name in raw}
        args.update((f"delay_{end}", delay[end]) for end in ("min", "max") if end in delay)
        cfg = cls(budgets={**DEFAULT_BUDGETS, **own}, faults=faults, **args)
        cfg.validate()
        return cfg


# ---- envelopes and transcript -----------------------------------------------------


@dataclass(slots=True)
class Multicast:
    """The receive side of one multicast body, held by every copy of it.

    `data` is the body's canonical bytes; `parsed` is the one body parsed from
    them for the sealed copies whose plaintext equals them. `checked` and
    `problem` hold the verdict of the receivers' check of the plaintext body:
    whoever checks first stores it, the others reuse it.
    """

    data: bytes
    parsed: Any = None
    checked: bool = False
    problem: str | None = None


@dataclass(slots=True)
class Envelope:
    src: int
    dst: int
    kind: str
    round: int
    seq: int
    send_time: int
    deliver_time: int
    secured: bool
    body: dict | None = None  # plaintext payload
    blob: bytes | None = None  # ciphertext payload
    digest: str = ""  # payload_digest of the payload bytes, fixed at send
    shared: Multicast | None = None  # the slot of the multicast this is a copy of

    def header(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "round": self.round,
            "seq": self.seq,
        }


ENVELOPE_FIELDS = ("type", "src", "dst", "kind", "round", "seq", "secured", "digest", "t")


def _as_record(row: tuple | dict) -> dict:
    """The dict record of one transcript row."""
    if type(row) is dict:
        return row
    rec = dict(zip(ENVELOPE_FIELDS, row))
    if row[9] is not None:
        rec["reason"] = row[9]
    return rec


class Records(Sequence):
    """Read-only view of a transcript's rows as dict records."""

    __slots__ = ("_rows",)
    __hash__ = None

    def __init__(self, rows: list) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_as_record(row) for row in self._rows[index]]
        return _as_record(self._rows[index])

    def __iter__(self):
        return map(_as_record, self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Records, list)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Records({list(self)!r})"


class Transcript:
    """Append-only audit log; replay artifact. NDJSON on disk."""

    def __init__(self) -> None:
        self._rows: list[tuple | dict] = []
        self.records = Records(self._rows)

    def add(self, **record: Any) -> None:
        self._rows.append(record)

    def envelope(self, rtype: str, env: Envelope, t: int, reason: str | None = None) -> None:
        self._rows.append((
            rtype, env.src, env.dst, env.kind, env.round, env.seq, env.secured, env.digest,
            t, reason,
        ))

    def count(self, **match: Any) -> int:
        return sum(
            1
            for rec in self.records
            if all(rec.get(k) == v for k, v in match.items())
        )

    def to_ndjson(self) -> str:
        encode = _ENCODER.encode
        return "".join(encode(rec) + "\n" for rec in self.records)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_ndjson())


# ---- authenticated channel codec ---------------------------------------------------


def channel_key(shared_secret: int, context: bytes = b"pairwise") -> bytes:
    """32-byte AES key from a shared field/group value."""
    material = shared_secret.to_bytes(64, "big")
    return hashlib.sha256(b"secel/chan/v1/" + context + b"/" + material).digest()


def _nonce(src: int, dst: int, seq: int) -> bytes:
    raw = src.to_bytes(8, "big") + dst.to_bytes(8, "big") + seq.to_bytes(8, "big")
    return hashlib.sha256(b"secel/nonce/v1" + raw).digest()[:12]


def seal(key: bytes, header: dict, body: dict, data: bytes | None = None) -> bytes:
    """Encrypt-then-authenticate with the envelope header as associated data.

    `data`, when given, is canonical_json(body), already encoded by the caller.
    """
    nonce = _nonce(header["src"], header["dst"], header["seq"])
    if data is None:
        data = canonical_json(body)
    return AESGCM(key).encrypt(nonce, data, canonical_json(header))


def open_sealed(key: bytes, header: dict, blob: bytes, shared: Multicast | None = None) -> dict:
    """Inverse of seal; AuthFailure on any mismatch (key, header, ciphertext).

    `shared` is the slot of the multicast a copy belongs to: plaintext equal
    to its bytes is parsed once, into the body every such copy returns.
    """
    nonce = _nonce(header["src"], header["dst"], header["seq"])
    try:
        data = AESGCM(key).decrypt(nonce, blob, canonical_json(header))
    except InvalidTag as exc:
        raise AuthFailure(
            f"envelope {header['kind']} {header['src']}->{header['dst']} failed"
        ) from exc
    if shared is None or data != shared.data:
        return json.loads(data)
    if shared.parsed is None:
        shared.parsed = json.loads(data)
    return shared.parsed


def secure_recv(key: bytes, env: Envelope) -> dict:
    """Decrypt a delivered envelope; AuthFailure if it was tampered with."""
    if not env.secured:
        raise AuthFailure("envelope is not channel-secured")
    return open_sealed(key, env.header(), env.blob, env.shared)


# ---- nodes ---------------------------------------------------------------------------


class Node:
    """Event-driven endpoint. Handlers may only touch own state + the sim API."""

    id: int

    def on_phase_start(self, sim: Simulator, phase: str) -> None:  # pragma: no cover
        pass

    def on_message(self, sim: Simulator, env: Envelope) -> None:  # pragma: no cover
        pass

    def on_timer(self, sim: Simulator, name: str, data: Any) -> None:  # pragma: no cover
        pass


# ---- the simulator -------------------------------------------------------------------


class Simulator:
    """Single-threaded event loop over integer virtual time."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.now = 0
        self.phase: str | None = None
        self.round = 0
        self.nodes: dict[int, Node] = {}
        self.offline: set[int] = set()
        self.dropping: set[int] = set()  # drop_outbound for the current phase
        self.transcript = Transcript()
        self._buckets: dict[int, list[tuple]] = {}  # time -> items in scheduling order
        self._times: list[int] = []  # heap of the times with a bucket
        self._taking: Iterator[tuple] = iter(())  # the bucket being processed
        self._net_rng = random.Random(derive_seed(config.seed, "net"))
        self._pair_seq: dict[tuple[int, int], int] = {}
        # the body in flight to several peers: (body, its digest, the slot
        # every copy carries)
        self._shared: tuple[dict, str, Multicast] | None = None

    # -- wiring --------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        self.nodes[node.id] = node

    def node_rng(self, node_id: int) -> random.Random:
        return random.Random(derive_seed(self.config.seed, "node", node_id))

    def is_online(self, node_id: int) -> bool:
        return node_id in self.nodes and node_id not in self.offline

    # -- event queue ---------------------------------------------------------------

    def _push(self, time: int, item: tuple) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time}, before now={self.now}")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [item]
            heapq.heappush(self._times, time)
        else:
            bucket.append(item)

    def schedule_timer(self, node_id: int, at: int, name: str, data: Any = None) -> None:
        self._push(at, ("timer", node_id, name, data))

    def pending_events(self) -> int:
        """Items scheduled and not yet processed, the current tick's rest included."""
        return sum(map(len, self._buckets.values())) + length_hint(self._taking)

    # -- sending -------------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        body: dict,
        key: bytes | None = None,
    ) -> None:
        if src in self.offline:
            return  # an offline node emits nothing, not even audit records
        seq = self._pair_seq.get((src, dst), 0)
        self._pair_seq[(src, dst)] = seq + 1
        # the delay, drawn as randint(delay_min, delay_max) draws it: bit_length(width)
        # bits, redrawn until below width
        cfg = self.config
        width = cfg.delay_max - cfg.delay_min + 1
        bits, getrandbits = width.bit_length(), self._net_rng.getrandbits
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        now = self.now
        deliver_time = now + cfg.delay_min + r
        env = Envelope(src, dst, kind, self.round, seq, now, deliver_time, key is not None)
        shared = self._shared
        if shared is not None and shared[0] is not body:
            shared = None
        if shared is not None:
            env.shared = shared[2]
        if key is not None:
            env.blob = seal(key, env.header(), body, None if shared is None else shared[2].data)
            env.digest = payload_digest(env.blob)
        else:
            env.body = body
            env.digest = payload_digest(canonical_json(body)) if shared is None else shared[1]
        if src in self.dropping:
            self.transcript.envelope("drop", env, t=now, reason="drop_outbound")
            return
        self.transcript.envelope("send", env, t=now)
        self._push(deliver_time, ("deliver", env))

    @contextmanager
    def shared_body(self, body: dict) -> Iterator[None]:
        """Encode `body` once for every send of that very object inside the block.

        A plaintext send reuses the digest, a sealed one the plaintext bytes;
        each sealed copy still gets its own key, nonce and header. Every copy,
        plaintext or sealed, carries one `Multicast` slot: the one parse of
        the bytes that sealed receivers share, and the verdict of the one
        check of the plaintext body. The simulator drops the encoding when the
        block ends, so a body changed afterwards is encoded afresh and gets no
        slot; the slot lives as long as the copies do.
        """
        data = canonical_json(body)
        self._shared = (body, payload_digest(data), Multicast(data))
        try:
            yield
        finally:
            self._shared = None

    def broadcast(self, src: int, dsts: Iterable[int], kind: str, body: dict) -> None:
        """Send the same plaintext body to every destination but the sender."""
        with self.shared_body(body):
            for dst in sorted(dsts):
                if dst != src:
                    self.send(src, dst, kind, body)

    # -- faults ----------------------------------------------------------------------

    def _apply_fault(self, fault: Fault) -> None:
        self.transcript.add(
            t=self.now,
            type="fault",
            id=fault.id,
            action=fault.action,
            phase=self.phase,
        )
        if fault.action == "disconnect":
            self.offline.add(fault.id)
        elif fault.action == "reconnect":
            self.offline.discard(fault.id)
        elif fault.action == "drop_outbound":
            self.dropping.add(fault.id)

    # -- phase execution ---------------------------------------------------------------

    def run_phase(self, phase: str, round_no: int) -> None:
        """Open a phase window, drive events to the budget boundary, close it."""
        if phase not in PHASES:
            raise ConfigError(f"unknown phase {phase!r}")
        self.phase = phase
        self.round = round_no
        self.dropping = set()
        start = self.now
        budget = self.config.budgets[phase]
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

        end = start + budget
        times, buckets = self._times, self._buckets
        while times and times[0] < end:
            # take the earliest tick's bucket out; an item scheduled for this
            # same tick meanwhile opens a new bucket, processed right after
            now = heapq.heappop(times)
            self.now = now
            self._taking = taking = iter(buckets.pop(now))
            for item in taking:
                if item[0] == "deliver":
                    env: Envelope = item[1]
                    if env.dst in self.offline or env.dst not in self.nodes:
                        self.transcript.envelope("drop", env, t=now, reason="offline_dst")
                        continue
                    self.transcript.envelope("deliver", env, t=now)
                    self.nodes[env.dst].on_message(self, env)
                elif item[0] == "timer":
                    _, node_id, name, data = item
                    if self.is_online(node_id):
                        self.nodes[node_id].on_timer(self, name, data)
                elif item[0] == "fault":
                    self._apply_fault(item[1])
        self.now = end

    def log_note(self, note: str, /, **data: Any) -> None:
        self.transcript.add(t=self.now, type="note", note=note, **data)

    def log_auth_failure(self, env: Envelope) -> None:
        self.transcript.envelope("auth_fail", env, t=self.now)
