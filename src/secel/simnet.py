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
re-addressing an envelope raises AuthFailure. The AES-GCM object is built
once per key, in a bounded cache, and the associated data is written by
`aead_data` without the JSON encoder, byte for byte the canonical_json of the
header. A multicast body is encoded
at most once, by its first sealed copy, and every copy of it, plaintext or
sealed, carries one `Multicast`. A sealed copy is still authenticated
under its own key, and copies whose plaintext equals the multicast's bytes
share one parsed body. The `Multicast` keeps the body its receivers share
and a memo for what they derive from it alike; the simulator keeps no
verdict of its own. A body is read-only once sent, for its sender as for its
receivers, opened or plaintext.

Pending events wait in per-tick FIFO buckets, {time: [items in scheduling
order]}, beside a small heap of the distinct pending times (a calendar queue
in Brown's sense, CACM 1988). Link delays span a few ticks, so only a handful
of times are ever pending, and taking the next event costs a list step, not a
sift through every pending event. Delivery order is (time, scheduling order):
an item scheduled for the tick being processed runs after everything already
due at that tick, and items past a phase budget wait for the next phase.
Nothing may be scheduled before the current time.

The transcript stores each envelope record (send, deliver, drop, auth_fail)
as one flat tuple row, (type, src, dst, kind, round, seq, secured, slot, t,
reason), with reason None when the record has none. A row holds atoms only
(str, int, bool, None): no envelope, body or digest object. The cyclic
collector untracks such a tuple on its first pass, so later passes walk
none of a run's rows. `slot` indexes the transcript's payload table: a slot
holds the plaintext body or the sealed blob until a record of it is first
read, then its hex digest, payload_digest(canonical_json(body)) or
payload_digest(blob), kept in a 1-tuple so that a body which is itself a
string is never taken for one. All records of one envelope, and every
plaintext copy of a multicast, share one slot, so each payload is digested
at most once; a run nobody reads digests nothing. Phase, fault and note
records stay dicts. `Transcript.records` is a read-only sequence view over
the rows that builds each record's dict on access, so readers, `count` and
the NDJSON see the same records as when every row was a dict holding a
digest fixed at send.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import length_hint
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


def canonical_json(obj: Any) -> bytes:
    """Stable byte encoding: sorted keys, no whitespace."""
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
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if type(self.n) is not int or self.n < 1:
            raise ConfigError("n must be a positive integer")
        delays = (self.delay_min, self.delay_max)
        if not (all(type(d) is int for d in delays) and 1 <= self.delay_min <= self.delay_max):
            raise ConfigError("need integers 1 <= delay_min <= delay_max")
        if not isinstance(self.budgets, dict) or not isinstance(self.faults, (list, tuple)):
            raise ConfigError("budgets must be a mapping and faults a list")
        for name in PHASES:
            budget = self.budgets.get(name)
            if type(budget) is not int or budget <= 0:
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

    # the keys of a scenario document that from_dict reads; a round spec's
    # document holds them beside its own
    DOC_KEYS = frozenset({"seed", "n", "delay", "budgets", "faults"})

    @classmethod
    def from_dict(cls, raw: dict) -> SimConfig:
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        delay, own, entries = raw.get("delay", {}), raw.get("budgets", {}), raw.get("faults", [])
        if not (isinstance(delay, dict) and isinstance(own, dict) and isinstance(entries, list)):
            raise ConfigError("delay and budgets must be objects and faults a list")
        stray = [k for k in own if k not in PHASES] + [k for k in delay if k not in ("min", "max")]
        if stray:  # a misspelt key would otherwise leave its default in force
            raise ConfigError(f"unknown budgets or delay keys: {stray}")
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
    """The shared state of one multicast body, held by every copy of it.

    `slot` is the transcript payload slot its plaintext copies share, taken
    by the first of them. `data` is the body's canonical bytes, encoded by
    the first sealed copy (`plaintext`). `body` is the body its receivers
    share: the sent object once a plaintext copy is sent, else the one parse
    of `data` that every sealed copy opening to those bytes returns. `memo`
    is for the receivers: what they derive from `body` alike, the first of
    them stores and the others read.
    """

    slot: int | None = None
    data: bytes | None = None
    body: Any = None
    memo: dict = field(default_factory=dict)

    def plaintext(self, body: dict) -> bytes:
        """The multicast body's canonical bytes, encoded on the first call."""
        if self.data is None:
            self.data = canonical_json(body)
        return self.data


@dataclass(slots=True)
class Envelope:
    src: int
    dst: int
    kind: str
    round: int
    seq: int
    secured: bool
    body: dict | None  # plaintext payload
    blob: bytes | None  # ciphertext payload
    slot: int  # the payload's slot in the transcript's payload table
    shared: Multicast | None  # the multicast this is a copy of

    def header(self) -> dict:
        return aead_header(self.src, self.dst, self.kind, self.round, self.seq)


def aead_header(src: int, dst: int, kind: str, round_no: int, seq: int) -> dict:
    """The header a sealed envelope binds: sealed and opened from this alone."""
    return {"src": src, "dst": dst, "kind": kind, "round": round_no, "seq": seq}


def aead_data(header: dict) -> bytes:
    """The associated data of a header: canonical_json(header), written directly.

    The keys in sorted order, the ints as the encoder writes them and the kind
    escaped by the encoder's own string function, so the bytes are the same.
    """
    return (
        '{"dst":%d,"kind":%s,"round":%d,"seq":%d,"src":%d}' % (
            header["dst"], encode_basestring_ascii(header["kind"]), header["round"],
            header["seq"], header["src"],
        )
    ).encode()


ENVELOPE_FIELDS = ("type", "src", "dst", "kind", "round", "seq", "secured", "digest", "t")


class Records(Sequence):
    """Read-only view of a transcript's rows as dict records."""

    __slots__ = ("_rows", "_payloads")
    __hash__ = None

    def __init__(self, rows: list, payloads: list) -> None:
        self._rows = rows
        self._payloads = payloads

    def _record(self, row: tuple | dict) -> dict:
        if type(row) is dict:
            return row
        rec = dict(zip(ENVELOPE_FIELDS, row))
        slot = row[7]
        held = self._payloads[slot]
        if type(held) is not tuple:  # first read: digest it, keep the hex, drop the payload
            data = held if type(held) is bytes else canonical_json(held)
            held = self._payloads[slot] = (payload_digest(data),)
        rec["digest"] = held[0]
        if row[9] is not None:
            rec["reason"] = row[9]
        return rec

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(row) for row in self._rows[index]]
        return self._record(self._rows[index])

    def __iter__(self):
        return map(self._record, self._rows)

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
        # payload table: a body or blob per slot, its (hex digest,) once read
        self.payloads: list[Any] = []
        self.records = Records(self._rows, self.payloads)

    def add(self, **record: Any) -> None:
        self._rows.append(record)

    def envelope(self, rtype: str, env: Envelope, t: int, reason: str | None = None) -> None:
        self._rows.append((
            rtype, env.src, env.dst, env.kind, env.round, env.seq, env.secured, env.slot,
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
    """32-byte AES key from a shared field/group value, packed in 64 bytes or more."""
    material = shared_secret.to_bytes(max(64, -(-shared_secret.bit_length() // 8)), "big")
    return hashlib.sha256(b"secel/chan/v1/" + context + b"/" + material).digest()


def _nonce(src: int, dst: int, seq: int) -> bytes:
    raw = src.to_bytes(8, "big") + dst.to_bytes(8, "big") + seq.to_bytes(8, "big")
    return hashlib.sha256(b"secel/nonce/v1" + raw).digest()[:12]


# the cipher of a key, built once for its seals and openings alike. A run
# seals under about n keys (27 at n=30, 99 at n=100), and a cipher holds about
# 3 KB, so 128 of them hold a round's keys up to n=128 in under 0.4 MB
_cipher = lru_cache(maxsize=128)(AESGCM)


def seal(key: bytes, header: dict, body: dict, data: bytes | None = None) -> bytes:
    """Encrypt-then-authenticate with the envelope header as associated data.

    `data`, when given, is canonical_json(body), already encoded by the caller.
    """
    nonce = _nonce(header["src"], header["dst"], header["seq"])
    if data is None:
        data = canonical_json(body)
    return _cipher(key).encrypt(nonce, data, aead_data(header))


def open_sealed(key: bytes, header: dict, blob: bytes, shared: Multicast | None = None) -> dict:
    """Inverse of seal; AuthFailure on any mismatch (key, header, ciphertext).

    `shared` is the multicast a copy belongs to: plaintext equal to its
    bytes is parsed once, into the body every such copy returns.
    """
    nonce = _nonce(header["src"], header["dst"], header["seq"])
    try:
        data = _cipher(key).decrypt(nonce, blob, aead_data(header))
    except InvalidTag as exc:
        raise AuthFailure(
            f"envelope {header['kind']} {header['src']}->{header['dst']} failed"
        ) from exc
    if shared is None or data != shared.data:
        return json.loads(data)
    if shared.body is None:
        shared.body = json.loads(data)
    return shared.body


def secure_recv(key: bytes, env: Envelope) -> dict:
    """Decrypt a delivered envelope; AuthFailure if it was tampered with."""
    if not env.secured:
        raise AuthFailure("envelope is not channel-secured")
    return open_sealed(key, env.header(), env.blob, env.shared)


# ---- nodes ---------------------------------------------------------------------------


class Node:
    """Event-driven endpoint. Handlers may only touch own state + the sim API.

    A body is read-only once sent, for its sender too: the transcript digests
    a plaintext body when its record is read, so a body changed after `send`
    would be audited as changed.
    """

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
        self._payloads = self.transcript.payloads
        # time -> items in scheduling order: envelopes to deliver, timer and fault tuples
        self._buckets: dict[int, list[Envelope | tuple]] = {}
        self._times: list[int] = []  # heap of the times with a bucket
        self._taking: Iterator[Envelope | tuple] = iter(())  # the bucket being processed
        # what every send's delay draw reads: (delay_min, width, bits of width)
        width = config.delay_max - config.delay_min + 1
        self._delay = (config.delay_min, width, width.bit_length())
        self._getrandbits = random.Random(derive_seed(config.seed, "net")).getrandbits
        self._pair_seq: dict[tuple[int, int], int] = {}
        # the body in flight to several peers, and the Multicast every copy carries
        self._shared: tuple[dict, Multicast] | None = None

    # -- wiring --------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        self.nodes[node.id] = node

    def node_rng(self, node_id: int) -> random.Random:
        return random.Random(derive_seed(self.config.seed, "node", node_id))

    def is_online(self, node_id: int) -> bool:
        return node_id in self.nodes and node_id not in self.offline

    # -- event queue ---------------------------------------------------------------

    def _push(self, time: int, item: Envelope | tuple) -> None:
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
        pair = (src, dst)
        seq = self._pair_seq.get(pair, 0)
        self._pair_seq[pair] = seq + 1
        # the delay, drawn as randint(delay_min, delay_max) draws it: bit_length(width)
        # bits, redrawn until below width
        low, width, bits = self._delay
        getrandbits = self._getrandbits
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        now, round_no, payloads = self.now, self.round, self._payloads
        deliver_time = now + low + r
        shared = self._shared
        multicast = shared[1] if shared is not None and shared[0] is body else None
        blob = None
        if key is not None:
            header = aead_header(src, dst, kind, round_no, seq)
            data = None if multicast is None else multicast.plaintext(body)
            body, blob = None, seal(key, header, body, data)
            slot = len(payloads)
            payloads.append(blob)
        elif multicast is not None and multicast.slot is not None:
            slot = multicast.slot
        else:
            slot = len(payloads)
            payloads.append(body)
            if multicast is not None:
                multicast.slot, multicast.body = slot, body
        env = Envelope(
            src, dst, kind, round_no, seq, key is not None, body, blob, slot, multicast
        )
        if src in self.dropping:
            self.transcript.envelope("drop", env, t=now, reason="drop_outbound")
            return
        self.transcript.envelope("send", env, t=now)
        self._push(deliver_time, env)

    @contextmanager
    def shared_body(self, body: dict) -> Iterator[None]:
        """Share one encoding among the sends of that very object inside the block.

        Plaintext sends share one payload slot; sealed ones share the
        plaintext bytes, encoded by the first of them, and each still gets its
        own key, nonce and header. Every copy, plaintext or sealed, carries
        one `Multicast`: the body its receivers share and their memo. Nothing
        is encoded here. The simulator forgets the body when the block ends,
        so a later send of it gets no `Multicast`; that lives as long as the
        copies do.
        """
        self._shared = (body, Multicast())
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
        """Open a phase window, drive events to the budget boundary, close it.

        The cyclic collector is paused meanwhile: a phase makes no reference cycles.
        """
        if phase not in PHASES:
            raise ConfigError(f"unknown phase {phase!r}")
        collecting = gc.isenabled()
        gc.disable()
        try:
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
                    if type(item) is Envelope:
                        if item.dst in self.offline or item.dst not in self.nodes:
                            self.transcript.envelope("drop", item, t=now, reason="offline_dst")
                            continue
                        self.transcript.envelope("deliver", item, t=now)
                        self.nodes[item.dst].on_message(self, item)
                    elif item[0] == "timer":
                        _, node_id, name, data = item
                        if self.is_online(node_id):
                            self.nodes[node_id].on_timer(self, name, data)
                    elif item[0] == "fault":
                        self._apply_fault(item[1])
            self.now = end
        finally:
            if collecting:
                gc.enable()

    def log_note(self, note: str, /, **data: Any) -> None:
        self.transcript.add(t=self.now, type="note", note=note, **data)

    def log_auth_failure(self, env: Envelope) -> None:
        self.transcript.envelope("auth_fail", env, t=self.now)
