"""Five-phase verifiable-aggregation rounds driven over the virtual-time simulator.

Node 0 is the untrusted aggregator; nodes 1..n are participants. Each round
walks the fixed phase sequence:

  setup         two-step dealing of bivariate-polynomial rows, pairwise channel
                keys, and the dealt authentication key (group mode: one-time,
                wrapped into the group so holders only ever see lifts)
  masking       every participant one-time-pads its encoded gradient vector and
                submits (c1, c2) pairs to the aggregator in the clear
  aggregation   the aggregator sums component-wise (or is told to tamper) and
                broadcasts the aggregate together with the contributor set M
  verification  every party derives one candidate order, the participant ids
                rotated by the round number, and at its turn the first
                candidate that holds the aggregate intact asks for shares.
                Each member hands the leader its own keys, and the leader
                fetches held rows only for silent members and share-losers
                that ask, rebuilds their keys and shares, and checks the
                homomorphic tag
  decryption    the leader strips the pad and hands the plaintext sum only to
                online contributors; everyone else just learns the verdict. A
                party with no sum by the next candidate's turn resumes the
                order there

Dealing traffic rides plaintext envelopes: the simulator models participant-to-
participant links as private (the only adversary here is the aggregator, which
is never a relay). Everything that flows after shares may have been lost —
share evaluations for recovery and the decrypted result — uses AEAD channels
keyed from the dealt polynomials, so a fresh key exists even for a participant
that lost every received share.

The round authentication key has one rule in both variants. Each party fixes
the dealt key, the sum of the n summands s_i dealt with the first rows, once it
holds them all. The round that dealt uses it as is; a round that reuses the
dealing (group mode) hashes it with the round number, so no key goes stale.

Both variants run one code path. What differs lives in the per-variant
arithmetic object, ScalarArith or GroupArith, that RoundSpec looks up by
variant: the field, the codec, adding field values or multiplying group
lifts, and the steps of setup. It checks its own parameters when built.
The run builds one, in RoundSpec.validate, and every node holds that one.
Nodes and the runner are written once against it and never read the variant,
and it holds no state of its own. Its SETUP table maps each dealing kind to
the (body field, node store) pairs that one receive path fills: scalar setup1
{v, s} then setup2 {a}; group pk {pk} then gsetup1 {v, a, s}. Either way a
dealing sends two envelopes per ordered pair, 2N(N-1) in all.

Participant state has two lifetimes, both started by the runner. Dealing
state (the dealer, the held rows, keys and the dealt key) is reset for every
party, online or not, when a round deals: every scalar round, and only the
first group round. Round state (the aggregate, the candidate followed, the
leader's findings and the plaintext) is reset when any round begins.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any

from .algebra import (
    DEFAULT_PRIME,
    FixedPointCodec,
    PrimeModulus,
    UniPoly,
    lagrange_at,
    lagrange_at_zero,
)
from .errors import (
    AuthFailure,
    ConfigError,
    DecodeFailure,
    NotFound,
    RecoveryQuorumFailure,
    RevealTimeout,
    VerificationFailed,
)
from .group_variant import (
    DECODE_LIMIT,
    DEFAULT_GROUP,
    TOY_GROUP,
    GroupParams,
    KeyPair,
    bsgs,
    combine_key_lifts,
    exp_lagrange_at,
    exp_lagrange_at_zero,
    group_aggregate,
    group_mask_vector,
    group_unmask,
    group_verify,
    unwrap_share,
    wrap_share,
)
from .maskmac import aggregate_vectors, mask_vector, unmask_vector, verify_vector
from .sharing import (
    DealerState,
    accumulate_sv,
    new_dealer,
    pairwise_key,
    recover_lost_share,
    step1_messages,
    step2_messages,
)
from .simnet import (
    AGGREGATOR_ID,
    PHASES,
    Node,
    SimConfig,
    Simulator,
    Transcript,
    channel_key,
    derive_seed,
    secure_recv,
)

TAMPER_POLICIES = ("honest", "flip_element", "substitute_all", "inject_offset", "negate",
                   "truncate", "duplicate_member", "malformed")
TAMPER_OFFSET = 3  # additive constant used by the inject_offset policy

_NUMBERS = frozenset({int, float})  # a config number's exact types: bool is not one


# ---- pure protocol operations ---------------------------------------------------


@dataclass
class SetupResult:
    """Offline (simulator-free) outcome of a full-attendance two-step dealing."""

    dealers: dict[int, DealerState]
    received_v: dict[int, dict[int, int]]  # holder -> dealer -> V_dealer(holder)
    received_a: dict[int, dict[int, int]]  # holder -> dealer -> A_dealer(holder)


def run_setup(
    ids: list[int],
    t: int,
    modulus: PrimeModulus,
    rng: random.Random,
) -> SetupResult:
    """Run both dealing rounds among `ids`.

    This is the pure-math twin of the simulator's setup phase: every dealer is
    present and messages are exchanged instantly.
    """
    ids = sorted(ids)
    n = len(ids)
    dealers = {i: new_dealer(i, t, n, modulus, rng) for i in ids}
    received_v: dict[int, dict[int, int]] = {i: {} for i in ids}
    received_a: dict[int, dict[int, int]] = {i: {} for i in ids}
    for i in ids:
        for j, value in step1_messages(dealers[i], ids).items():
            received_v[j][i] = value
    for i in ids:
        accumulate_sv(dealers[i], received_v[i], ids)
    for i in ids:
        for j, value in step2_messages(dealers[i], ids, rng).items():
            received_a[j][i] = value
    return SetupResult(dealers, received_v, received_a)


# ---- round configuration and reporting ---------------------------------------------


@dataclass
class RoundSpec:
    """Everything a round's math depends on (network knobs live in SimConfig)."""

    n: int
    t: int = 2
    length: int = 4
    s_min: int | None = None  # aggregation quorum; defaults to n
    rounds: int = 1
    variant: str = "scalar"
    tamper: str = "honest"
    share_loss: tuple[int, ...] = ()
    gradients: list[list[float]] | None = None
    prime: int = DEFAULT_PRIME
    group: GroupParams = field(default_factory=lambda: TOY_GROUP)
    scale_bits: int | None = None  # None -> 16 (scalar) / 10 (group)
    clip_bound: float = 8.0

    # -- derived pieces ----------------------------------------------------------

    @property
    def quorum(self) -> int:
        return self.n if self.s_min is None else self.s_min

    @property
    def participant_ids(self) -> list[int]:
        return list(range(1, self.n + 1))

    def arith(self) -> ScalarArith | GroupArith:
        """The variant's arithmetic, its whole difference; it holds no node state."""
        return ARITHS[self.variant](self)

    def codec(self) -> FixedPointCodec:
        return self.arith().codec

    def field_modulus(self) -> PrimeModulus:
        return self.arith().field

    def validate(self) -> ScalarArith | GroupArith:
        """Check every field; return the arithmetic object built to check the
        variant's own parameters, which every node of the run holds."""
        if type(self.n) is not int or self.n < 2:
            raise ConfigError("n must be an integer >= 2")
        if type(self.t) is not int or not (2 <= self.t <= self.n):
            raise ConfigError("threshold t must satisfy 2 <= t <= n")
        if type(self.length) is not int or self.length < 1:
            raise ConfigError("vector length must be a positive integer")
        if type(self.rounds) is not int or self.rounds < 1:
            raise ConfigError("rounds must be a positive integer")
        if not (self.s_min is None or type(self.s_min) is int and 1 <= self.s_min <= self.n):
            raise ConfigError("s_min must be an integer in [1, n]")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.tamper not in TAMPER_POLICIES:
            raise ConfigError(f"unknown tamper policy {self.tamper!r}")
        losses = self.share_loss
        if not (isinstance(losses, (tuple, list)) and _is_members(list(losses), self.n)):
            raise ConfigError("share_loss must list distinct participant ids")
        rows = self.gradients
        if rows is not None:
            try:
                shaped = len(rows) == self.n and all(
                    len(g) == self.length and _NUMBERS.issuperset(map(type, g))
                    and all(map(math.isfinite, g)) for g in rows
                )
            except (TypeError, OverflowError):  # not a matrix, or an int past float range
                shaped = False
            if not shaped:
                raise ConfigError("gradients must be an n x length matrix of finite numbers")
        if not (self.scale_bits is None or type(self.scale_bits) is int and self.scale_bits >= 1):
            raise ConfigError("scale_bits must be a positive integer")
        if not (type(self.clip_bound) in _NUMBERS and 0 < self.clip_bound <= sys.float_info.max):
            raise ConfigError("clip_bound must be a positive finite number")
        arith = self.arith()  # checks the variant's own parameters
        try:
            arith.codec.ensure_capacity(self.n, arith.field)
            arith.codec.ensure_float_range()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return arith

    @classmethod
    def from_dict(cls, raw: dict) -> "RoundSpec":
        return cls._checked(raw)[0]

    @classmethod
    def _checked(cls, raw: dict) -> tuple["RoundSpec", ScalarArith | GroupArith]:
        """A document's spec, and the arithmetic object its one validate built."""
        if not isinstance(raw, dict):
            raise ConfigError("round spec must be a JSON object")
        own = {f.name for f in fields(cls)}
        unknown = set(raw) - own - {"l"} - SimConfig.DOC_KEYS  # "l" is short for length
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "l" in raw and "length" in raw:
            raise ConfigError("give the vector length as l or as length, not both")
        if "n" not in raw:
            raise ConfigError("round spec needs n")
        group = raw.get("group", "toy")
        if isinstance(group, str):
            try:
                group = {"toy": TOY_GROUP, "default": DEFAULT_GROUP}[group]
            except KeyError:
                raise ConfigError(f"unknown group {group!r}") from None
        elif isinstance(group, dict):
            try:
                group = GroupParams(p=group["p"], q=group["q"], g=group["g"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad group parameters: {exc}") from exc
        else:
            raise ConfigError("group must be a name or a {p, q, g} object")
        # a key the document leaves out takes the field's default
        args = {name: raw[name] for name in own & raw.keys()}
        if "l" in raw:
            args["length"] = raw["l"]
        spec = cls(**{**args, "group": group})
        return spec, spec.validate()


@dataclass
class RoundState:
    """Per-round report assembled by the runner at each phase barrier."""

    round: int
    phase: str = "setup"  # last phase entered; "done"/"rejected" once finished
    t_set: list[int] = field(default_factory=list)  # intact bundle holders
    m_set: list[int] = field(default_factory=list)  # contributors in the aggregate
    u_set: list[int] = field(default_factory=list)  # holders of this round's aggregate
    failed: list[int] = field(default_factory=list)  # expected but silent submitters
    leader: int | None = None
    verified: bool | None = None
    error: str | None = None
    field_sum: list[int] | None = None
    decrypted: list[float] | None = None
    delivered_to: list[int] = field(default_factory=list)  # members holding the leader's sum
    recovered: list[int] = field(default_factory=list)  # share-losers made whole


@dataclass
class ScenarioResult:
    """Final output of run_rounds: per-round reports plus the full audit log."""

    spec: RoundSpec
    sim_config: SimConfig
    rounds: list[RoundState]
    transcript: Transcript
    inputs: dict[int, list[float]]
    nodes: dict[int, Node]
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return all(r.phase == "done" and r.verified for r in self.rounds)

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.rounds:
            verified = "none" if r.verified is None else "true" if r.verified else "false"
            if r.phase == "done":
                body = f"decrypted={r.decrypted}"
            else:
                body = f"error={r.error}"
            lines.append(
                f"round={r.round} status={r.phase} verified={verified} "
                f"m={r.m_set} {body}"
            )
        return lines


# ---- per-variant arithmetic ------------------------------------------------------------
#
# The nodes are written once against these two objects; a run builds one
# (RoundSpec.validate) and every node of the run holds it.
# Values travel as plain ints: field values mod p for the scalar variant,
# lifts G^x mod P for the group variant. Masked vectors stay in the wire
# format, lists of [c1, c2] pairs, from the contributor's mask through the
# aggregator's sum to the leader's check, so each method is one kernel call.
#
# Setup runs one way in both (ParticipantNode._on_setup): open_setup sends the
# OPENING kind, deal_second runs once every peer's opening is in, finish_setup
# once both rows from every peer are held. SETUP: kind -> its (body field,
# node store) pairs; each store is a dict keyed by dealer, and a kind fills
# all of its stores at once. Neither object keeps dealing state: the methods
# read and write the node's.


class ScalarArith:
    """Field values mod p; combining adds, interpolation is plain Lagrange."""

    SETUP = {
        "setup1": (("v", "held_v"), ("s", "s_peers")),
        "setup2": (("a", "held_a"),),
    }
    OPENING = "setup1"
    reuses_setup = False  # every round deals afresh

    def __init__(self, spec: RoundSpec):
        try:
            self.field = PrimeModulus(spec.prime)
        except ValueError:
            raise ConfigError("prime must be prime") from None
        self.p = self.q = spec.prime  # values live mod p, exponents mod q
        bits = 16 if spec.scale_bits is None else spec.scale_bits
        self.codec = FixedPointCodec(bits, spec.clip_bound, signed=True)

    def open_setup(self, node: ParticipantNode, sim: Simulator) -> None:
        """First dealing round: V_i(j) and the round-key summand to each peer."""
        out = step1_messages(node.dealer, node.spec.participant_ids)
        for j in sorted(out):
            sim.send(node.id, j, "setup1", {"v": out[j], "s": node.s_own})

    def deal_second(self, node: ParticipantNode, sim: Simulator) -> None:
        """Fix s_v = V(id), then deal A_i(j) with A_i(0) = s_v."""
        node.own_share = accumulate_sv(node.dealer, node.held_v, node.spec.participant_ids)
        out = step2_messages(node.dealer, node.spec.participant_ids, node.rng)
        for j in sorted(out):
            sim.send(node.id, j, "setup2", {"a": out[j]})

    def finish_setup(self, node: ParticipantNode) -> None:
        pass  # s_v is fixed at deal_second; channel keys come on first use

    def first_row(self, node: ParticipantNode, dealer: int) -> int:
        """V_dealer(id) as held: a field value already."""
        return node.held_v[dealer]

    def lost_row(self, node: ParticipantNode, q: int) -> int:
        """A_q(id), dealt by share-loser q: t of them rebuild its s_v = A_q(0)."""
        return node.held_a[q]

    def pair_key(self, node: ParticipantNode, peer: int, dealt: int) -> bytes:
        """k_ij = A_i(j) + A_j(i), from A_j(i) as `peer` dealt it."""
        return channel_key(pairwise_key(node.dealer, peer, dealt))

    def lift(self, x: int) -> int:
        return x

    def combine(self, values) -> int:
        return sum(values) % self.p

    def interpolate(self, points: list[tuple[int, int]], x: int, t: int) -> int:
        if x == 0:
            return lagrange_at_zero(points, t, self.p)
        return lagrange_at(points, x, t, self.p)

    def recover_lost(self, q: int, points: list[tuple[int, int]], t: int) -> int:
        """s_v of share-loser q from t helpers' (j, A_q(j))."""
        return recover_lost_share(q, dict(points), t, self.p)

    def mask(self, values, dealer: DealerState, s: int, round_no: int):
        return mask_vector(
            values, dealer.masking_secret(), dealer.self_key(), s, round_no, self.p
        )

    def aggregate(self, wires: list) -> list[list[int]]:
        return aggregate_vectors(wires, self.p)

    def verify(self, pairs, k: int, s: int, round_no: int) -> bool:
        return verify_vector(pairs, k, s, round_no, self.p)

    def unmask(self, pairs, pad_keys: list[int], round_no: int) -> list[int]:
        bound = self.codec.reach(len(pad_keys))
        sums = unmask_vector(pairs, self.combine(pad_keys), round_no, self.p)
        for idx, x in enumerate(sums):
            if bound < x < self.p - bound:
                raise DecodeFailure(f"element {idx} is outside [-{bound}, {bound}]")
        return sums


class GroupArith:
    """Lifts G^x mod P; combining multiplies, interpolation runs in the exponent."""

    SETUP = {
        "pk": (("pk", "peer_pks"),),
        "gsetup1": (("v", "held_v"), ("a", "held_a"), ("s", "s_peers")),
    }
    OPENING = "pk"
    reuses_setup = True  # later rounds derive their round key from the dealt one

    def __init__(self, spec: RoundSpec):
        if not isinstance(spec.group, GroupParams):
            raise ConfigError("group must be a GroupParams")
        self.group = spec.group
        self.p, self.q = self.group.p, self.group.q
        self.field = self.group.exponent_field()
        # shifted into [0, 2*clip], so sums stay small enough to brute-decode
        bits = 10 if spec.scale_bits is None else spec.scale_bits
        self.codec = codec = FixedPointCodec(bits, spec.clip_bound, signed=False)
        # unmask decodes below reach + 1; the bit-length test first, so a huge
        # scale_bits must not build its scale
        if codec.width_bits() >= DECODE_LIMIT.bit_length() or codec.reach(spec.n) >= DECODE_LIMIT:
            raise ConfigError("group decode bound exceeds 2^32; shrink scale_bits/clip/n")

    def open_setup(self, node: ParticipantNode, sim: Simulator) -> None:
        node.dealer.a_poly = UniPoly.random(node.spec.t - 1, self.field, node.rng)
        node.keypair = KeyPair.generate(self.group, node.rng)
        sim.broadcast(node.id, node.peers, "pk", {"pk": node.keypair.pk})

    def deal_second(self, node: ParticipantNode, sim: Simulator) -> None:
        """Both rows to each peer in one gsetup1, wrapped for its key: pk_j^V_i(j), pk_j^A_i(j)."""
        for j in node.peers:
            rows = [node.dealer.v_poly.eval(j), node.dealer.a_poly.eval(j)]
            w_v, w_a = wrap_share(rows, node.peer_pks[j], self.group)
            sim.send(node.id, j, "gsetup1", {"v": w_v, "a": w_a, "s": node.s_own})

    def finish_setup(self, node: ParticipantNode) -> None:
        # the first rows stay wrapped: first_row and lost_row unwrap on request
        for j in node.peers:  # every key now: reuse rounds find them ready
            node.chan_key(j)

    def first_row(self, node: ParticipantNode, dealer: int) -> int:
        """G^V_dealer(id): the held row unwrapped, one power, when it is asked for."""
        return unwrap_share(node.held_v[dealer], node.keypair.sk_inv, self.group)

    def lost_row(self, node: ParticipantNode, q: int) -> int:
        """G^V(id), this holder's share lift, whichever loser q it helps.

        Built on the first request. The held wrapped rows multiply to
        G^(sk * sum of V_j(id)), so one unwrap strips the key from all of them.
        """
        if node.own_share is None:
            wrapped = self.combine(node.held_v.values())
            held = unwrap_share(wrapped, node.keypair.sk_inv, self.group)
            node.own_share = self.combine([self.lift(node.dealer.v_poly.eval(node.id)), held])
        return node.own_share

    def pair_key(self, node: ParticipantNode, peer: int, dealt: int) -> bytes:
        """G^(A_i(j) * A_j(i)) from w = pk_i^A_j(i): DH and unwrap in one power."""
        # mod P - 1, not q: equals unwrapping, then raising, for any w < P
        exp = node.keypair.sk_inv * node.dealer.a_poly.eval(peer) % (self.p - 1)
        return channel_key(pow(dealt, exp, self.p), context=b"group")

    def lift(self, x: int) -> int:
        return self.group.lift(x)

    def combine(self, values) -> int:
        return combine_key_lifts(list(values), self.group)

    def interpolate(self, points: list[tuple[int, int]], x: int, t: int) -> int:
        if x == 0:
            return exp_lagrange_at_zero(points, t, self.group)
        return exp_lagrange_at(points, x, t, self.group)

    def recover_lost(self, q: int, points: list[tuple[int, int]], t: int) -> int:
        """G^V(q) of share-loser q from t helpers' (j, G^V(j))."""
        return self.interpolate(points, q, t)

    def mask(self, values, dealer: DealerState, s: int, round_no: int):
        return group_mask_vector(
            values, dealer.masking_secret(), dealer.self_key(), s, round_no, self.group
        )

    def aggregate(self, wires: list) -> list[list[int]]:
        return group_aggregate(wires, self.group)

    def verify(self, pairs, k: int, s: int, round_no: int) -> bool:
        return group_verify(pairs, k, s, round_no, self.group)

    def unmask(self, pairs, pad_keys: list[int], round_no: int) -> list[int]:
        bound = self.codec.reach(len(pad_keys)) + 1
        sums = []
        pad_base = self.combine(pad_keys)
        for idx, h in enumerate(group_unmask(pairs, pad_base, round_no, self.group)):
            try:
                sums.append(bsgs(h, bound, self.group))
            except NotFound:
                raise DecodeFailure(f"element {idx} has no discrete log below {bound}") from None
        return sums


ARITHS = {"scalar": ScalarArith, "group": GroupArith}
VARIANTS = tuple(ARITHS)  # ("scalar", "group"): test ids follow this order


# ---- helpers shared by the node implementations --------------------------------------


def candidate_order(round_no: int, n: int) -> list[int]:
    """The round's candidates, first to last: the ids rotated by the round number."""
    return [(round_no + k) % n + 1 for k in range(n)]


def _is_pairs(c: Any, node) -> bool:
    """A masked vector: exactly `length` pairs of ints in [0, p)."""
    if type(c) is not list or len(c) != node.spec.length:
        return False
    p = node.arith.p
    for pair in c:
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) is int
            and type(pair[1]) is int
            and 0 <= pair[0] < p
            and 0 <= pair[1] < p
        ):
            return False
    return True


def _is_members(m: Any, n: int) -> bool:
    """A list of distinct participant ids, each in [1, n]."""
    return (
        type(m) is list
        and all(type(i) is int and 0 < i <= n for i in m)
        and len(set(m)) == len(m)
    )


def _is_keys(v: Any, node) -> bool:
    """A member's own (k_i, V_i(0)) as two ints in [0, p), or null."""
    p = node.arith.p
    return v is None or (
        type(v) is list and len(v) == 2 and all(type(x) is int and 0 <= x < p for x in v)
    )


@lru_cache(maxsize=16)
def _id_keys(n: int) -> frozenset[str]:
    """Participant ids 1..n as the decimal strings that key a JSON map."""
    return frozenset(map(str, range(1, n + 1)))


def _is_rows(v: Any, node) -> bool:
    """Participant id, as its decimal string -> an int in [0, p)."""
    if type(v) is not dict:
        return False
    ids, p = _id_keys(node.spec.n), node.arith.p
    return all(key in ids and type(x) is int and 0 <= x < p for key, x in v.items())


def _is_sum(v: Any, node) -> bool:
    """One field value per vector element: exactly `length` ints in [0, q),
    each one the codec decodes: centered if it is signed, at most 2^1023
    times its scale, so that the division by the scale fits a float."""
    arith = node.arith
    q, codec = arith.q, arith.codec
    if type(v) is not list or len(v) != node.spec.length:
        return False
    top = codec.scale << 1023
    low = q - top if codec.signed else q  # a signed codec reads x >= low as x - q
    return all(type(x) is int and 0 <= x < q and (x <= top or x >= low) for x in v)


# Field kind -> (test of a value on the receiving node, what the value must be),
# bounded by that node's arith and spec. The leader's tag check covers only the
# elements and members it is shown, so an aggregate's m must meet the quorum. An
# absent field reads as None, so a kind ending in "?" marks an optional field.
FIELD_KINDS = {
    "int<p>": (lambda v, node: type(v) is int and 0 <= v < node.arith.p, "an int in [0, p)"),
    "int<p>?": (
        lambda v, node: v is None or type(v) is int and 0 <= v < node.arith.p,
        "absent or an int in [0, p)",
    ),
    "int<q>": (lambda v, node: type(v) is int and 0 <= v < node.arith.q, "an int in [0, q)"),
    "bool": (lambda v, node: type(v) is bool, "a boolean"),
    "str": (lambda v, node: type(v) is str, "a string"),
    "members": (lambda v, node: _is_members(v, node.spec.n), "a list of distinct participant ids"),
    "quorum": (
        lambda v, node: _is_members(v, node.spec.n) and len(v) >= node.spec.quorum,
        "a list of at least s_min distinct participant ids",
    ),
    "pairs": (_is_pairs, "a list of l pairs of ints in [0, p)"),
    "keys": (_is_keys, "null or a list of two ints in [0, p)"),
    "rows": (_is_rows, "a map from participant ids to ints in [0, p)"),
    "sum": (_is_sum, "a list of l ints in [0, q) that the codec decodes"),
}


# Sender rule -> test of an envelope's sender and receiver, on the receiving node,
# receiving role first: to a participant from any other participant, from the
# aggregator, or from the candidate it follows (the leader, once that asked);
# to the aggregator from any participant
SENDERS = {
    "peer": lambda src, node: AGGREGATOR_ID != node.id != src and 0 < src <= node.spec.n,
    "aggregator": lambda src, node: node.id != AGGREGATOR_ID and src == AGGREGATOR_ID,
    "leader": lambda src, node: node.id != AGGREGATOR_ID and src == node.leader,
    "participant": lambda src, node: node.id == AGGREGATOR_ID and 0 < src <= node.spec.n,
}


def _resolve(fields: tuple) -> tuple:
    """(field, field kind) pairs as the (field, test, text) tuples body_problem reads."""
    return tuple((name, *FIELD_KINDS[kind]) for name, kind in fields)


def _held_rows(rows: dict[int, dict], name: str, target: int) -> list[tuple[int, int]]:
    """(holder, row) for each fetched rows body that holds `target`'s row under
    `name`, in holder order."""
    key = str(target)
    return [(j, rows[j][name][key]) for j in sorted(rows) if key in rows[j][name]]


def body_problem(body: Any, fields: tuple, node) -> str | None:
    """Why a plaintext or opened body is unusable on `node`, or None if each
    field passes."""
    if not isinstance(body, dict):
        return "body is not an object"
    for name, test, text in fields:
        if not test(body.get(name), node):
            return f"{name} is not {text}"
    return None


def _shared(env, body, key: str, compute, *args):
    """compute(*args), kept under `key` in the memo of env's multicast if
    `body` is the body its receivers share, so the first receiver computes it
    and the rest read it. `compute` reads only the run's spec and its one
    arith object, which every receiver holds: a kind's body verdict, or a
    result's decoded sum."""
    slot = env.shared
    if slot is None or body is not slot.body:
        return compute(*args)
    memo = slot.memo
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


def _receiver():
    """The one receive rule, by each kind's MESSAGE_KINDS entry, as a fresh
    `on_message` for each node class: a profiler that wraps one class's
    `on_message` then times that role alone."""

    def on_message(self, sim: Simulator, env) -> None:
        entry = MESSAGE_KINDS.get(env.kind)
        if entry is None or env.round != self.round_no or (
            entry[0] != sim.phase and entry[0] != self.resumed
        ):
            sim.log_note("stale_message", dst=self.id, kind=env.kind, round=env.round)
            return
        _, sender, fields, handler = entry
        if not sender(env.src, self):
            return  # not from whom this kind may come, or not to this role: silence
        if not (env.secured and env.kind in SEALED_KINDS):  # else checked as it opens
            problem = _shared(env, env.body, env.kind, body_problem, env.body, fields, self)
            if problem is not None:
                _refuse(self, sim, env, problem)
                return
        handler(self, sim, env)

    return on_message


def _refuse(node, sim: Simulator, env, problem: str) -> None:
    """Log a body that failed its kind's fields. A failed aggregate, the
    aggregator's, rejects the round; any other body is dropped, as if its
    sender were silent."""
    if env.kind == "aggregate":
        sim.log_note("malformed_aggregate", dst=node.id, detail=problem)
        node.status = "rejected"
        node.reject_reason = "MalformedAggregate"
    else:
        sim.log_note("malformed_message", dst=node.id, kind=env.kind, src=env.src, detail=problem)


def _open(node, sim: Simulator, key: bytes | None, env) -> dict | None:
    """The body of a sealed envelope, or None (logged) if it does not open
    or fails its kind's fields, which counts as silence."""
    try:
        if key is None:
            raise AuthFailure("no channel key for this sender")
        body = secure_recv(key, env)
    except AuthFailure:
        sim.log_auth_failure(env)
        return None
    problem = _shared(env, body, env.kind, body_problem, body, MESSAGE_KINDS[env.kind][2], node)
    if problem is not None:
        _refuse(node, sim, env, problem)
        return None
    return body


# ---- participant ----------------------------------------------------------------------


class ParticipantNode(Node):
    """One protocol participant: dealer, contributor, candidate, potential leader."""

    def __init__(
        self, node_id: int, spec: RoundSpec, arith: ScalarArith | GroupArith, rng: random.Random
    ):
        self.id = node_id
        self.spec = spec
        self.arith = arith  # the run's one object, shared by every node
        self.rng = rng
        self.gradients: list[float] = []

    # -- state lifecycle: the runner calls begin_round before every round ---------

    def _reset_setup(self) -> None:
        self.dealer: DealerState | None = None  # stays None if offline when setup opens
        # dealer -> what this holder received from it, first dealing kept: the
        # first-row V_dealer(id) and second-row A_dealer(id) as dealt. In the
        # group both come wrapped for this holder's key and stay wrapped: a
        # first row is unwrapped only when a leader asks for it (arith.first_row
        # and lost_row), and a second row, pk_id^A_dealer(id), feeds the DH
        # power alone
        self.held_v: dict[int, int] = {}
        self.held_a: dict[int, int] = {}
        self.keypair: KeyPair | None = None  # group: this holder's unwrapping key
        self.peer_pks: dict[int, int] = {}  # group: dealer -> the key to wrap its rows for
        self.chan_keys: dict[int, bytes] = {}  # filled by chan_key alone
        self.complete = False
        self.s_own: int | None = None
        self.s_peers: dict[int, int] = {}  # dealer -> its round-key summand
        self.dealt_key: int | None = None  # sum of all n summands, once all are in
        self.dealt_round: int | None = None
        # s_v = V(id); in the group G^V(id), built on a leader's first request
        self.own_share: int | None = None

    def begin_round(self, round_no: int, deals: bool) -> None:
        """Start round state; start dealing state too if this round deals."""
        if deals:
            self._reset_setup()
        self.round_no = round_no
        self.order = candidate_order(round_no, self.spec.n)
        self.agg: list[list[int]] | None = None
        self.m_set: list[int] = []
        # the candidate this party follows, and whether its request went out
        # (its own) or came in
        self.leader: int | None = None
        self.heard = False
        # "verification" once this party resumes the order in decryption
        self.resumed: str | None = None
        self.plaintext: list[float] | None = None
        self.sum_from: int | None = None  # who sent the sum `plaintext` decodes
        self.status = "working"
        self.reject_reason: str | None = None
        # the leader's opened bodies by sender: share responses, read until
        # `lead`, and the rows it fetched after that
        self.resp: dict[int, dict] = {}
        self.resp_fb: dict[int, dict] = {}
        self.rows: dict[int, dict] = {}
        # the leader's view fixed at `lead`: (each vouching member's own keys,
        # the members of M that sent none, the share-losers that asked)
        self.gaps: tuple[dict[int, list[int]], list[int], list[int]] | None = None
        # the leader's findings, kept for decryption: the unmasked field values,
        # set only once the tag check passed, and share-loser -> rebuilt share
        self.sums: list[int] | None = None
        self.recovered: dict[int, int] = {}

    def wipe_shares(self) -> None:
        """Lose every received share plus the second-row material derived from them.

        The own first-row polynomial and the dealt key survive: they are this
        party's to keep, and they are exactly what the fallback recovery
        channel and later resubmissions are built from.
        """
        self.held_v = {}
        self.held_a = {}
        self.chan_keys = {}
        self.complete = False
        self.own_share = None
        if self.dealer is not None:
            # the scalar second row's constant term is the very share being lost
            self.dealer.a_poly = None
            self.dealer.s_v = None

    # -- small conveniences --------------------------------------------------------

    @property
    def peers(self) -> list[int]:
        return [i for i in self.spec.participant_ids if i != self.id]

    def round_key(self) -> int:
        """The dealt key in the round that dealt it, else SHA-256(domain || dealt
        key || round) mod q; 1 stands in for 0, which would void every tag."""
        if self.round_no == self.dealt_round:
            return self.dealt_key
        q = self.arith.q
        h = hashlib.sha256(b"secel/round-key/v1")
        h.update(self.dealt_key.to_bytes(-(-q.bit_length() // 8), "big"))
        h.update(self.round_no.to_bytes(8, "big"))
        return int.from_bytes(h.digest(), "big") % q or 1

    def chan_key(self, peer: int) -> bytes | None:
        """The pairwise channel key with `peer`, or None if there is none.

        Derived from both second rows the first time it is asked for after
        setup completes, and kept. The rows cannot move by then: each is
        dealt once and each holder keeps the first copy it received.
        """
        key = self.chan_keys.get(peer)
        if key is None and self.complete and peer in self.held_a:
            key = self.arith.pair_key(self, peer, self.held_a[peer])
            self.chan_keys[peer] = key
        return key

    def link_key(self, peer: int, intact: bool = True) -> bytes | None:
        """The AEAD key of the sealed link with `peer`, or None if there is none:
        the channel key while both ends hold their shares (`intact`: `peer`
        does), else the fallback key, from the one secret a share-loser still
        shares with a peer, V_loser(peer). A loser reads its own first row, an
        intact party the copy it holds from the loser."""
        if not self.complete:
            value = self.arith.lift(self.dealer.v_poly.eval(peer))
        elif intact:
            return self.chan_key(peer)
        elif peer in self.held_v:
            value = self.arith.first_row(self, peer)
        else:
            return None
        return channel_key(value, context=b"fallback")

    def _self_keys(self) -> list[int]:
        """This contributor's k_i = V_i(i) and pad key V_i(0), as arith values."""
        lift = self.arith.lift
        return [lift(self.dealer.self_key()), lift(self.dealer.masking_secret())]

    def _rows_body(self, m: list[int], lost: list[int]) -> dict:
        """What an intact holder hands a leader that asks for rows: the first
        rows it holds of the members m, and its recovery row for each
        share-loser in `lost` (A_q(id), or its own share lift in the group)."""
        arith = self.arith
        return {
            "v": {str(i): arith.first_row(self, i) for i in m if i in self.held_v},
            "lost": {str(q): arith.lost_row(self, q) for q in lost if q in self.held_a},
        }

    # -- phase starts ---------------------------------------------------------------

    def on_phase_start(self, sim: Simulator, phase: str) -> None:
        start = getattr(self, f"_start_{phase}", None)  # nothing to do at aggregation
        if start is not None:
            start(sim)

    def _start_setup(self, sim: Simulator) -> None:
        self.dealer = new_dealer(self.id, self.spec.t, self.spec.n, self.arith.field, self.rng)
        self.s_own = self.arith.field.random_nonzero(self.rng)
        self.arith.open_setup(self, sim)

    def _start_masking(self, sim: Simulator) -> None:
        if self.dealt_key is None:
            return  # setup never brought this party every round-key summand
        # unreduced: the masking kernel reduces each element mod its modulus
        values = self.arith.codec.scaled_values(self.gradients)
        wire = self.arith.mask(values, self.dealer, self.round_key(), self.round_no)
        sim.send(self.id, AGGREGATOR_ID, "submission", {"c": wire})

    def _start_verification(self, sim: Simulator) -> None:
        # the first turn comes two slots of budget // 5 in, so a fault due
        # before it lands before any request
        self._set_clock(sim, sim.now + 2 * (sim.config.budgets["verification"] // 5))
        # candidate 0 acts at its turn; everyone else looks a turn later
        self.leader = self.order[0]
        self._at(sim, 0 if self.leader == self.id else 1)

    def _start_decryption(self, sim: Simulator) -> None:
        if self.status != "working" or self.leader is None:
            return
        if self.leader != self.id:
            # the leader's sum lands within a flight: a party that has none by
            # the next candidate's turn resumes the order there
            self._set_clock(sim, sim.now)
            self.heard = False
            self._at(sim, self.order.index(self.leader) + 1)
        elif self.sums is not None:
            self._distribute(sim)

    # -- timers ----------------------------------------------------------------------

    def on_timer(self, sim: Simulator, name: str, data: Any) -> None:
        VERIFICATION_STEPS[name](self, sim, data)

    def _set_clock(self, sim: Simulator, base: int) -> None:
        """Time this phase's steps from delay_max, d, read nowhere else: candidate
        k's turn comes at base + k gaps of d + 1, so a request reaches every
        online peer before the next turn or none. A candidate leads 2d + 1 after
        its request and reads the rows it fetched 2d after that, a round trip
        each; one whose row read would fall past the phase takes no turn."""
        d = sim.config.delay_max
        self.first_turn, self.gap, self.lead_wait, self.rows_wait = base, d + 1, 2 * d + 1, 2 * d
        room = sim.now + sim.config.budgets[sim.phase] - 1 - base - self.lead_wait - self.rows_wait
        self.turns = min(self.spec.n, max(0, room // self.gap + 1))

    def _at(self, sim: Simulator, k: int) -> None:
        """Schedule candidate k's turn."""
        sim.schedule_timer(self.id, self.first_turn + k * self.gap, "turn", k)

    def _turn(self, sim: Simulator, k: int) -> None:
        """Candidate k's turn, so every earlier candidate's request is overdue:
        it asks if it is an intact holder of the aggregate, and anyone else
        follows it until the next turn. Past the last turn, a holder of the
        aggregate rejects; a member without it stays silent."""
        if self.heard or self.status != "working":
            return
        if sim.phase == "decryption":
            self.resumed = "verification"
        if k >= self.turns:
            self.leader = None
            if self.agg is not None:
                self.status = "rejected"
                self.reject_reason = RevealTimeout.__name__
            return
        self.leader = self.order[k]
        if self.leader == self.id and self.agg is not None and self.complete:
            self.heard = True
            sim.broadcast(self.id, self.peers, "share_req", {"m": self.m_set})
            sim.schedule_timer(self.id, sim.now + self.lead_wait, "lead")
        else:
            self._at(sim, k + 1)

    def _lead(self, sim: Simulator, data: Any) -> None:
        if self.leader != self.id or self.status != "working":
            return
        self.gaps = self._gaps()
        _, silent, lost = self.gaps
        if silent and not (self.resp or self.resp_fb):
            return  # nobody answered, so the request may have reached no one: stay silent
        # rows can help only if the holders that answered, and this leader, reach t
        if (silent or lost) and len(self.resp) + 1 >= self.spec.t:
            # one follow-up to those holders, read a round trip later
            sim.broadcast(self.id, self.resp, "rows_req", {"m": silent, "lost": lost})
            sim.schedule_timer(self.id, sim.now + self.rows_wait, "rows", True)
        else:
            self._conclude(sim)

    def _deciding(self) -> bool:
        """Whether this leader fixed its gaps at `lead` and has no verdict yet."""
        return self.gaps is not None and self.sums is None and self.status == "working"

    def _read_rows(self, sim: Simulator, first: bool | None) -> None:
        if first and self._deciding() and len(self.rows) < len(self.resp):
            # answers due on this very tick were queued after this timer:
            # read once more, after them
            sim.schedule_timer(self.id, sim.now, "rows")
        else:
            self._conclude(sim)

    def _conclude(self, sim: Simulator) -> None:
        """Recover, verify and unmask: at `lead`, or when the fetched rows are read."""
        if not self._deciding():
            return
        try:
            self._recover_and_verify(sim)
        except (RecoveryQuorumFailure, VerificationFailed, DecodeFailure) as exc:
            reason = type(exc).__name__
            self.status = "rejected"
            self.reject_reason = reason
            sim.log_note("reject", by=self.id, reason=reason, detail=str(exc))
            sim.broadcast(self.id, self.peers, "reject", {"reason": reason})
            return
        if sim.phase == "decryption":
            self._distribute(sim)  # a candidate that took over hands out its sum at once

    # -- message handling ---------------------------------------------------------------

    on_message = _receiver()

    # setup ........................................................................

    def _on_setup(self, sim: Simulator, env) -> None:
        """The one receive path of both variants' dealing kinds.

        The body has passed its kind's field checks. A kind the variant does
        not deal is ignored. A repeated (kind, sender) keeps its first body
        and changes nothing. A party offline when setup opened deals nothing,
        so it takes nothing either.
        """
        arith = self.arith
        pairs = arith.SETUP.get(env.kind)
        if pairs is None or self.dealer is None:
            return
        src, body = env.src, env.body
        first = getattr(self, pairs[0][1])
        if src in first:
            return
        for name, store in pairs:
            getattr(self, store)[src] = body[name]
        peers = self.spec.n - 1
        if self.dealt_key is None and len(self.s_peers) == peers:
            # the one place the dealt key is fixed
            self.dealt_key = (self.s_own + sum(self.s_peers.values())) % self.arith.q or 1
            self.dealt_round = self.round_no
        if env.kind == arith.OPENING and len(first) == peers:
            arith.deal_second(self, sim)  # once, on the last opening
        if not self.complete and len(self.held_v) == peers and len(self.held_a) == peers:
            self.complete = True
            arith.finish_setup(self)

    # masking / aggregation ..........................................................

    def _on_aggregate(self, sim: Simulator, env) -> None:
        self.agg = env.body["c"]
        self.m_set = list(env.body["m"])

    def _on_abort(self, sim: Simulator, env) -> None:
        # an aggregator aborts only for staleness, so an abort carries nothing
        self.status = "rejected"
        self.reject_reason = "StalenessTimeout"

    # verification ...................................................................

    def _on_share_req(self, sim: Simulator, env) -> None:
        self.heard = True  # the candidate this party follows asked
        if self.status != "working" or self.dealer is None:
            return
        # a member's own keys alone; held rows go out only when the leader asks
        own = self._self_keys() if self.id in env.body["m"] else None
        if self.complete:
            kind, body = "share_resp", {"self": own}
        else:
            # every received share is gone: the link key is the fallback one
            kind, body = "share_resp_fb", {"need": self.own_share is None, "self": own}
        sim.send(self.id, env.src, kind, body, key=self.link_key(env.src))

    def _on_rows_req(self, sim: Simulator, env) -> None:
        # only an intact holder answers; the leader, a candidate, is intact too
        if self.status != "working" or not self.complete:
            return
        body = self._rows_body(env.body["m"], env.body["lost"])
        sim.send(self.id, env.src, "rows_resp", body, key=self.link_key(env.src))

    def _on_share_resp(self, sim: Simulator, env) -> None:
        if self.leader == self.id and self.gaps is None:
            fb = env.kind == "share_resp_fb"  # answered over the fallback channel
            body = _open(self, sim, self.link_key(env.src, intact=not fb), env)
            if body is not None:
                (self.resp_fb if fb else self.resp)[env.src] = body

    def _on_rows_resp(self, sim: Simulator, env) -> None:
        src = env.src
        if self._deciding() and src in self.resp and src not in self.rows:  # asked, first answer
            body = _open(self, sim, self.link_key(src), env)
            if body is not None:
                self.rows[src] = body

    def _on_reject(self, sim: Simulator, env) -> None:
        self.status = "rejected"
        self.reject_reason = env.body["reason"]

    # decryption .....................................................................

    def _on_result(self, sim: Simulator, env) -> None:
        """A `result` carries the sum, always sealed; a `round_done` only the
        verdict, sealed when it hands a share-loser its recovered share."""
        if env.kind == "result" or env.secured:
            body = _open(self, sim, self.link_key(env.src), env)
            if body is None:
                return
            recovered = body.get("recovered")  # absent reads as None
            if recovered is not None:
                self.own_share = recovered
        if env.kind == "result":
            self.sum_from = env.src
            decode, m_count = self.arith.codec.decode, len(body["m"])
            decoded = _shared(env, body, "decoded", decode, body["sum"], self.arith.field, m_count)
            self.plaintext = list(decoded)  # each member's own list
        self.status = "done"

    # -- leader: recovery, verification, decryption ------------------------------------

    def _gaps(self) -> tuple[dict[int, list[int]], list[int], list[int]]:
        """What the share responses left open: each member's own (k_i, V_i(0))
        that came in, this leader's included, the members of M that sent
        none, and the share-losers that asked for their share."""
        vouched = {
            src: body["self"]
            for src, body in {**self.resp, **self.resp_fb}.items()
            if body.get("self") is not None
        }
        if self.id in self.m_set:
            vouched[self.id] = self._self_keys()
        silent = [i for i in sorted(self.m_set) if i not in vouched]
        lost = sorted(src for src, body in self.resp_fb.items() if body.get("need"))
        return vouched, silent, lost

    def _recover_and_verify(self, sim: Simulator) -> None:
        arith = self.arith
        t = self.spec.t
        m = sorted(self.m_set)
        vouched, silent, lost = self.gaps
        # pool the rows this leader can see: its own, in the form a holder
        # answers with, plus each fetched answer
        rows = {self.id: self._rows_body(silent, lost), **self.rows}

        # each member's tag key V_i(i) and pad key V_i(0): online members vouch
        # for themselves; anyone silent now is rebuilt from t first-row evaluations
        k_map: dict[int, int] = {}
        v0_map: dict[int, int] = {}
        for i in m:
            if i in vouched:
                k_map[i], v0_map[i] = vouched[i]
                continue
            pts = _held_rows(rows, "v", i)
            if len(pts) < t:
                raise RecoveryQuorumFailure(
                    f"contributor {i}: {len(pts)} evaluations held, need {t}"
                )
            k_map[i] = arith.interpolate(pts[:t], i, t)
            v0_map[i] = arith.interpolate(pts[:t], 0, t)
            helpers = [j for j, _ in pts[:t]]
            sim.log_note("recover", what="contributor_keys", target=i, helpers=helpers)

        # share-losers: rebuild their share from t helpers
        for q in lost:
            pts = _held_rows(rows, "lost", q)
            if len(pts) < t:
                raise RecoveryQuorumFailure(f"share loser {q}: {len(pts)} helpers, need {t}")
            self.recovered[q] = arith.recover_lost(q, pts[:t], t)
            sim.log_note("recover", what="lost_share", target=q, helpers=[j for j, _ in pts[:t]])

        k = arith.combine(k_map[i] for i in m)
        if not arith.verify(self.agg, k, self.round_key(), self.round_no):
            raise VerificationFailed("aggregate failed the tag check")

        # each member masked with its own pad key V_i(0)
        self.sums = arith.unmask(self.agg, [v0_map[i] for i in m], self.round_no)

    def _distribute(self, sim: Simulator) -> None:
        m = sorted(self.m_set)
        sums = self.sums
        # one result body for every member without a recovered share, encoded
        # once and sealed for each under its own key
        shared = {"sum": sums, "m": m}
        with sim.shared_body(shared):
            for u in self.peers:
                if not sim.is_online(u):
                    continue
                recovered = self.recovered.get(u)
                if u in m:
                    kind, body = "result", shared
                elif recovered is not None:
                    # a share-loser outside M still gets its share back, privately
                    kind, body = "round_done", {}
                else:
                    sim.send(self.id, u, "round_done", {})
                    continue
                if recovered is not None:
                    body = {**body, "recovered": recovered}
                key = self.link_key(u, intact=u not in self.resp_fb)
                if key is None:
                    sim.log_note("undeliverable", dst=u)
                    continue
                sim.send(self.id, u, kind, body, key=key)
        if self.id in m:
            self.plaintext = self.arith.codec.decode(sums, self.arith.field, len(m))
            self.sum_from = self.id
        self.status = "done"


# The verification steps, timed by ParticipantNode._set_clock: each candidate's
# turn, its `lead` once the answers to its request are in, and its `rows` once
# the rows it fetched are. A party that resumes the order in decryption runs
# them there.
VERIFICATION_STEPS = {
    "turn": ParticipantNode._turn,
    "lead": ParticipantNode._lead,
    "rows": ParticipantNode._read_rows,
}


# ---- aggregator -------------------------------------------------------------------------


class AggregatorNode(Node):
    """Untrusted collector: sums submissions, optionally tampers, never verifies."""

    def __init__(self, spec: RoundSpec, arith: ScalarArith | GroupArith, rng: random.Random):
        self.id = AGGREGATOR_ID
        self.spec = spec
        self.arith = arith
        self.rng = rng

    resumed = None  # the aggregator takes each kind in its own phase alone

    def begin_round(self, round_no: int) -> None:
        self.round_no = round_no
        self.received: dict[int, list[list[int]]] = {}
        self.aborted = False
        self.m: list[int] = []

    on_message = _receiver()

    def _on_submission(self, sim: Simulator, env) -> None:
        self.received[env.src] = env.body["c"]

    def on_phase_start(self, sim: Simulator, phase: str) -> None:
        if phase != "aggregation":
            return
        spec = self.spec
        if len(self.received) < spec.quorum:
            self.aborted = True
            sim.log_note("staleness", have=sorted(self.received), need=spec.quorum)
            sim.broadcast(self.id, spec.participant_ids, "abort", {})
            return
        self.m = sorted(self.received)
        agg = self.arith.aggregate([self.received[i] for i in self.m])
        body = self._tamper({"m": self.m, "c": agg})
        sim.broadcast(self.id, spec.participant_ids, "aggregate", body)

    def _tamper(self, body: dict) -> dict:
        # the first four policies shift, negate or replace hidden values (adding
        # a constant to a field value is multiplying a lift by G^constant); the
        # last three break the body's shape
        arith = self.arith
        policy = self.spec.tamper
        agg = body["c"]
        if policy == "flip_element":
            agg[0][0] = arith.combine([agg[0][0], arith.lift(1)])
        elif policy == "inject_offset":
            shift = arith.lift(TAMPER_OFFSET)
            body["c"] = [[arith.combine([a, shift]), b] for a, b in agg]
        elif policy == "negate":
            # p - c: a field negation, or in the group the order-2 element -1
            # times each component, which leaves the subgroup
            p = arith.p
            agg[0] = [-agg[0][0] % p, -agg[0][1] % p]
        elif policy == "substitute_all":
            draw, rng = arith.field.random_element, self.rng
            body["c"] = [[arith.lift(draw(rng)), arith.lift(draw(rng))] for _ in agg]
        elif policy == "truncate":
            del agg[-1]
        elif policy == "duplicate_member":
            body["m"] = self.m + self.m[:1]
        elif policy == "malformed":
            agg[0][0] = str(agg[0][0])
        return body


# Every message kind: the one phase window it is meaningful in (anything that
# straggles across a boundary, or arrives for the wrong round, is noted stale),
# who may send it to whom (a SENDERS rule; on_message ignores anyone else,
# silently), the (field, field kind) pairs its body must pass, and the handler
# of the node that receives it. on_message checks a plaintext body, and _open a
# sealed one as it opens, once per multicast body and once per point-to-point
# copy; a failed aggregate rejects the round, any other failed body counts as
# silence. A leader sends rows_req only when a member of M sent no keys of its
# own or a share-loser asked for its share.
MESSAGE_KINDS = {
    "setup1": ("setup", "peer", (("v", "int<p>"), ("s", "int<q>")), ParticipantNode._on_setup),
    "setup2": ("setup", "peer", (("a", "int<p>"),), ParticipantNode._on_setup),
    "pk": ("setup", "peer", (("pk", "int<p>"),), ParticipantNode._on_setup),
    "gsetup1": (
        "setup", "peer", (("v", "int<p>"), ("a", "int<p>"), ("s", "int<q>")),
        ParticipantNode._on_setup,
    ),
    "submission": ("masking", "participant", (("c", "pairs"),), AggregatorNode._on_submission),
    "aggregate": (
        "aggregation", "aggregator", (("m", "quorum"), ("c", "pairs")),
        ParticipantNode._on_aggregate,
    ),
    "abort": ("aggregation", "aggregator", (), ParticipantNode._on_abort),
    "share_req": ("verification", "leader", (("m", "members"),), ParticipantNode._on_share_req),
    "share_resp": ("verification", "peer", (("self", "keys"),), ParticipantNode._on_share_resp),
    "share_resp_fb": (
        "verification", "peer", (("need", "bool"), ("self", "keys")),
        ParticipantNode._on_share_resp,
    ),
    "rows_req": (
        "verification", "leader", (("m", "members"), ("lost", "members")),
        ParticipantNode._on_rows_req,
    ),
    "rows_resp": (
        "verification", "peer", (("v", "rows"), ("lost", "rows")), ParticipantNode._on_rows_resp,
    ),
    "reject": ("verification", "leader", (("reason", "str"),), ParticipantNode._on_reject),
    "result": (
        "decryption", "leader",
        (("sum", "sum"), ("m", "members"), ("recovered", "int<p>?")),
        ParticipantNode._on_result,
    ),
    "round_done": ("decryption", "leader", (("recovered", "int<p>?"),), ParticipantNode._on_result),
}
# the kinds whose handler opens a sealed copy; round_done goes out plaintext too,
# to a party that gets no share back
SEALED_KINDS = frozenset({"share_resp", "share_resp_fb", "rows_resp", "result", "round_done"})
# resolved once: a sender's check is one call, a body's one loop over (field, test, text)
MESSAGE_KINDS = {
    kind: (phase, SENDERS[sender], _resolve(fields), handler)
    for kind, (phase, sender, fields, handler) in MESSAGE_KINDS.items()
}


# ---- scenario runner ----------------------------------------------------------------------


def run_rounds(spec: RoundSpec | dict, sim_config: SimConfig | None = None) -> ScenarioResult:
    """Drive `spec.rounds` full protocol rounds and report what happened.

    Any phase barrier can end a round early: too few intact bundles after
    setup, too few submissions at aggregation, no candidate taking the lead, a
    failed tag check, a recovery quorum shortfall, or no leader's sum that
    reached a member of M (a candidate went silent after its request). A
    failed round is reported as rejected — never raised — so multi-round
    scenarios keep going. A document is passed alone: it names the simulation
    too, and is validated once.
    """
    if isinstance(spec, dict):
        if sim_config is not None:
            raise ConfigError("a scenario document sets the simulation itself; pass no SimConfig")
        (spec, arith), sim_config = RoundSpec._checked(spec), SimConfig.from_dict(spec)
    else:
        arith = spec.validate()  # the run's one arithmetic object
    if sim_config is None:
        sim_config = SimConfig(n=spec.n)
    if sim_config.n != spec.n:
        raise ConfigError(f"sim config n={sim_config.n} != round spec n={spec.n}")
    sim = Simulator(sim_config)
    # a fault due at or past its phase's end would fire in a later phase, or never
    if any(f.offset >= sim_config.budgets[f.phase] for f in sim_config.faults):
        raise ConfigError("fault offset must be below the phase budget")
    aggregator = AggregatorNode(spec, arith, sim.node_rng(AGGREGATOR_ID))
    sim.add_node(aggregator)
    participants: dict[int, ParticipantNode] = {}
    inputs: dict[int, list[float]] = {}
    for i in spec.participant_ids:
        node = ParticipantNode(i, spec, arith, sim.node_rng(i))
        if spec.gradients is not None:
            node.gradients = list(spec.gradients[i - 1])
        else:
            grad_rng = random.Random(derive_seed(sim_config.seed, "grad", i))
            node.gradients = [
                grad_rng.uniform(-spec.clip_bound, spec.clip_bound)
                for _ in range(spec.length)
            ]
        inputs[i] = list(node.gradients)
        participants[i] = node
        sim.add_node(node)

    states: list[RoundState] = []
    for r in range(spec.rounds):
        # rounds after the first may reuse the dealt state and derive the key
        deals = r == 0 or not arith.reuses_setup
        aggregator.begin_round(r)
        for node in participants.values():
            node.begin_round(r, deals)
        state = RoundState(round=r)
        order = candidate_order(r, spec.n)  # as every party derives it
        for phase in PHASES if deals else PHASES[1:]:
            state.phase = phase
            sim.run_phase(phase, r)
            if phase == "setup":
                for q in spec.share_loss:
                    participants[q].wipe_shares()
                    sim.log_note("share_loss", id=q)
                if sum(n.complete for n in participants.values()) < spec.t:
                    state.error = "SetupQuorumFailure"
                    break
            elif phase == "aggregation":
                if aggregator.aborted:
                    state.error = "StalenessTimeout"
                    break
                state.m_set = list(aggregator.m)
                state.failed = sorted(set(spec.participant_ids) - set(state.m_set))
                state.u_set = sorted(
                    i for i, n in participants.items() if n.agg is not None
                )
            elif phase == "verification":
                # A fault can let more than one candidate ask. In the order,
                # the first that asked and holds a verified sum leads and the
                # round stands; else the first that asked and gave a reason,
                # else the first that asked. The error is that leader's reason,
                # else the first any party gave, else BudgetExhausted (silence).
                ranked = [participants[c] for c in order]
                asked = [n for n in ranked if n.heard and n.leader == n.id]
                winner = next((n for n in asked if n.sums is not None), None)
                if winner is not None:
                    state.leader, state.verified = winner.id, True
                else:
                    judged = [n for n in asked if n.reject_reason is not None]
                    state.leader = next((n.id for n in judged + asked), None)
                    reasons = [n.reject_reason for n in judged + ranked if n.reject_reason]
                    state.error = next(iter(reasons), "BudgetExhausted")
                    if state.error == "VerificationFailed":
                        state.verified = False
                    break
            elif phase == "decryption":
                # a member takes a result from the leader it follows alone:
                # the first candidate in the order whose sum reached a member
                # of M leads, the verified one or one that took over here
                senders = {participants[i].sum_from for i in state.m_set}
                state.leader = next((c for c in order if c in senders), state.leader)
                state.delivered_to = [
                    i for i in state.m_set if participants[i].sum_from == state.leader
                ]
                if not state.delivered_to:
                    # verified, but no member of M received its sum (the leader went silent)
                    state.error = "BudgetExhausted"
                    break
                leader = participants[state.leader]
                state.field_sum = list(leader.sums)
                # each decoded the leader's one multicast sum: report a copy, decode nothing
                state.decrypted = list(participants[state.delivered_to[0]].plaintext)
                state.recovered = sorted(leader.recovered)
        # only setup sets or clears `complete`, so this is the post-setup T
        state.t_set = sorted(i for i, n in participants.items() if n.complete)
        if state.error is None and state.phase == "decryption":
            state.phase = "done"
        elif state.error is not None:
            state.phase = "rejected"
            sim.log_note("round_rejected", round=r, reason=state.error)
        states.append(state)

    nodes: dict[int, Node] = {AGGREGATOR_ID: aggregator}
    nodes.update(participants)
    result = ScenarioResult(
        spec=spec,
        sim_config=sim_config,
        rounds=states,
        transcript=sim.transcript,
        inputs=inputs,
        nodes=nodes,
        budget_exhausted=sim.pending_events() > 0,
    )
    if result.budget_exhausted:
        sim.log_note("budget_exhausted", pending=sim.pending_events())
    return result
