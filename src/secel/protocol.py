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
  verification  intact share-holders elect a leader by commit/reveal; the leader
                gathers share evaluations, rebuilds missing contributor keys,
                checks the homomorphic tag, and reconstructs lost shares
  decryption    the leader strips the pad and hands the plaintext sum only to
                online contributors; everyone else just learns the verdict

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
arithmetic object, ScalarArith or GroupArith, that RoundSpec builds: adding
field values or multiplying group lifts, and the steps of setup. Nodes and
the runner are written once against it and never read the variant.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any

from .algebra import (
    DEFAULT_PRIME,
    FixedPointCodec,
    PrimeModulus,
    UniPoly,
    _checked_prime,
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
    SetupQuorumFailure,
    VerificationFailed,
)
from .group_variant import (
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

VARIANTS = ("scalar", "group")
TAMPER_POLICIES = ("honest", "flip_element", "substitute_all", "inject_offset", "negate",
                   "truncate", "duplicate_member", "malformed")
TAMPER_OFFSET = 3  # additive constant used by the inject_offset policy

COMMIT_RANGE = 1 << 32  # an elector's commit value is drawn below this
_NUMBERS = frozenset({int, float})  # a config number's exact types: bool is not one


# ---- pure protocol operations ---------------------------------------------------


def _commitment(value: int, salt: bytes, voter: int) -> str:
    h = hashlib.sha256()
    h.update(b"secel/elect/v1")
    h.update(value.to_bytes(8, "big"))
    h.update(salt)
    h.update(voter.to_bytes(8, "big"))
    return h.hexdigest()


@lru_cache(maxsize=256)
def _revealed_commitment(value: int, salt: str, voter: int) -> str:
    """_commitment of a revealed triple: public by now, so every receiver shares one hash."""
    return _commitment(value, bytes.fromhex(salt), voter)


def elect_leader(reveals: dict[int, int]) -> int:
    """Pick the leader from valid commit/reveal pairs.

    The revealed values are summed and reduced modulo the electorate size; the
    winner is that index into the id-sorted electorate. Any single honest
    reveal makes the sum uniform, so no coalition of the others can steer the
    choice. An empty electorate is a liveness failure.
    """
    if not reveals:
        raise RevealTimeout("no valid reveals; cannot elect a leader")
    ids = sorted(reveals)
    return ids[sum(reveals.values()) % len(ids)]


@dataclass
class SetupResult:
    """Offline (simulator-free) outcome of a full-attendance two-step dealing."""

    dealers: dict[int, DealerState]
    received_v: dict[int, dict[int, int]]  # holder -> dealer -> V_dealer(holder)
    received_a: dict[int, dict[int, int]]  # holder -> dealer -> A_dealer(holder)
    survivors: list[int]  # ids still holding a complete bundle (the set T)


def run_setup(
    ids: list[int],
    t: int,
    modulus: PrimeModulus,
    rng: random.Random,
    share_loss: tuple[int, ...] = (),
) -> SetupResult:
    """Run both dealing rounds among `ids`, then apply share loss.

    This is the pure-math twin of the simulator's setup phase: every dealer is
    present, messages are exchanged instantly, and the survivor set T is
    whoever still holds a complete bundle afterwards. Raises
    SetupQuorumFailure when fewer than t survive — nothing dealt this round
    could ever be recovered or verified.
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
    for q in share_loss:
        received_v[q] = {}
        received_a[q] = {}
        dealers[q].a_poly = None
        dealers[q].s_v = None
    survivors = [i for i in ids if i not in set(share_loss)]
    if len(survivors) < t:
        raise SetupQuorumFailure(
            f"only {len(survivors)} complete bundles survived; need {t}"
        )
    return SetupResult(dealers, received_v, received_a, survivors)


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

    def codec(self) -> FixedPointCodec:
        # group: shift into [0, 2*clip] so sums stay small enough to brute-decode
        group = self.variant == "group"
        return FixedPointCodec(
            scale_bits=(10 if group else 16) if self.scale_bits is None else self.scale_bits,
            clip_bound=self.clip_bound,
            signed=not group,
        )

    def field_modulus(self) -> PrimeModulus:
        if self.variant == "group":
            return self.group.exponent_field()
        return PrimeModulus(self.prime)

    def arith(self) -> ScalarArith | GroupArith:
        """A fresh arithmetic object for one node: the variant's whole difference."""
        return GroupArith(self) if self.variant == "group" else ScalarArith(self)

    def decode_bound(self, m_count: int) -> int:
        """Largest decodable aggregate in group mode: m parties, full clip range."""
        codec = self.codec()
        return m_count * round(2 * codec.clip_bound * codec.scale) + 1

    def validate(self) -> None:
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
        if self.variant == "scalar":
            try:
                _checked_prime(self.prime)  # cached per modulus
            except (TypeError, ValueError):
                raise ConfigError("prime must be prime") from None
        if not (self.scale_bits is None or type(self.scale_bits) is int and self.scale_bits >= 1):
            raise ConfigError("scale_bits must be a positive integer")
        if not (type(self.clip_bound) in _NUMBERS and 0 < self.clip_bound < math.inf):
            raise ConfigError("clip_bound must be a positive finite number")
        try:
            self.codec().ensure_capacity(self.n, self.field_modulus())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.variant == "group" and self.decode_bound(self.n) > (1 << 32):
            raise ConfigError(
                "group decode bound exceeds 2^32; shrink scale_bits/clip/n"
            )

    _SIM_KEYS = frozenset({"seed", "n", "delay", "budgets", "faults"})

    @classmethod
    def from_dict(cls, raw: dict) -> "RoundSpec":
        if not isinstance(raw, dict):
            raise ConfigError("round spec must be a JSON object")
        own = {f.name for f in fields(cls)}
        unknown = set(raw) - own - {"l"} - cls._SIM_KEYS  # "l" is short for length
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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
            args.setdefault("length", raw["l"])
        spec = cls(**{**args, "group": group})
        spec.validate()
        return spec


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
    delivered_to: list[int] = field(default_factory=list)  # ended round with plaintext
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
# The nodes are written once against these two objects; each node owns one.
# Values travel as plain ints: field values mod p for the scalar variant,
# lifts G^x mod P for the group variant. Masked vectors stay in the wire
# format, lists of [c1, c2] pairs, from the contributor's mask through the
# aggregator's sum to the leader's check, so each method is one kernel call.
#
# Setup runs one way in both (ParticipantNode._on_setup): open_setup sends the
# OPENING kind, deal_second runs once every peer's opening is in, finish_setup
# once both rows from every peer are held. SETUP: kind -> role of its dealt value.


class ScalarArith:
    """Field values mod p; combining adds, interpolation is plain Lagrange."""

    V_FIELD = "v_evals"  # share_resp key of the held first-row evaluations
    SHARE_FIELD = "s_v"  # share_resp key of the responder's own share
    A_FIELD = "a_evals"  # share_resp key of the held second-row evaluations
    SETUP = {"setup1": "first_row", "setup2": "second_row"}
    OPENING = "setup1"
    reuses_setup = False  # every round deals afresh

    def __init__(self, spec: RoundSpec):
        self.ids = spec.participant_ids
        self.p = self.q = spec.prime  # values live mod p, exponents mod q

    def open_setup(self, node: ParticipantNode, sim: Simulator) -> None:
        """First dealing round: V_i(j) and the round-key summand to each peer."""
        out = step1_messages(node.dealer, self.ids)
        for j in sorted(out):
            sim.send(node.id, j, "setup1", {"v": out[j], "s": node.s_own})

    def deal_second(self, node: ParticipantNode, sim: Simulator) -> None:
        """Fix s_v = V(id), then deal A_i(j) with A_i(0) = s_v."""
        node.own_share = accumulate_sv(node.dealer, node.held_v, self.ids)
        out = step2_messages(node.dealer, self.ids, node.rng)
        for j in sorted(out):
            sim.send(node.id, j, "setup2", {"a": out[j]})

    def unwrap(self, dealt: int) -> int:
        return dealt

    def finish_setup(self, node: ParticipantNode) -> None:
        pass  # s_v is fixed at deal_second; channel keys come on first use

    def pair_key(self, dealer: DealerState, peer: int, dealt: int) -> bytes:
        """k_ij = A_i(j) + A_j(i), from A_j(i) as `peer` dealt it."""
        return channel_key(pairwise_key(dealer, peer, dealt))

    def lift(self, x: int) -> int:
        return x

    def combine(self, values) -> int:
        return sum(values) % self.p

    def interpolate(self, points: list[tuple[int, int]], x: int, t: int) -> int:
        if x == 0:
            return lagrange_at_zero(points, t, self.p)
        return lagrange_at(points, x, t, self.p)

    def recover_lost(self, q: int, bodies: dict, shares: dict, t: int):
        """s_v of share-loser q from t helpers' second-row evaluations A_q(j)."""
        held_a = {j: body.get(self.A_FIELD, {}) for j, body in bodies.items() if j != q}
        helpers = {j: a[str(q)] for j, a in held_a.items() if str(q) in a}
        if len(helpers) < t:
            raise RecoveryQuorumFailure(
                f"share loser {q}: {len(helpers)} helpers, need {t}"
            )
        return recover_lost_share(q, helpers, t, self.p), sorted(helpers)[:t]

    def mask(self, values, dealer: DealerState, s: int, round_no: int):
        return mask_vector(
            values, dealer.masking_secret(), dealer.self_key(), s, round_no, self.p
        )

    def aggregate(self, wires: list) -> list[list[int]]:
        return aggregate_vectors(wires, self.p)

    def verify(self, pairs, k: int, s: int, round_no: int) -> bool:
        return verify_vector(pairs, k, s, round_no, self.p)

    def unmask(self, pairs, pad: int, round_no: int, m_count: int) -> list[int]:
        return unmask_vector(pairs, pad, round_no, self.p)


class GroupArith:
    """Lifts G^x mod P; combining multiplies, interpolation runs in the exponent."""

    V_FIELD = "v_lifts"
    SHARE_FIELD = "share_lift"
    A_FIELD = None  # a lost share is rebuilt from share lifts, not second rows
    SETUP = {"pk": "key", "gsetup1": "first_row", "gsetup2": "second_row"}
    OPENING = "pk"
    reuses_setup = True  # later rounds derive their round key from the dealt one

    def __init__(self, spec: RoundSpec):
        self.spec = spec
        self.group = spec.group
        self.p, self.q = self.group.p, self.group.q

    def open_setup(self, node: ParticipantNode, sim: Simulator) -> None:
        node.dealer.a_poly = UniPoly.random(self.spec.t - 1, node.modulus, node.rng)
        self.keypair = KeyPair.generate(self.group, node.rng)
        self.peer_pks: dict[int, int] = {}
        sim.broadcast(node.id, node.peers, "pk", {"pk": self.keypair.pk})

    def deal_second(self, node: ParticipantNode, sim: Simulator) -> None:
        """Both rows to each peer, wrapped for its key: pk_j^V_i(j), pk_j^A_i(j)."""
        for j in node.peers:
            pk = self.peer_pks[j]
            w = wrap_share(node.dealer.v_poly.eval(j), pk, self.group)
            sim.send(node.id, j, "gsetup1", {"w": w, "s": node.s_own})
            a = node.dealer.a_poly.eval(j)
            sim.send(node.id, j, "gsetup2", {"w": wrap_share(a, pk, self.group)})

    def unwrap(self, dealt: int) -> int:
        return unwrap_share(dealt, self.keypair.sk_inv, self.group)

    def finish_setup(self, node: ParticipantNode) -> None:
        # persistent share: G^(V(id)) where V is the sum of all dealt rows
        own = self.lift(node.dealer.v_poly.eval(node.id))
        node.own_share = self.combine([own, *node.held_v.values()])
        for j in node.peers:  # every key now: reuse rounds find them ready
            node.chan_key(j)

    def pair_key(self, dealer: DealerState, peer: int, dealt: int) -> bytes:
        """G^(A_i(j) * A_j(i)) from w = pk_i^A_j(i): DH and unwrap in one power."""
        # mod P - 1, not q: equals unwrapping, then raising, for any w < P
        exp = self.keypair.sk_inv * dealer.a_poly.eval(peer) % (self.p - 1)
        return channel_key(pow(dealt, exp, self.p), context=b"group")

    def lift(self, x: int) -> int:
        return self.group.lift(x)

    def combine(self, values) -> int:
        return combine_key_lifts(list(values), self.group)

    def interpolate(self, points: list[tuple[int, int]], x: int, t: int) -> int:
        if x == 0:
            return exp_lagrange_at_zero(points, t, self.group)
        return exp_lagrange_at(points, x, t, self.group)

    def recover_lost(self, q: int, bodies: dict, shares: dict, t: int):
        """G^V(q) of share-loser q, interpolated at q from t helpers' G^V(j)."""
        pts = [(j, shares[j]) for j in sorted(shares) if j != q]
        if len(pts) < t:
            raise RecoveryQuorumFailure(f"share loser {q}: {len(pts)} helpers, need {t}")
        return self.interpolate(pts[:t], q, t), [j for j, _ in pts[:t]]

    def mask(self, values, dealer: DealerState, s: int, round_no: int):
        return group_mask_vector(
            values, dealer.masking_secret(), dealer.self_key(), s, round_no, self.group
        )

    def aggregate(self, wires: list) -> list[list[int]]:
        return group_aggregate(wires, self.group)

    def verify(self, pairs, k: int, s: int, round_no: int) -> bool:
        return group_verify(pairs, k, s, round_no, self.group)

    def unmask(self, pairs, pad: int, round_no: int, m_count: int) -> list[int]:
        bound = self.spec.decode_bound(m_count)
        sums = []
        for idx, h in enumerate(group_unmask(pairs, pad, round_no, self.group)):
            try:
                sums.append(bsgs(h, bound, self.group))
            except NotFound:
                raise DecodeFailure(f"element {idx} has no discrete log below {bound}") from None
        return sums


# ---- helpers shared by the node implementations --------------------------------------


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


def _is_hex(salt: Any, node) -> bool:
    try:
        bytes.fromhex(salt)
    except (TypeError, ValueError):
        return False
    return True


# Field kind -> (test of a value on the receiving node, what the value must be),
# bounded by that node's arith and spec. The leader's tag check covers only the
# elements and members it is shown, so an aggregate's m must meet the quorum.
FIELD_KINDS = {
    "int<p>": (lambda v, node: type(v) is int and 0 <= v < node.arith.p, "an int in [0, p)"),
    "int<q>": (lambda v, node: type(v) is int and 0 <= v < node.arith.q, "an int in [0, q)"),
    "int<2^32>": (lambda v, node: type(v) is int and 0 <= v < COMMIT_RANGE, "an int in [0, 2^32)"),
    "str": (lambda v, node: type(v) is str, "a string"),
    "hex": (_is_hex, "a hex string"),
    "ints": (lambda v, node: type(v) is list and all(type(i) is int for i in v), "a list of ints"),
    "members": (lambda v, node: _is_members(v, node.spec.n), "a list of distinct participant ids"),
    "quorum": (
        lambda v, node: _is_members(v, node.spec.n) and len(v) >= node.spec.quorum,
        "a list of at least s_min distinct participant ids",
    ),
    "pairs": (_is_pairs, "a list of l pairs of ints in [0, p)"),
}


def _resolve(fields: tuple) -> tuple:
    """(field, field kind) pairs as the (field, test, text) tuples body_problem reads."""
    return tuple((name, *FIELD_KINDS[kind]) for name, kind in fields)


def body_problem(body: Any, fields: tuple, node) -> str | None:
    """Why a plaintext body is unusable on `node`, or None if each field passes."""
    if type(body) is not dict:
        return "body is not an object"
    for name, test, text in fields:
        if not test(body.get(name), node):
            return f"{name} is not {text}"
    return None


@dataclass
class _LeaderFindings:
    """What the leader knows after recover-and-verify, kept for decryption."""

    sums: list[int] | None = None  # unmasked field values
    recovered: dict[int, int] = field(default_factory=dict)  # share-loser -> rebuilt share


# ---- participant ----------------------------------------------------------------------


class ParticipantNode(Node):
    """One protocol participant: dealer, contributor, elector, potential leader."""

    def __init__(self, node_id: int, spec: RoundSpec, rng: random.Random):
        self.id = node_id
        self.spec = spec
        self.rng = rng
        self.modulus = spec.field_modulus()
        self.codec = spec.codec()
        self.arith = spec.arith()
        self.gradients: list[float] = []
        self._reset_setup()
        self.begin_round(0)

    # -- state lifecycle ---------------------------------------------------------

    def _reset_setup(self) -> None:
        self.dealer: DealerState | None = None
        # dealer -> what this holder received from it, first dealing kept: the
        # first-row evaluation V_dealer(id) as an arith value (group: unwrapped
        # to a lift) and the second-row A_dealer(id) as dealt (group: still
        # wrapped, pk_id^A_dealer(id), since only the DH power reads it)
        self.held_v: dict[int, int] = {}
        self.held_a: dict[int, int] = {}
        self.opened: set[int] = set()  # peers whose opening message is in
        self.chan_keys: dict[int, bytes] = {}  # filled by chan_key alone
        self.complete = False
        self.s_own: int | None = None
        self.s_peers: dict[int, int] = {}  # dealer -> its round-key summand
        self.dealt_key: int | None = None  # sum of all n summands, once all are in
        self.dealt_round: int | None = None
        self.own_share: int | None = None  # s_v = V(id), or G^V(id) in the group

    def begin_round(self, round_no: int) -> None:
        self.round_no = round_no
        self.has_aggregate = False
        self.agg: list[list[int]] | None = None
        self.m_set: list[int] = []
        self.failed: list[int] = []
        self.elector = False
        self.commit_value: int | None = None
        self.commit_salt: bytes | None = None
        self.commits: dict[int, str] = {}
        self.reveals: dict[int, int] = {}
        self.leader: int | None = None
        self.field_sum: list[int] | None = None
        self.plaintext: list[float] | None = None
        self.status = "working"
        self.reject_reason: str | None = None
        self.resp: dict[int, dict] = {}
        self.resp_fb: dict[int, dict] = {}
        self.verdict: bool | None = None
        self.findings = _LeaderFindings()

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
        q = self.modulus.p
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
            key = self.arith.pair_key(self.dealer, peer, self.held_a[peer])
            self.chan_keys[peer] = key
        return key

    def fallback_key(self, peer: int) -> bytes | None:
        """AEAD key from the one secret a share-loser still shares with a peer.

        That secret is the loser's first-row value V_loser(peer): a loser
        reads its own row, an intact party the copy it holds from the loser.
        """
        if self.complete:
            value = self.held_v.get(peer)
        else:
            value = self.arith.lift(self.dealer.v_poly.eval(peer))
        return None if value is None else channel_key(value, context=b"fallback")

    def _self_keys(self) -> list[int]:
        """This contributor's k_i = V_i(i) and pad key V_i(0), as arith values."""
        lift = self.arith.lift
        return [lift(self.dealer.self_key()), lift(self.dealer.masking_secret())]

    def _share_body(self, m: list[int]) -> dict:
        """What an intact holder hands the leader for contributor set m."""
        arith = self.arith
        body = {
            arith.V_FIELD: {str(i): self.held_v[i] for i in m if i in self.held_v},
            arith.SHARE_FIELD: self.own_share,
            "self": self._self_keys() if self.id in m else None,
        }
        if arith.A_FIELD:
            # the second-row evaluations that let the leader rebuild a lost s_v
            body[arith.A_FIELD] = {str(q): v for q, v in self.held_a.items()}
        return body

    # -- phase starts ---------------------------------------------------------------

    def on_phase_start(self, sim: Simulator, phase: str) -> None:
        start = getattr(self, f"_start_{phase}", None)  # nothing to do at aggregation
        if start is not None:
            start(sim)

    def _start_setup(self, sim: Simulator) -> None:
        self._reset_setup()
        self.dealer = new_dealer(self.id, self.spec.t, self.spec.n, self.modulus, self.rng)
        self.s_own = self.modulus.random_nonzero(self.rng)
        self.arith.open_setup(self, sim)

    def _start_masking(self, sim: Simulator) -> None:
        if self.dealt_key is None:
            return  # setup never brought this party every round-key summand
        values = self.codec.encode(self.gradients, self.modulus)
        wire = self.arith.mask(values, self.dealer, self.round_key(), self.round_no)
        sim.send(self.id, AGGREGATOR_ID, "submission", {"c": wire})

    def _start_verification(self, sim: Simulator) -> None:
        if not self.has_aggregate:
            return
        budget = sim.config.budgets["verification"]
        slot = budget // 5
        if self.complete:
            # intact aggregate-holders form the electorate
            self.elector = True
            self.commit_value = self.rng.randrange(COMMIT_RANGE)
            self.commit_salt = self.rng.getrandbits(64).to_bytes(8, "big")
            digest = _commitment(self.commit_value, self.commit_salt, self.id)
            self.commits[self.id] = digest
            sim.broadcast(self.id, self.peers, "commit", {"h": digest})
            sim.schedule_timer(self.id, sim.now + slot, "reveal")
        sim.schedule_timer(self.id, sim.now + 2 * slot, "tally")
        # half a slot of slack so responses sent right after the tally cannot
        # tie with (and lose to) the leader's processing timer
        sim.schedule_timer(self.id, sim.now + 3 * slot + slot // 2, "lead")

    def _start_decryption(self, sim: Simulator) -> None:
        if self.leader == self.id and self.verdict and self.status == "working":
            self._distribute(sim)

    # -- timers ----------------------------------------------------------------------

    def on_timer(self, sim: Simulator, name: str, data: Any) -> None:
        if name == "reveal":
            if self.elector and self.status == "working":
                self.reveals[self.id] = self.commit_value
                sim.broadcast(
                    self.id,
                    self.peers,
                    "reveal",
                    {"v": self.commit_value, "salt": self.commit_salt.hex()},
                )
        elif name == "tally":
            self._tally(sim)
        elif name == "lead":
            self._lead(sim)

    def _tally(self, sim: Simulator) -> None:
        if not self.has_aggregate or self.status != "working":
            return
        if not self.reveals:
            # nobody opened a valid commitment in time: the round cannot elect
            self.status = "rejected"
            self.reject_reason = "RevealTimeout"
            return
        self.leader = elect_leader(self.reveals)
        if self.leader == self.id:
            sim.broadcast(self.id, self.peers, "share_req", {"m": self.m_set})

    def _lead(self, sim: Simulator) -> None:
        if self.leader != self.id or self.status != "working":
            return
        try:
            self._recover_and_verify(sim)
        except (RecoveryQuorumFailure, VerificationFailed, DecodeFailure) as exc:
            reason = type(exc).__name__
            self.verdict = False if isinstance(exc, VerificationFailed) else None
            self.status = "rejected"
            self.reject_reason = reason
            sim.log_note("reject", by=self.id, reason=reason, detail=str(exc))
            sim.broadcast(self.id, self.peers, "reject", {"reason": reason})
            return
        self.verdict = True

    # -- message handling ---------------------------------------------------------------

    def on_message(self, sim: Simulator, env) -> None:
        entry = MESSAGE_KINDS.get(env.kind)
        if entry is None or env.round != self.round_no or entry[0] != sim.phase:
            sim.log_note("stale_message", dst=self.id, kind=env.kind, round=env.round)
            return
        _, fields, handler = entry
        if fields:
            # the check reads only the run's spec and modulus, the same at every
            # participant, so the copies of one multicast share its verdict
            slot = env.shared
            if slot is None:
                problem = body_problem(env.body, fields, self)
            elif slot.checked:
                problem = slot.problem
            else:
                problem = slot.problem = body_problem(env.body, fields, self)
                slot.checked = True
            if problem is not None:
                if env.kind == "aggregate":  # the aggregator's: it ends the round
                    sim.log_note("malformed_aggregate", dst=self.id, detail=problem)
                    self.status = "rejected"
                    self.reject_reason = "MalformedAggregate"
                else:  # dropped, as if its sender were silent
                    sim.log_note(
                        "malformed_message", dst=self.id, kind=env.kind, src=env.src,
                        detail=problem,
                    )
                return
        if handler is not None:
            handler(self, sim, env)

    # setup ........................................................................

    def _on_setup(self, sim: Simulator, env) -> None:
        """The one receive path of both variants' dealing kinds.

        The body has passed its kind's field checks. A kind the variant does
        not deal is ignored. A repeated kind keeps its first body and deals
        nothing again. A party offline when setup opened deals nothing, so it
        takes nothing either.
        """
        arith = self.arith
        role = arith.SETUP.get(env.kind)
        if role is None or self.dealer is None:
            return
        src, body = env.src, env.body
        dealt = body[MESSAGE_KINDS[env.kind][1][0][0]]  # the kind's first field
        peers = self.spec.n - 1
        if role == "first_row":
            self.held_v.setdefault(src, arith.unwrap(dealt))
            self.s_peers.setdefault(src, body["s"])
            if self.dealt_key is None and len(self.s_peers) == peers:
                # the one place the dealt key is fixed
                self.dealt_key = (self.s_own + sum(self.s_peers.values())) % self.modulus.p or 1
                self.dealt_round = self.round_no
        elif role == "second_row":
            self.held_a.setdefault(src, dealt)
        else:  # a peer's key to wrap its rows for
            arith.peer_pks.setdefault(src, dealt)
        if env.kind == arith.OPENING and src not in self.opened:
            self.opened.add(src)
            if len(self.opened) == peers:  # deal once, on the last opening
                arith.deal_second(self, sim)
        if not self.complete and len(self.held_v) == peers and len(self.held_a) == peers:
            self.complete = True
            arith.finish_setup(self)

    # masking / aggregation ..........................................................

    def _on_aggregate(self, sim: Simulator, env) -> None:
        self.agg = env.body["c"]
        self.m_set = list(env.body["m"])
        self.failed = list(env.body["failed"])
        self.has_aggregate = True

    def _on_abort(self, sim: Simulator, env) -> None:
        # an aggregator aborts only for staleness; its own text is not trusted
        self.status = "rejected"
        self.reject_reason = "StalenessTimeout"

    # verification ...................................................................

    def _on_commit(self, sim: Simulator, env) -> None:
        self.commits.setdefault(env.src, env.body["h"])

    def _on_reveal(self, sim: Simulator, env) -> None:
        expected = self.commits.get(env.src)
        if expected is None:
            return
        value = env.body["v"]
        if _revealed_commitment(value, env.body["salt"], env.src) == expected:
            self.reveals[env.src] = value
        else:
            sim.log_note("bad_reveal", voter=env.src, seen_by=self.id)

    def _on_share_req(self, sim: Simulator, env) -> None:
        if self.status != "working" or self.dealer is None:
            return
        leader = env.src
        self.leader = leader
        m = list(env.body["m"])
        if self.complete:
            body = self._share_body(m)
            sim.send(self.id, leader, "share_resp", body, key=self.chan_key(leader))
        else:
            # every received share is gone; reach the leader over the fallback
            # channel keyed from this party's own surviving first row
            body = {
                "need": self.own_share is None,
                "self": self._self_keys() if self.id in m else None,
            }
            sim.send(self.id, leader, "share_resp_fb", body, key=self.fallback_key(leader))

    def _open(self, sim: Simulator, key: bytes | None, env) -> dict | None:
        """The body of a sealed envelope, or None (logged) if it does not open."""
        try:
            if key is None:
                raise AuthFailure("no channel key for this sender")
            return secure_recv(key, env)
        except AuthFailure:
            sim.log_auth_failure(env)
            return None

    def _on_share_resp(self, sim: Simulator, env) -> None:
        if self.leader == self.id:
            fb = env.kind == "share_resp_fb"  # answered over the fallback channel
            key = self.fallback_key(env.src) if fb else self.chan_key(env.src)
            body = self._open(sim, key, env)
            if body is not None:
                (self.resp_fb if fb else self.resp)[env.src] = body

    def _on_reject(self, sim: Simulator, env) -> None:
        if env.src == self.leader:
            self.status = "rejected"
            self.reject_reason = env.body["reason"]

    # decryption .....................................................................

    def _on_result(self, sim: Simulator, env) -> None:
        if self.leader is None:
            return
        key = self.chan_key(env.src) if self.complete else self.fallback_key(env.src)
        body = self._open(sim, key, env)
        if body is None:
            return
        self.own_share = body.get("recovered", self.own_share)
        self.field_sum = list(body["sum"])
        self.plaintext = self.codec.decode(self.field_sum, self.modulus, len(body["m"]))
        self.status = "done"

    def _on_round_done(self, sim: Simulator, env) -> None:
        if env.secured:
            body = self._open(sim, self.fallback_key(env.src), env)
            if body is None:
                return
            self.own_share = body.get("recovered", self.own_share)
        self.status = "done"

    # -- leader: recovery, verification, decryption ------------------------------------

    def _recover_and_verify(self, sim: Simulator) -> None:
        arith = self.arith
        t = self.spec.t
        m = sorted(self.m_set)
        # pool the holdings this leader can see: its own, in the form an
        # intact holder sends them, plus each response
        bodies = {self.id: self._share_body(m), **self.resp}
        held_v = {
            src: {int(i): v for i, v in body[arith.V_FIELD].items()}
            for src, body in bodies.items()
        }
        shares = {
            src: body[arith.SHARE_FIELD]
            for src, body in bodies.items()
            if body.get(arith.SHARE_FIELD) is not None
        }
        self_kv = {
            src: body["self"]
            for src, body in {**bodies, **self.resp_fb}.items()
            if body.get("self") is not None
        }
        need_recovery = sorted(src for src, body in self.resp_fb.items() if body.get("need"))

        # contributor keys: online members vouch for themselves; anyone silent
        # now is rebuilt from t first-row evaluations
        k_map: dict[int, int] = {}
        v0_map: dict[int, int] = {}
        for i in m:
            if i in self_kv:
                k_map[i], v0_map[i] = self_kv[i]
                continue
            pts = [(j, held_v[j][i]) for j in sorted(held_v) if i in held_v[j]]
            if len(pts) < t:
                raise RecoveryQuorumFailure(
                    f"contributor {i}: {len(pts)} evaluations held, need {t}"
                )
            k_map[i] = arith.interpolate(pts[:t], i, t)
            v0_map[i] = arith.interpolate(pts[:t], 0, t)
            sim.log_note(
                "recover",
                what="contributor_keys",
                target=i,
                helpers=[j for j, _ in pts[:t]],
            )

        # share-losers: rebuild their share from t helpers
        for q in need_recovery:
            value, helpers = arith.recover_lost(q, bodies, shares, t)
            self.findings.recovered[q] = value
            sim.log_note("recover", what="lost_share", target=q, helpers=helpers)

        k = arith.combine(k_map[i] for i in m)
        if not arith.verify(self.agg, k, self.round_key(), self.round_no):
            raise VerificationFailed("aggregate failed the tag check")

        if set(m) == set(self.spec.participant_ids) and len(shares) >= t:
            # full attendance: the pad is V(0), one interpolation instead of |M|
            pad = arith.interpolate([(j, shares[j]) for j in sorted(shares)[:t]], 0, t)
        else:
            pad = arith.combine(v0_map[i] for i in m)
        self.findings.sums = arith.unmask(self.agg, pad, self.round_no, len(m))

    def _distribute(self, sim: Simulator) -> None:
        m = sorted(self.m_set)
        sums = self.findings.sums
        # one result body for every member without a recovered share, encoded
        # once and sealed for each under its own key
        shared = {"sum": sums, "m": m, "failed": sorted(self.failed)}
        with sim.shared_body(shared):
            for u in self.peers:
                if not sim.is_online(u):
                    continue
                recovered = self.findings.recovered.get(u)
                if u in m:
                    kind, body = "result", shared
                    key = self.fallback_key(u) if u in self.resp_fb else self.chan_key(u)
                elif recovered is not None:
                    # a share-loser outside M still gets its share back, privately
                    kind, body = "round_done", {"verified": True}
                    key = self.fallback_key(u)
                else:
                    sim.send(self.id, u, "round_done", {"verified": True})
                    continue
                if recovered is not None:
                    body = {**body, "recovered": recovered}
                if key is None:
                    sim.log_note("undeliverable", dst=u)
                    continue
                sim.send(self.id, u, kind, body, key=key)
        if self.id in m:
            self.field_sum = list(sums)
            self.plaintext = self.codec.decode(sums, self.modulus, len(m))
        self.status = "done"


# Every message kind: the one phase window it is meaningful in (anything that
# straggles across a boundary, or arrives for the wrong round, is ignored),
# the (field, field kind) pairs its plaintext body must pass, dealt value
# first, and the participant handler it is dispatched to. on_message checks
# the fields once per multicast body and once per point-to-point copy; a
# failed aggregate rejects the round, any other failed body counts as
# silence. No fields: sealed kinds are checked by opening them, and
# round_done's handler reads only its sealed form.
MESSAGE_KINDS = {
    "setup1": ("setup", (("v", "int<p>"), ("s", "int<q>")), ParticipantNode._on_setup),
    "setup2": ("setup", (("a", "int<p>"),), ParticipantNode._on_setup),
    "pk": ("setup", (("pk", "int<p>"),), ParticipantNode._on_setup),
    "gsetup1": ("setup", (("w", "int<p>"), ("s", "int<q>")), ParticipantNode._on_setup),
    "gsetup2": ("setup", (("w", "int<p>"),), ParticipantNode._on_setup),
    "submission": ("masking", (("c", "pairs"),), None),
    "aggregate": (
        "aggregation",
        (("m", "quorum"), ("failed", "ints"), ("c", "pairs")),
        ParticipantNode._on_aggregate,
    ),
    "abort": ("aggregation", (("reason", "str"),), ParticipantNode._on_abort),
    "commit": ("verification", (("h", "str"),), ParticipantNode._on_commit),
    "reveal": ("verification", (("v", "int<2^32>"), ("salt", "hex")), ParticipantNode._on_reveal),
    "share_req": ("verification", (("m", "members"),), ParticipantNode._on_share_req),
    "share_resp": ("verification", (), ParticipantNode._on_share_resp),
    "share_resp_fb": ("verification", (), ParticipantNode._on_share_resp),
    "reject": ("verification", (("reason", "str"),), ParticipantNode._on_reject),
    "result": ("decryption", (), ParticipantNode._on_result),
    "round_done": ("decryption", (), ParticipantNode._on_round_done),
}
# resolved once, so a body's check is one loop over (field, test, text)
MESSAGE_KINDS = {
    kind: (phase, _resolve(fields), handler)
    for kind, (phase, fields, handler) in MESSAGE_KINDS.items()
}


# ---- aggregator -------------------------------------------------------------------------


class AggregatorNode(Node):
    """Untrusted collector: sums submissions, optionally tampers, never verifies."""

    def __init__(self, spec: RoundSpec, rng: random.Random):
        self.id = AGGREGATOR_ID
        self.spec = spec
        self.rng = rng
        self.arith = spec.arith()
        self.begin_round(0)

    def begin_round(self, round_no: int) -> None:
        self.round_no = round_no
        self.received: dict[int, list[list[int]]] = {}
        self.aborted = False
        self.m: list[int] = []
        self.failed: list[int] = []

    def on_message(self, sim: Simulator, env) -> None:
        if env.kind != "submission" or env.round != self.round_no:
            return
        # a submission the sum cannot take is left out of M, like a silent one
        problem = body_problem(env.body, MESSAGE_KINDS["submission"][1], self)
        if problem is not None:
            sim.log_note("malformed_submission", src=env.src, detail=problem)
            return
        self.received[env.src] = env.body["c"]

    def on_phase_start(self, sim: Simulator, phase: str) -> None:
        if phase != "aggregation":
            return
        spec = self.spec
        if len(self.received) < spec.quorum:
            self.aborted = True
            sim.log_note(
                "staleness", have=sorted(self.received), need=spec.quorum
            )
            sim.broadcast(
                self.id,
                spec.participant_ids,
                "abort",
                {"reason": "StalenessTimeout"},
            )
            return
        self.m = sorted(self.received)
        self.failed = sorted(set(spec.participant_ids) - set(self.m))
        agg = self.arith.aggregate([self.received[i] for i in self.m])
        body = self._tamper({"m": self.m, "failed": self.failed, "c": agg})
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
            q = arith.q
            body["c"] = [
                [arith.lift(self.rng.randrange(q)), arith.lift(self.rng.randrange(q))]
                for _ in agg
            ]
        elif policy == "truncate":
            del agg[-1]
        elif policy == "duplicate_member":
            body["m"] = self.m + self.m[:1]
        elif policy == "malformed":
            agg[0][0] = str(agg[0][0])
        return body


# ---- scenario runner ----------------------------------------------------------------------


def run_rounds(spec: RoundSpec | dict, sim_config: SimConfig | None = None) -> ScenarioResult:
    """Drive `spec.rounds` full protocol rounds and report what happened.

    Any phase barrier can end a round early: too few intact bundles after
    setup, too few submissions at aggregation, no electorate, a failed tag
    check, or a recovery quorum shortfall. A failed round is reported as
    rejected — never raised — so multi-round scenarios keep going.
    """
    if isinstance(spec, dict):
        doc = spec
        spec = RoundSpec.from_dict(doc)
        if sim_config is None:
            sim_config = SimConfig.from_dict(doc)
    spec.validate()
    if sim_config is None:
        sim_config = SimConfig(n=spec.n)
    if sim_config.n != spec.n:
        raise ConfigError(f"sim config n={sim_config.n} != round spec n={spec.n}")
    sim = Simulator(sim_config)
    # a fault due at or past its phase's end would fire in a later phase, or never
    if any(f.offset >= sim_config.budgets[f.phase] for f in sim_config.faults):
        raise ConfigError("fault offset must be below the phase budget")
    aggregator = AggregatorNode(spec, sim.node_rng(AGGREGATOR_ID))
    sim.add_node(aggregator)
    participants: dict[int, ParticipantNode] = {}
    inputs: dict[int, list[float]] = {}
    codec = spec.codec()
    for i in spec.participant_ids:
        node = ParticipantNode(i, spec, sim.node_rng(i))
        if spec.gradients is not None:
            node.gradients = list(spec.gradients[i - 1])
        else:
            grad_rng = random.Random(derive_seed(sim_config.seed, "grad", i))
            node.gradients = [
                grad_rng.uniform(-codec.clip_bound, codec.clip_bound)
                for _ in range(spec.length)
            ]
        inputs[i] = list(node.gradients)
        participants[i] = node
        sim.add_node(node)

    states: list[RoundState] = []
    for r in range(spec.rounds):
        aggregator.begin_round(r)
        for node in participants.values():
            node.begin_round(r)
        state = RoundState(round=r)
        # rounds after the first may reuse the dealt state and derive the key
        phases = PHASES[1:] if aggregator.arith.reuses_setup and r > 0 else PHASES
        for phase in phases:
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
                state.failed = list(aggregator.failed)
                state.u_set = sorted(
                    i for i, n in participants.items() if n.has_aggregate
                )
            elif phase == "verification":
                # A fault can split the electorate's view (a dropper counts its
                # own vanished reveal), so several nodes may claim leadership.
                # The round stands iff some claimed leader finished with a True
                # verdict; local failures of phantom leaders don't veto it.
                claims = Counter(
                    n.leader for n in participants.values() if n.leader is not None
                )
                candidates = sorted(claims, key=lambda c: (-claims[c], c))
                winner = next(
                    (c for c in candidates if participants[c].verdict is True), None
                )
                if winner is not None:
                    state.leader = winner
                    state.verified = True
                else:
                    state.leader = candidates[0] if candidates else None
                    leader = participants.get(state.leader)
                    if leader is not None and leader.reject_reason is not None:
                        state.error = leader.reject_reason
                    else:
                        reasons = {n.reject_reason for n in participants.values()}
                        # no reason at all: the elected leader went silent before finishing
                        state.error = min(reasons - {None}, default="BudgetExhausted")
                    if state.error == "VerificationFailed":
                        state.verified = False
                    break
            elif phase == "decryption":
                leader = participants[state.leader]
                modulus = spec.field_modulus()
                state.field_sum = list(leader.findings.sums)
                state.decrypted = codec.decode(state.field_sum, modulus, len(state.m_set))
                state.recovered = sorted(leader.findings.recovered)
        # only setup sets or clears `complete`, so this is the post-setup T
        state.t_set = sorted(i for i, n in participants.items() if n.complete)
        state.delivered_to = sorted(
            i for i, n in participants.items() if n.plaintext is not None
        )
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
