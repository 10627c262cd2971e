"""Threshold secret sharing: direct bivariate dealing and the two-step scheme.

The direct scheme hands every recipient a full row polynomial of a symmetric
bivariate polynomial (t field elements per recipient). The two-step scheme
gets the same threshold guarantees by dealing one evaluation per recipient in
each of two rounds: first everyone shares a random V_i, then everyone shares
the accumulated value s_v_i = sum_j V_j(i) through a second polynomial A_i
with A_i(0) = s_v_i. Any lost s_v_q can later be rebuilt from t received
A_q(j) values, and pairwise channel keys fall out of the A polynomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import PrimeModulus, SymBivarPoly, UniPoly, lagrange_at_zero
from .errors import (
    InsufficientShares,
    MissingShare,
    MissingStep1Share,
    ThresholdTooLarge,
)

__all__ = [
    "DealerState",
    "deal_direct",
    "new_dealer",
    "step1_messages",
    "accumulate_sv",
    "step2_messages",
    "reconstruct_secret",
    "recover_lost_share",
    "pairwise_key",
]


@dataclass
class DealerState:
    """A participant's own dealing material for one round."""

    id: int
    t: int
    v_poly: UniPoly
    # the second row A_i: scalar A_i(0) = s_v_i; in the group variant it only
    # feeds the pairwise DH keys, so its A_i(0) is free (drawn at random)
    a_poly: UniPoly | None = None
    s_v: int | None = None

    def masking_secret(self) -> int:
        """V_i(0), the one-time masking key this dealer keeps to itself."""
        return self.v_poly.constant_term()

    def self_key(self) -> int:
        """k_i = V_i(i), the per-dealer verification key share."""
        return self.v_poly.eval(self.id)


# ---- direct bivariate dealing -------------------------------------------------

def deal_direct(
    f: SymBivarPoly, recipient_ids: list[int]
) -> dict[int, UniPoly]:
    """Deal rows F(x, j) of a symmetric bivariate polynomial.

    Each recipient gets t coefficients; total traffic is len(recipients) * t
    field elements per dealer.
    """
    if any(j == 0 for j in recipient_ids):
        raise ValueError("id 0 is reserved (the secret lives at x=0)")
    if len(set(recipient_ids)) != len(recipient_ids):
        raise ValueError("duplicate recipient ids")
    return {j: f.row(j) for j in recipient_ids}


# ---- two-step dealing -----------------------------------------------------------

def new_dealer(
    dealer_id: int,
    t: int,
    n: int,
    modulus: PrimeModulus,
    rng: random.Random,
) -> DealerState:
    """Draw the first-round polynomial V_i. The constant term V_i(0) is the
    dealer's private masking key."""
    if dealer_id < 1:
        raise ValueError("participant ids start at 1")
    if t < 1:
        raise ValueError("threshold must be >= 1")
    if t > n:
        raise ThresholdTooLarge(f"t={t} exceeds n={n}")
    v = UniPoly.random(t - 1, modulus, rng)
    return DealerState(id=dealer_id, t=t, v_poly=v)


def step1_messages(state: DealerState, recipient_ids: list[int]) -> dict[int, int]:
    """First dealing round: V_i(j) for every other participant j."""
    return {j: state.v_poly.eval(j) for j in recipient_ids if j != state.id}


def accumulate_sv(
    state: DealerState,
    received_v: dict[int, int],
    participant_ids: list[int],
) -> int:
    """Fix s_v_i = sum over all dealers j of V_j(i).

    Every first-round share must be present (including the dealer's own
    V_i(i), inserted here); the second round cannot start before this sum is
    final, or A_i(0) would disagree with V(i).
    """
    values = dict(received_v)
    values[state.id] = state.v_poly.eval(state.id)
    missing = [j for j in participant_ids if j not in values]
    if missing:
        raise MissingStep1Share(f"missing first-round shares from {missing}")
    members = set(participant_ids)
    total = sum(v for j, v in values.items() if j in members)
    state.s_v = total % state.v_poly.modulus.p
    return state.s_v


def step2_messages(
    state: DealerState,
    recipient_ids: list[int],
    rng: random.Random,
) -> dict[int, int]:
    """Second dealing round: draw A_i with A_i(0) = s_v_i and deal A_i(j)."""
    if state.s_v is None:
        raise MissingStep1Share("accumulate_sv must run before the second round")
    state.a_poly = UniPoly.random(state.t - 1, state.v_poly.modulus, rng, constant=state.s_v)
    return {j: state.a_poly.eval(j) for j in recipient_ids if j != state.id}


# ---- reconstruction and recovery ------------------------------------------------

def reconstruct_secret(shares: dict[int, int], t: int, p: int) -> int:
    """Interpolate the constant term from t shares keyed by participant id."""
    if len(shares) < t:
        raise InsufficientShares(f"need {t} shares, got {len(shares)}")
    return lagrange_at_zero([(j, shares[j]) for j in sorted(shares)], t, p)


def recover_lost_share(
    lost_id: int, helper_shares: dict[int, int], t: int, p: int
) -> int:
    """Rebuild s_v_q = V(q) = A_q(0) from t received evaluations A_q(j).

    The helpers are participants j that received A_q(j) from dealer q during
    Setup; q itself contributes nothing here.
    """
    if lost_id in helper_shares:
        raise ValueError("the losing participant cannot help recover itself")
    return reconstruct_secret(helper_shares, t, p)


# ---- pairwise channel keys -------------------------------------------------------

def pairwise_key(
    own: DealerState, peer_id: int, received_a_from_peer: int | None
) -> int:
    """k_ij = A_i(j) + A_j(i): symmetric, derivable by both ends after Setup."""
    if own.a_poly is None:
        raise MissingStep1Share("second dealing round has not run")
    if received_a_from_peer is None:
        raise MissingShare(f"no A share from {peer_id} was received")
    return (own.a_poly.eval(peer_id) + received_a_from_peer) % own.a_poly.modulus.p
