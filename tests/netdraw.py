"""Drawn networks for property tests: scenario documents, link delays, and the
safety oracle.

A property over a drawn network draws the whole scenario document (sizes,
threshold, quorum, rounds, faults, share-losers, variant and, for the scalar
variant, the prime) and the delay of every envelope, so hypothesis shrinks a
failure to a small network rather than to a seed. The delays come from a
`random.Random` drawn with `st.randoms()`, swapped in for the one
`Simulator.send` draws them from; production code gains no hook for it.

The safety oracle is what `run_rounds` promises on any network: it never
raises, and each round ends either `done` with the exact field sum over the
round's M and every decoded element within ±|M| * clip, or rejected with a
named reason. M is read from each round's `RoundState`: a node's copy is reset
when the next round begins.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from collections.abc import Iterator
from unittest import mock

from hypothesis import strategies as st

from secel.algebra import DEFAULT_PRIME, MERSENNE_61
from secel.protocol import VARIANTS, ScenarioResult, run_rounds
from secel.simnet import DEFAULT_BUDGETS, FAULT_ACTIONS, PHASES, Simulator

# a scalar network's field: the default, a small one, and one past 512 bits
PRIMES = (DEFAULT_PRIME, MERSENNE_61, 2**1279 - 1)
MAX_OFFSET = min(DEFAULT_BUDGETS.values()) - 1  # a fault fires inside its phase

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


def faults(n: int) -> st.SearchStrategy[dict]:
    """One fault of any participant, at any phase, action and offset."""
    return st.fixed_dictionaries({
        "id": st.integers(1, n),
        "phase": st.sampled_from(PHASES),
        "action": st.sampled_from(FAULT_ACTIONS),
        "offset": st.integers(0, MAX_OFFSET),
    })


@st.composite
def documents(draw) -> dict:
    """A `run_rounds` document: n 3-7, t 2..n, s_min t-1..n, 1-2 rounds, up to
    three faults and up to two share-losers, in either variant."""
    n = draw(st.integers(3, 7))
    t = draw(st.integers(2, n))
    variant = draw(st.sampled_from(VARIANTS))
    doc = {
        "seed": draw(st.integers(0, 2**16)),
        "n": n,
        "t": t,
        "l": draw(st.integers(1, 3)),
        "s_min": draw(st.integers(t - 1, n)),
        "rounds": draw(st.integers(1, 2)),
        "variant": variant,
        "share_loss": draw(st.lists(st.integers(1, n), unique=True, max_size=2)),
        "faults": draw(st.lists(faults(n), max_size=3)),
    }
    if variant == "scalar":
        doc["prime"] = draw(st.sampled_from(PRIMES))
    return doc


@contextmanager
def delays_from(rng: random.Random | None) -> Iterator[None]:
    """Every Simulator built inside the block draws its link delays from
    `rng`; None leaves each the seeded generator of its own."""
    if rng is None:
        yield
        return
    init = Simulator.__init__

    def drawn(sim, config):
        init(sim, config)
        sim._getrandbits = rng.getrandbits

    with mock.patch.object(Simulator, "__init__", drawn):
        yield


def field_sum_oracle(result: ScenarioResult, members) -> list[int]:
    """Independently recompute the expected field sums from the raw inputs."""
    spec = result.spec
    codec = spec.codec()
    modulus = spec.field_modulus()
    total = [0] * spec.length
    for i in members:
        for j, e in enumerate(codec.encode(result.inputs[i], modulus)):
            total[j] = (total[j] + e) % modulus.p
    return total


def safety_problems(result: ScenarioResult) -> list[str]:
    """How the rounds of a run break the safety oracle; [] if none does."""
    problems = []
    for r in result.rounds:
        if r.phase == "done":
            if not r.verified or r.field_sum != field_sum_oracle(result, r.m_set):
                problems.append(f"round {r.round} done without the exact sum over {r.m_set}")
            bound = len(r.m_set) * result.spec.clip_bound
            if any(abs(x) > bound for x in r.decrypted):
                problems.append(f"round {r.round} decoded an element outside ±{bound}")
        elif r.phase != "rejected" or r.error not in NAMED_REJECTIONS:
            problems.append(f"round {r.round} ended {r.phase} with error {r.error!r}")
    return problems


def run_safely(doc: dict, delays: random.Random | None = None) -> ScenarioResult:
    """Run `doc` over `delays` and assert the safety oracle on every round."""
    with delays_from(delays):
        result = run_rounds(doc)
    assert safety_problems(result) == []
    return result
