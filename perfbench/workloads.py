"""Benchmark workloads: seeded job generation and the output checker.

A job is one `secel.run_rounds` call. Its inputs (gradients, fault schedule,
tamper policy and the simulator seed) come only from the workload seed and
the job index, so the same seed always yields the same jobs.

The checker recomputes every expected sum from the generated gradients with
its own fixed-point encoding, so it does not trust the program's codec.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from secel import DEFAULT_GROUP, Fault, RoundSpec, SimConfig

CLIP = 8.0
SCALAR_SCALE_BITS = 16
GROUP_SCALE_BITS = 10
TAMPER_CYCLE = ("flip_element", "substitute_all", "inject_offset")
TAMPER_EVERY = 8  # crowd_faults tampers jobs 7, 15, 23, ...


@dataclass(frozen=True)
class Job:
    index: int
    spec: RoundSpec
    sim_config: SimConfig
    silent: frozenset[int]  # parties that send nothing in masking

    @property
    def tampered(self) -> bool:
        return self.spec.tamper != "honest"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str
    predictions: tuple[str, ...]
    dominant: tuple[str, ...]  # layers predicted to take the most traced time
    reference: str  # reference.KERNELS entry closest to the dominant work
    count_jobs: int  # jobs in the untimed count pass
    build: Callable[[random.Random, int], Job]

    def job(self, seed: int, index: int) -> Job:
        return self.build(job_rng(self.name, seed, index), index)


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    tag = f"perfbench/{workload}/{seed}/{index}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(tag).digest()[:8], "big"))


def _gradients(rng: random.Random, n: int, length: int) -> list[list[float]]:
    return [[rng.uniform(-CLIP, CLIP) for _ in range(length)] for _ in range(n)]


def _sim(rng: random.Random, n: int, faults=()) -> SimConfig:
    return SimConfig(seed=rng.getrandbits(63), n=n, faults=list(faults))


def _wide_scalar(rng: random.Random, index: int) -> Job:
    n, length = 10, 1024
    spec = RoundSpec(
        n=n, t=4, length=length, gradients=_gradients(rng, n, length),
        scale_bits=SCALAR_SCALE_BITS, clip_bound=CLIP,
    )
    return Job(index, spec, _sim(rng, n), frozenset())


def _crowd_faults(rng: random.Random, index: int) -> Job:
    n, length = 30, 64
    picked = rng.sample(range(1, n + 1), 5)
    loss, gone, dropper = picked[:2], picked[2:4], picked[4]
    faults = [Fault(i, "masking", "disconnect") for i in gone]
    faults.append(Fault(dropper, "masking", "drop_outbound"))
    tamper = "honest"
    if index % TAMPER_EVERY == TAMPER_EVERY - 1:
        tamper = TAMPER_CYCLE[(index // TAMPER_EVERY) % len(TAMPER_CYCLE)]
    spec = RoundSpec(
        n=n, t=10, s_min=24, length=length, tamper=tamper,
        share_loss=tuple(sorted(loss)), gradients=_gradients(rng, n, length),
        scale_bits=SCALAR_SCALE_BITS, clip_bound=CLIP,
    )
    return Job(index, spec, _sim(rng, n, faults), frozenset(gone) | {dropper})


def _group_reuse(rng: random.Random, index: int) -> Job:
    n, length = 10, 64
    spec = RoundSpec(
        n=n, t=4, length=length, rounds=6, variant="group", group=DEFAULT_GROUP,
        gradients=_gradients(rng, n, length),
        scale_bits=GROUP_SCALE_BITS, clip_bound=CLIP,
    )
    return Job(index, spec, _sim(rng, n), frozenset())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide_scalar",
            why="long vectors, few parties: per-element masking, digest and "
            "aggregation work dominates while dealing stays small",
            shape="scalar default prime, n=10 t=4 l=1024, 1 round per job, "
            "honest, no faults (~400 envelopes per round)",
            predictions=(
                "maskmac.* -> round_p50_ms, elems_per_s",
                "simnet.transcript -> round_p50_ms",
                "protocol.aggregator -> round_p50_ms",
                "group_variant.* -> no change",
            ),
            dominant=("maskmac", "protocol.aggregator"),
            reference="interpreter",
            count_jobs=2,
            build=_wide_scalar,
        ),
        Workload(
            name="crowd_faults",
            why="many parties, short vectors, dropouts, share loss and tampering: "
            "message passing, dealing, recovery and rejection dominate",
            shape="scalar default prime, n=30 t=10 s_min=24 l=64, 1 round per job; "
            "2 share-loss, 2 disconnect and 1 drop_outbound party per job; "
            "every 8th job tampered (flip_element, substitute_all, inject_offset)",
            predictions=(
                "simnet.* -> round_p50_ms, round_p90_ms, rounds_per_s",
                "sharing.* -> round_p50_ms",
                "algebra.lagrange -> round_p90_ms",
                "protocol.participant -> round_p50_ms",
            ),
            dominant=("simnet",),
            reference="interpreter",
            count_jobs=8,
            build=_crowd_faults,
        ),
        Workload(
            name="group_reuse",
            why="exponent-carried variant on the 256-bit group: modular "
            "exponentiation dominates and one dealing serves six rounds",
            shape="group variant on DEFAULT_GROUP, n=10 t=4 l=64, 6 rounds per job "
            "(one dealing, then 5 key refreshes), honest, no faults",
            predictions=(
                "group_variant.* -> round_p50_ms, rounds_per_s",
                "sharing.* -> setup_s, round_p50_ms",
                "maskmac.* -> no change",
            ),
            dominant=("group_variant",),
            reference="bignum",
            count_jobs=1,
            build=_group_reuse,
        ),
    )
}


# ---- output checker --------------------------------------------------------------


def encode(x: float, group: bool) -> int:
    """The fixed-point encoding the workloads ask for, computed independently."""
    clipped = min(max(x, -CLIP), CLIP)
    if group:
        return round((clipped + CLIP) * (1 << GROUP_SCALE_BITS))
    return round(clipped * (1 << SCALAR_SCALE_BITS))


def expected_sum(job: Job, members: list[int]) -> list[int]:
    """Sum over `members` of the encoded inputs, mod the field order."""
    spec = job.spec
    group = spec.variant == "group"
    order = spec.group.q if group else spec.prime
    columns = zip(*(spec.gradients[i - 1] for i in members))
    return [sum(encode(x, group) for x in col) % order for col in columns]


def round_problem(job: Job, state) -> str | None:
    """Why one round's outcome is wrong for its job, or None if it is right."""
    if job.tampered:
        if state.phase == "rejected" and state.error == "VerificationFailed" and not state.verified:
            return None
        return (
            f"tampered ({job.spec.tamper}) round ended {state.phase} "
            f"error={state.error} verified={state.verified}"
        )
    if state.phase != "done" or not state.verified:
        return f"honest round ended {state.phase} error={state.error}"
    members = sorted(set(job.spec.participant_ids) - job.silent)
    if state.m_set != members:
        return f"contributor set {state.m_set} != expected {members}"
    if state.field_sum != expected_sum(job, members):
        return "field_sum differs from the sum of encoded inputs"
    return None


def job_problems(job: Job, result) -> list[str]:
    """Problems over a finished job; one entry per wrong or missing round."""
    problems = [p for s in result.rounds if (p := round_problem(job, s)) is not None]
    missing = job.spec.rounds - len(result.rounds)
    problems.extend(["round missing from the result"] * max(missing, 0))
    return problems
