"""End-to-end round benchmark for secel, with a separate traced run per layer.

    python3 perfbench/run.py --workload wide_scalar --seed 1 --seconds 30 --trace 0

One process, one closed-loop caller: each job is one `secel.run_rounds` call,
and the next job is built only after the previous one has returned and been
checked. No job runs concurrently with another.

--trace 0 reports the end-to-end metrics. The only hook is a clock read at
each `Simulator.run_phase` boundary. `setup_s` is the median over this
process and SETUP_PROBES more fresh processes, started one after another
before the timed loop, of the time from before `import secel` to the end of
the warm-up job (job 0).

--trace 1 reports the per-layer metrics. It runs an untraced window and then a
traced window, each for half the seconds, then an untimed count pass over the
transcripts of the workload's first jobs. Spans are written to perfbench/out/.

Every reported time is scaled to one nominal machine speed by the reference
kernel in reference.py, timed between jobs; the unscaled figures are printed
too. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `attempted` and `failed` count
rounds; a round fails when its outcome differs from the expected one
(workloads.round_problem) or when run_rounds raises. Every line before it is
informational.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import KERNELS, REFERENCE_MS, reference_ms
from tracing import PHASES, Patches, PayloadBytes, RoundClock, Tracer, transcript_counts, transcript_sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
REFERENCE_SHARE = 0.1

END_TO_END = {
    "round_p50_ms": "ms",
    "round_p90_ms": "ms",
    "rounds_per_s": "1/s",
    "elems_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

MASKMAC_FNS = ("mask_vector", "aggregate_vectors", "verify_vector", "unmask_vector")
GROUP_FNS = (
    "group_mask_vector", "group_aggregate", "group_verify", "group_unmask", "bsgs",
    "wrap_share", "unwrap_share", "exp_lagrange_at", "exp_lagrange_at_zero",
)
SHARING_FNS = (
    "new_dealer", "step1_messages", "accumulate_sv", "step2_messages",
    "recover_lost_share", "pairwise_key",
)
PARTICIPANT_HANDLERS = ("on_message", "on_phase_start", "on_timer")
AGGREGATOR_HANDLERS = ("on_message", "on_phase_start")
LAYERS = ("maskmac", "group_variant", "sharing", "algebra", "simnet",
          "protocol.participant", "protocol.aggregator")



def _unit(name: str) -> str:
    for suffix, unit in (("ms_per_round", "ms"), ("ns_per_elem", "ns"),
                         ("bytes_per_round", "B"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


PER_LAYER = {name: _unit(name) for name in (
    [f"maskmac.{fn}.ms_per_round" for fn in MASKMAC_FNS]
    + ["maskmac.ns_per_elem"]
    + [f"group_variant.{fn}.ms_per_round" for fn in GROUP_FNS]
    + ["group_variant.bsgs.calls_per_round"]
    + [f"sharing.{fn}.ms_per_round" for fn in SHARING_FNS]
    + ["sharing.dealt_msgs_per_setup"]
    + ["algebra.lagrange.calls_per_round", "algebra.lagrange.ms_per_round"]
    + [f"simnet.phase.{p}.ms_per_round" for p in PHASES]
    + ["simnet.send.self_ms_per_round", "simnet.transcript.ms_per_round",
       "simnet.aead.ms_per_round", "simnet.msgs_per_round",
       "simnet.payload_bytes_per_round", "simnet.drops_per_round",
       "simnet.auth_fail_per_round", "simnet.delivered_frac"]
    + ["protocol.participant.self_ms_per_round", "protocol.aggregator.self_ms_per_round",
       "protocol.recoveries_per_round", "protocol.handler_calls_per_round"]
    + ["trace.overhead_frac"]
)}


def tail_percentile(values: list[float], want: int = 90, beyond: int = 10) -> tuple[float, int]:
    """Nearest-rank percentile `want`, lowered until `beyond` samples lie above it.

    Returns the value and the percentile used.
    """
    xs = sorted(values)
    n = len(xs)
    p = want
    while p > 50 and n - math.ceil(p * n / 100) < beyond:
        p -= 1
    return xs[max(1, math.ceil(p * n / 100)) - 1], p


@dataclass
class Tally:
    """What a set of checked jobs produced. Times are scaled to the nominal
    machine speed (see reference.py) unless named raw."""

    round_ms: list[float] = field(default_factory=list)
    raw_round_ms: list[float] = field(default_factory=list)
    jobs: list[tuple[float, int, int]] = field(default_factory=list)  # wall s, final rounds, verified elems
    scales: list[float] = field(default_factory=list)
    rounds: int = 0  # RoundStates returned
    member_elems: int = 0  # sum of |M| * l over rounds that formed M
    recovered: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, job, result) -> None:
        from workloads import job_problems

        self.rounds += len(result.rounds)
        self.member_elems += sum(len(s.m_set) for s in result.rounds) * job.spec.length
        self.recovered += sum(len(s.recovered) for s in result.rounds)
        problems = job_problems(job, result)
        self.attempted += job.spec.rounds
        self.failed += len(problems)
        self.problems.extend(f"job {job.index}: {p}" for p in problems)

    def error(self, job, exc: Exception) -> None:
        self.attempted += job.spec.rounds
        self.failed += job.spec.rounds
        self.problems.append(f"job {job.index}: run_rounds raised {type(exc).__name__}: {exc}")

    def merge(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def run_job(workload, seed: int, index: int, tally: Tally, on_built=None):
    """Build, run and check one job. Returns the result (None if run_rounds
    raised) and the wall time of building and running it."""
    from secel import run_rounds

    start = time.perf_counter()
    job = workload.job(seed, index)
    if on_built is not None:
        on_built(job)
    try:
        result = run_rounds(job.spec, job.sim_config)
    except Exception as exc:  # a raised round is an error to report, not to stop on
        wall = time.perf_counter() - start
        tally.error(job, exc)
        return None, wall
    wall = time.perf_counter() - start
    tally.check(job, result)
    return result, wall


def closed_loop(workload, seed: int, seconds: float, first: int, tracer=None) -> tuple[Tally, int]:
    """Jobs first, first+1, ... until `seconds` have passed; returns the next index.

    The reference kernel runs between jobs, outside the timed part, for
    REFERENCE_SHARE of the last job's wall time; each job is scaled by the
    mean kernel time just before and just after it.
    """
    tally = Tally()
    clock = RoundClock()
    patches = Patches()
    clock.install(patches)

    def on_built(job):
        clock.begin_job()
        if tracer is not None:
            tracer.job_id = job.index

    kernel = KERNELS[workload.reference]
    try:
        index = first
        deadline = time.perf_counter() + seconds
        before = reference_ms(kernel)
        while True:
            result, wall = run_job(workload, seed, index, tally, on_built)
            after = reference_ms(kernel, REFERENCE_SHARE * wall)
            scale = REFERENCE_MS / ((before + after) / 2)
            before = after
            tally.scales.append(scale)
            final = verified = 0
            if result is not None:
                raw = clock.round_ms()
                tally.raw_round_ms.extend(raw)
                tally.round_ms.extend(ms * scale for ms in raw)
                final = sum(s.phase in ("done", "rejected") for s in result.rounds)
                verified = sum(len(s.m_set) for s in result.rounds if s.verified)
                verified *= result.spec.length
            tally.jobs.append((wall * scale, final, verified))
            index += 1
            if time.perf_counter() >= deadline:
                return tally, index
    finally:
        patches.uninstall()


def setup_probe(workload: str, seed: int) -> float:
    """setup_s measured in a fresh process; waits for it to exit."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def count_pass(workload, seed: int, tally: Tally) -> dict:
    """Untimed pass over jobs 0..count_jobs-1: per-phase transcript counts.
    Its jobs are checked into `tally`."""
    sizes = PayloadBytes()
    patches = Patches()
    sizes.install(patches)
    per: dict = {}
    try:
        for index in range(workload.count_jobs):
            sizes.reset()
            result, _ = run_job(workload, seed, index, tally)
            if result is not None:
                transcript_counts(result.transcript, sizes.sizes, per)
    finally:
        patches.uninstall()
    return per


def end_to_end(tally: Tally, setup_samples: list[float]) -> tuple[dict, int]:
    p90, used = tail_percentile(tally.round_ms)
    wall = sum(w for w, _, _ in tally.jobs)
    return {
        "round_p50_ms": statistics.median(tally.round_ms),
        "round_p90_ms": p90,
        "rounds_per_s": sum(f for _, f, _ in tally.jobs) / wall,
        "elems_per_s": sum(e for _, _, e in tally.jobs) / wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, used


def layer_shares(own: dict[str, float]) -> dict[str, float]:
    """Each layer's share of traced phase time, by self time."""
    total = sum(own.values())
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, sec in own.items():
        layer = next(layer for layer in LAYERS if name.startswith(layer + "."))
        shares[layer] += sec / total
    return shares


def per_layer(totals, traced: Tally, per_phase: dict, overhead: float) -> dict:
    """The PER_LAYER metrics from span totals (seconds, scaled by the traced
    window's median speed scale), round states and the count pass."""
    incl, own, calls = totals
    rounds = traced.rounds
    scale = statistics.median(traced.scales)

    def ms(*names, times=incl):
        return sum(times.get(n, 0.0) for n in names) * scale * 1e3 / rounds

    m = {f"maskmac.{fn}.ms_per_round": ms(f"maskmac.{fn}") for fn in MASKMAC_FNS}
    maskmac_ns = ms(*(f"maskmac.{fn}" for fn in MASKMAC_FNS)) * rounds * 1e6
    m["maskmac.ns_per_elem"] = maskmac_ns / traced.member_elems if traced.member_elems else 0.0
    m.update({f"group_variant.{fn}.ms_per_round": ms(f"group_variant.{fn}") for fn in GROUP_FNS})
    m["group_variant.bsgs.calls_per_round"] = calls["group_variant.bsgs"] / rounds
    m.update({f"sharing.{fn}.ms_per_round": ms(f"sharing.{fn}") for fn in SHARING_FNS})
    setup = per_phase.get("setup", {})
    m["sharing.dealt_msgs_per_setup"] = setup.get("dealt", 0) / max(setup.get("rounds", 0), 1)
    lagrange = ("algebra.lagrange_at", "algebra.lagrange_at_zero")
    m["algebra.lagrange.calls_per_round"] = sum(calls[n] for n in lagrange) / rounds
    m["algebra.lagrange.ms_per_round"] = ms(*lagrange)
    m.update({f"simnet.phase.{p}.ms_per_round": ms(f"simnet.phase.{p}") for p in PHASES})
    m["simnet.send.self_ms_per_round"] = ms("simnet.send", times=own)
    m["simnet.transcript.ms_per_round"] = ms("simnet.transcript")
    m["simnet.aead.ms_per_round"] = ms("simnet.aead.seal", "simnet.aead.open")
    total = {k: sum(row.get(k, 0) for row in per_phase.values())
             for k in ("send", "deliver", "drop", "auth_fail", "payload_bytes")}
    count_rounds = max((row["rounds"] for row in per_phase.values()), default=0) or 1
    m["simnet.msgs_per_round"] = total["send"] / count_rounds
    m["simnet.payload_bytes_per_round"] = total["payload_bytes"] / count_rounds
    m["simnet.drops_per_round"] = total["drop"] / count_rounds
    m["simnet.auth_fail_per_round"] = total["auth_fail"] / count_rounds
    m["simnet.delivered_frac"] = total["deliver"] / total["send"] if total["send"] else 0.0
    participant = [f"protocol.participant.{h}" for h in PARTICIPANT_HANDLERS]
    aggregator = [f"protocol.aggregator.{h}" for h in AGGREGATOR_HANDLERS]
    m["protocol.participant.self_ms_per_round"] = ms(*participant, times=own)
    m["protocol.aggregator.self_ms_per_round"] = ms(*aggregator, times=own)
    m["protocol.recoveries_per_round"] = traced.recovered / rounds
    m["protocol.handler_calls_per_round"] = sum(calls[n] for n in participant + aggregator) / rounds
    m["trace.overhead_frac"] = overhead
    return m


def print_counts(per_phase: dict, n: int) -> None:
    print("count pass (per round of each phase): phase sends delivers drops auth_fail payload_bytes")
    for phase in PHASES:
        row = per_phase.get(phase)
        if not row:
            continue
        r = row["rounds"]
        print(f"  {phase:<13} {row['send'] / r:9.1f} {row['deliver'] / r:9.1f} "
              f"{row['drop'] / r:7.1f} {row['auth_fail'] / r:7.1f} {row['payload_bytes'] / r:12.0f}")
    setup = per_phase.get("setup")
    if setup:
        print(f"dealt_msgs_per_setup={setup['dealt'] / setup['rounds']:.0f} "
              f"paper 2N(N-1)={2 * n * (n - 1)} (report, not a gate)")


def timed_run(workload, seed: int, seconds: float, setup_s: float, raw_setup_s: float):
    samples = [setup_s] + [setup_probe(workload.name, seed) for _ in range(SETUP_PROBES)]
    tally, _ = closed_loop(workload, seed, seconds, first=1)
    metrics, used = end_to_end(tally, samples)
    raw_p90, _ = tail_percentile(tally.raw_round_ms)
    print(f"timed: {len(tally.jobs)} jobs, {tally.rounds} rounds; round_p90_ms is p{used} "
          f"of {len(tally.round_ms)} rounds; setup_s samples {[round(s, 4) for s in samples]}")
    print(f"speed scale median {statistics.median(tally.scales):.3f} "
          f"(range {min(tally.scales):.3f}-{max(tally.scales):.3f}); unscaled round p50 "
          f"{statistics.median(tally.raw_round_ms):.2f} ms, p{used} {raw_p90:.2f} ms, "
          f"unscaled setup {raw_setup_s:.4f} s")
    return tally, metrics


def traced_run(workload, seed: int, seconds: float):
    untraced, index = closed_loop(workload, seed, seconds / 2, first=1)
    tracer = Tracer()
    patches = Patches()
    tracer.install(patches)
    try:
        tally, _ = closed_loop(workload, seed, seconds / 2, first=index, tracer=tracer)
    finally:
        patches.uninstall()
    for key, sites in sorted(patches.sites.items()):
        print(f"bound {key} at {', '.join(sites)}")
    for key in patches.unbound:
        print(f"GAP: {key} is bound in no secel module; its metrics read 0")
    counted = Tally()
    per_phase = count_pass(workload, seed, counted)
    print_counts(per_phase, workload.job(seed, 0).spec.n)

    p50 = statistics.median(untraced.round_ms)
    traced_p50 = statistics.median(tally.round_ms)
    totals = tracer.totals()
    metrics = per_layer(totals, tally, per_phase, traced_p50 / p50 - 1)
    print(f"traced round p50 {traced_p50:.2f} ms vs untraced {p50:.2f} ms "
          f"({len(tally.round_ms)} and {len(untraced.round_ms)} rounds); layer times scaled "
          f"by the traced window's median speed scale {statistics.median(tally.scales):.3f}")
    shares = layer_shares(totals[1])
    print("layer shares of traced phase time (self): "
          + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    predicted = sum(shares[k] for k in workload.dominant)
    rival = max(v for k, v in shares.items() if k not in workload.dominant)
    print(f"dominant layer {'+'.join(workload.dominant)} {predicted:.1%} vs next {rival:.1%}: "
          f"{'confirmed' if predicted > rival else 'NOT confirmed'}")

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload.name}.spans.tsv"
    tracer.write(spans)
    print(f"{len(tracer)} spans written to {spans.relative_to(ROOT)}")
    tally.merge(untraced)
    tally.merge(counted)
    return tally, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "secel" / "__init__.py").is_file():
        print(f"perfbench: no secel sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    before = {name: reference_ms(kernel, 0.01) for name, kernel in KERNELS.items()}
    started = time.perf_counter()
    import secel
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    warm = Tally()
    warm_result, _ = run_job(workload, args.seed, 0, warm)
    raw_setup_s = time.perf_counter() - started
    after = reference_ms(KERNELS[workload.reference], REFERENCE_SHARE * raw_setup_s)
    setup_s = raw_setup_s * REFERENCE_MS / ((before[workload.reference] + after) / 2)
    if Path(secel.__file__).resolve().parent != (src / "secel").resolve():
        print(f"perfbench: imported secel from {secel.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"workload {workload.name}: {workload.why}")
    print(f"  shape: {workload.shape}")
    print("  closed loop, 1 caller, 1 process; predictions: " + "; ".join(workload.predictions))
    if warm_result is not None:
        print(f"first-job transcript sha256 {transcript_sha256(warm_result.transcript)} (fingerprint)")

    if args.trace == 0:
        tally, metrics = timed_run(workload, args.seed, args.seconds, setup_s, raw_setup_s)
    else:
        tally, metrics = traced_run(workload, args.seed, args.seconds)
    tally.merge(warm)
    for problem in tally.problems[:20]:
        print(f"UNEXPECTED {problem}")
    print(f"error_frac={tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} rounds)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": (END_TO_END | PER_LAYER)[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
