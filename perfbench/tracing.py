"""Outside-in instrumentation of `secel`: a round clock, spans and counts.

Nothing here edits the program. Each hook replaces a function object with a
wrapper wherever a `secel` module binds it: as a module global (including
names other modules imported with `from ... import`) or as a class attribute.
`uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from array import array
from collections import defaultdict

# Layer functions wrapped in the traced run: (defining module, qualified name,
# span name). Handlers the aggregator does not define itself (on_timer) are
# left out; it never receives timers.
TARGETS = (
    ("secel.maskmac", "mask_vector", "maskmac.mask_vector"),
    ("secel.maskmac", "aggregate_vectors", "maskmac.aggregate_vectors"),
    ("secel.maskmac", "verify_vector", "maskmac.verify_vector"),
    ("secel.maskmac", "unmask_vector", "maskmac.unmask_vector"),
    ("secel.group_variant", "group_mask_vector", "group_variant.group_mask_vector"),
    ("secel.group_variant", "group_aggregate", "group_variant.group_aggregate"),
    ("secel.group_variant", "group_verify", "group_variant.group_verify"),
    ("secel.group_variant", "group_unmask", "group_variant.group_unmask"),
    ("secel.group_variant", "bsgs", "group_variant.bsgs"),
    ("secel.group_variant", "wrap_share", "group_variant.wrap_share"),
    ("secel.group_variant", "unwrap_share", "group_variant.unwrap_share"),
    ("secel.group_variant", "exp_lagrange_at", "group_variant.exp_lagrange_at"),
    ("secel.group_variant", "exp_lagrange_at_zero", "group_variant.exp_lagrange_at_zero"),
    ("secel.sharing", "new_dealer", "sharing.new_dealer"),
    ("secel.sharing", "step1_messages", "sharing.step1_messages"),
    ("secel.sharing", "accumulate_sv", "sharing.accumulate_sv"),
    ("secel.sharing", "step2_messages", "sharing.step2_messages"),
    ("secel.sharing", "recover_lost_share", "sharing.recover_lost_share"),
    ("secel.sharing", "pairwise_key", "sharing.pairwise_key"),
    ("secel.algebra", "lagrange_at", "algebra.lagrange_at"),
    ("secel.algebra", "lagrange_at_zero", "algebra.lagrange_at_zero"),
    ("secel.simnet", "Simulator.send", "simnet.send"),
    ("secel.simnet", "Transcript.envelope", "simnet.transcript"),
    ("secel.simnet", "seal", "simnet.aead.seal"),
    ("secel.simnet", "open_sealed", "simnet.aead.open"),
    ("secel.protocol", "ParticipantNode.on_message", "protocol.participant.on_message"),
    ("secel.protocol", "ParticipantNode.on_phase_start", "protocol.participant.on_phase_start"),
    ("secel.protocol", "ParticipantNode.on_timer", "protocol.participant.on_timer"),
    ("secel.protocol", "AggregatorNode.on_message", "protocol.aggregator.on_message"),
    ("secel.protocol", "AggregatorNode.on_phase_start", "protocol.aggregator.on_phase_start"),
)
RUN_PHASE = ("secel.simnet", "Simulator.run_phase")
PHASES = ("setup", "masking", "aggregation", "verification", "decryption")


def _resolve(module: str, qualname: str):
    obj = sys.modules.get(module)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return obj


def binding_sites(fn) -> list[tuple[object, str]]:
    """Every (namespace owner, attribute) in a loaded secel module bound to `fn`."""
    sites = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "secel" or name.startswith("secel.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                sites.append((module, attr))
            elif isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is fn:
                        sites.append((value, cattr))
    return sites


class Patches:
    """Function replacements by identity, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.unbound: list[str] = []
        self.sites: dict[str, list[str]] = {}

    def wrap(self, module: str, qualname: str, make_wrapper) -> bool:
        fn = _resolve(module, qualname)
        sites = binding_sites(fn) if callable(fn) else []
        key = f"{module}.{qualname}"
        if not sites:
            self.unbound.append(key)
            return False
        wrapper = make_wrapper(fn)
        for owner, attr in sites:
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        self.sites[key] = [f"{getattr(o, '__name__', o)}.{a}" for o, a in sites]
        return True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


class RoundClock:
    """Wall time per round, read at the Simulator.run_phase boundaries."""

    def __init__(self) -> None:
        self.spans: dict[int, list[float]] = {}  # round -> [first open, last close]

    def begin_job(self) -> None:
        self.spans = {}

    def round_ms(self) -> list[float]:
        return [(close - start) * 1e3 for start, close in self.spans.values()]

    def install(self, patches: Patches) -> None:
        clock = time.perf_counter

        def make(run_phase):
            @functools.wraps(run_phase)
            def timed_run_phase(sim, phase, round_no):
                start = clock()
                run_phase(sim, phase, round_no)
                end = clock()
                self.spans.setdefault(round_no, [start, end])[1] = end

            return timed_run_phase

        patches.wrap(*RUN_PHASE, make)


class Tracer:
    """In-memory spans: name, start, end, parent span and job id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrapper(self, fn, name_of):
        clock = time.perf_counter
        stack = self._stack
        name, start, end, parent, job = self.name, self.start, self.end, self.parent, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_of(args))
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, patches: Patches) -> None:
        for module, qualname, span in TARGETS:
            nid = self.intern(span)
            patches.wrap(module, qualname, lambda fn, nid=nid: self._wrapper(fn, lambda a: nid))
        phase_ids = {p: self.intern(f"simnet.phase.{p}") for p in PHASES}
        patches.wrap(*RUN_PHASE, lambda fn: self._wrapper(fn, lambda a: phase_ids[a[1]]))

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        child = [0.0] * len(self.start)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for idx, nid in enumerate(self.name):
            dur = self.end[idx] - self.start[idx]
            key = self.names[nid]
            incl[key] += dur
            own[key] += dur - child[idx]
            calls[key] += 1
        return incl, own, calls

    def write(self, path) -> None:
        """Spans as TSV: name, start_ns, end_ns, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            names = self.names
            for idx in range(len(self.start)):
                fh.write(
                    f"{names[self.name[idx]]}\t{int(self.start[idx] * 1e9)}\t"
                    f"{int(self.end[idx] * 1e9)}\t{self.parent[idx]}\t{self.job[idx]}\n"
                )


# ---- count pass ---------------------------------------------------------------------

DEALING_KINDS = ("setup1", "setup2", "gsetup1", "gsetup2")


class PayloadBytes:
    """Payload bytes of each emitted envelope, keyed by its transcript record.

    Keys are record positions, so call `reset` before each job.
    """

    def __init__(self) -> None:
        self.sizes: dict[int, int] = {}

    def reset(self) -> None:
        self.sizes.clear()

    def install(self, patches: Patches) -> None:
        from secel.simnet import canonical_json

        sizes = self.sizes

        def make(envelope):
            @functools.wraps(envelope)
            def sized_envelope(transcript, rtype, env, **extra):
                if rtype == "send" or extra.get("reason") == "drop_outbound":
                    size = len(env.blob) if env.secured else len(canonical_json(env.body))
                    sizes[len(transcript.records)] = size
                envelope(transcript, rtype, env, **extra)

            return sized_envelope

        patches.wrap("secel.simnet", "Transcript.envelope", make)


def transcript_counts(transcript, sizes: dict[int, int], per: dict) -> None:
    """Add per-phase send/deliver/drop/auth_fail counts, payload bytes and
    dealt (setup1/setup2 or gsetup1/gsetup2) envelopes into `per`."""
    phase = None
    for pos, rec in enumerate(transcript.records):
        rtype = rec.get("type")
        if rtype == "phase":
            phase = rec["phase"]
            per.setdefault(phase, defaultdict(int))["rounds"] += 1
            continue
        if rtype not in ("send", "deliver", "drop", "auth_fail") or phase is None:
            continue
        row = per[phase]
        row[rtype] += 1
        row["payload_bytes"] += sizes.get(pos, 0)
        if rec.get("kind") in DEALING_KINDS and pos in sizes:
            row["dealt"] += 1


def transcript_sha256(transcript) -> str:
    return hashlib.sha256(transcript.to_ndjson().encode()).hexdigest()
