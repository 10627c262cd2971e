"""The benchmark's own shapes as a regression oracle.

The golden grid (test_golden.py) stops at n <= 7 and l <= 5, so it cannot see
a drift that only long vectors, thirty parties or six reused group rounds
show. This pins the transcript of each perfbench workload's seed-1 first job,
built by the benchmark's job generator and hashed as its tracer hashes it.

All three pins moved when share responses came to carry a member's own keys
alone: the sealed share_resp bodies shrank, and crowd_faults, whose jobs lose
shares, gained the leader's rows_req and the holders' rows_resp sends. All
three moved again when aggregate, result, round_done and abort lost the fields
no handler read; only those envelopes' payload digests changed. All three moved
when the commit/reveal election gave way to a candidate order every party
derives: the commit and reveal sends and their RNG draws are gone, and the
leader ids changed; crowd_faults' leader also sends its rows_req at a new tick,
a round trip after its own request. Every first job still passes the
benchmark's checker.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from secel import run_rounds  # noqa: E402
from tracing import transcript_sha256  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = {
    "wide_scalar": "68acd5169f1da8998820dca7d24542a422091b90c4c0ec95966ce6aef9c37fe2",
    "crowd_faults": "50f487837b147c1ad589d232c34f4d9cb4c11d8d1271062d3676c752e405a2a1",
    "group_reuse": "f3a2c3dfc9f96d73dd1c5e02fad636bb5836a28512fab93b449511d0303a8e71",
}


def test_every_workload_is_pinned():
    assert sorted(PINNED) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_first_job_transcript_is_pinned(name):
    job = WORKLOADS[name].job(1, 0)
    result = run_rounds(job.spec, job.sim_config)
    assert transcript_sha256(result.transcript) == PINNED[name]
