"""The benchmark's own shapes as a regression oracle.

The golden grid (test_golden.py) stops at n <= 7 and l <= 5, so it cannot see
a drift that only long vectors, thirty parties or six reused group rounds
show. This pins the transcript of each perfbench workload's seed-1 first job,
built by the benchmark's job generator and hashed as its tracer hashes it.

All three pins moved when share responses came to carry a member's own keys
alone: the sealed share_resp bodies shrank, and crowd_faults, whose jobs lose
shares, gained the leader's rows_req and the holders' rows_resp sends.
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
    "wide_scalar": "fd78b7531e1de3d73555c94c3ef185050a24dc9cb24b0164ed1a72fbbdd6e837",
    "crowd_faults": "2b013f79631f75c08929c1136c383d538d82d6a70b266dbdba0994b446235184",
    "group_reuse": "20db35e06de956590b66e7df17ac08fd7a345bad65fbe200886ec3605a6b0166",
}


def test_every_workload_is_pinned():
    assert sorted(PINNED) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_first_job_transcript_is_pinned(name):
    job = WORKLOADS[name].job(1, 0)
    result = run_rounds(job.spec, job.sim_config)
    assert transcript_sha256(result.transcript) == PINNED[name]
