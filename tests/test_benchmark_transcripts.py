"""The benchmark's own shapes as a regression oracle.

The golden grid (test_golden.py) stops at n <= 7 and l <= 5, so it cannot see
a drift that only long vectors, thirty parties or six reused group rounds
show. This pins the transcript of each perfbench workload's seed-1 first job,
built by the benchmark's job generator and hashed as its tracer hashes it.

All three pins moved when share responses came to carry a member's own keys
alone: the sealed share_resp bodies shrank, and crowd_faults, whose jobs lose
shares, gained the leader's rows_req and the holders' rows_resp sends. All
three moved again when aggregate, result, round_done and abort lost the fields
no handler read; only those envelopes' payload digests changed.
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
    "wide_scalar": "62f2c06538caf993bdaade4a51a43c4e4d7bdde4fdede74d988e984b8987553e",
    "crowd_faults": "d3671c66e56c2f2eed70e22983057bd44526460d59465e2b3e13788901e72d68",
    "group_reuse": "95fcf2fc41fe032164f919959642f4204f575b686be9aab018d39128e1712bbf",
}


def test_every_workload_is_pinned():
    assert sorted(PINNED) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_first_job_transcript_is_pinned(name):
    job = WORKLOADS[name].job(1, 0)
    result = run_rounds(job.spec, job.sim_config)
    assert transcript_sha256(result.transcript) == PINNED[name]
