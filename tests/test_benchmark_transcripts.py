"""The benchmark's own shapes as a regression oracle.

The golden grid (test_golden.py) stops at n <= 7 and l <= 5, so it cannot see
a drift that only long vectors, thirty parties or six reused group rounds
show. This pins the transcript of each perfbench workload's seed-1 first job,
built by the benchmark's job generator and hashed as its tracer hashes it.
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
    "wide_scalar": "b95eac790d7f65b08a76a8d5adba2c8108299d2f46a8b899487d90aad5fba751",
    "crowd_faults": "1eff308bfb4f070569289743d5e0ce3cb1e30c197c5eee688704870f468cc069",
    "group_reuse": "9eacd767ab31b20cc909bba540edbfc0e4002c86cab5630407e6eca4618d6b22",
}


def test_every_workload_is_pinned():
    assert sorted(PINNED) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_first_job_transcript_is_pinned(name):
    job = WORKLOADS[name].job(1, 0)
    result = run_rounds(job.spec, job.sim_config)
    assert transcript_sha256(result.transcript) == PINNED[name]
