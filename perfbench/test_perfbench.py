"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""

import copy
import json
import re
from pathlib import Path

import pytest

import run
import secel
import tracing
from workloads import WORKLOADS, expected_sum, job_problems

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def job_key(job):
    spec, sim = job.spec, job.sim_config
    return (spec.gradients, spec.share_loss, spec.tamper, sim.seed, sim.faults, job.silent)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_jobs_follow_the_seed(name):
    w = WORKLOADS[name]
    first = [job_key(w.job(5, i)) for i in range(3)]
    assert first == [job_key(w.job(5, i)) for i in range(3)]
    assert all(a != b for a, b in zip(first, (job_key(w.job(6, i)) for i in range(3))))
    assert first[0] != first[1]


def test_crowd_faults_schedule():
    w = WORKLOADS["crowd_faults"]
    for i in range(16):
        job = w.job(3, i)
        actions = sorted(f.action for f in job.sim_config.faults)
        assert actions == ["disconnect", "disconnect", "drop_outbound"]
        assert all(f.phase == "masking" for f in job.sim_config.faults)
        assert len(job.spec.share_loss) == 2 and not set(job.spec.share_loss) & job.silent
        assert job.tampered == (i % 8 == 7)
    assert [w.job(3, i).spec.tamper for i in (7, 15, 23, 31)] == [
        "flip_element", "substitute_all", "inject_offset", "flip_element"]


def run_first(name, seed, index=0):
    job = WORKLOADS[name].job(seed, index)
    return job, secel.run_rounds(job.spec, job.sim_config)


def test_first_job_transcript_replays():
    digest = tracing.transcript_sha256(run_first("crowd_faults", 9)[1].transcript)
    assert digest == tracing.transcript_sha256(run_first("crowd_faults", 9)[1].transcript)
    assert digest != tracing.transcript_sha256(run_first("crowd_faults", 10)[1].transcript)


def test_checker_accepts_expected_outcomes():
    job, result = run_first("crowd_faults", 2)
    assert job_problems(job, result) == []
    assert result.rounds[0].recovered == sorted(job.spec.share_loss)
    tampered, rejected = run_first("crowd_faults", 2, index=7)
    assert tampered.tampered and job_problems(tampered, rejected) == []


def test_checker_flags_a_corrupted_sum():
    job, result = run_first("crowd_faults", 2)
    bad = copy.deepcopy(result)
    bad.rounds[0].field_sum[3] = (bad.rounds[0].field_sum[3] + 1) % job.spec.prime
    assert job_problems(job, bad) == ["field_sum differs from the sum of encoded inputs"]
    bad = copy.deepcopy(result)
    bad.rounds[0].m_set = bad.rounds[0].m_set[1:]
    assert len(job_problems(job, bad)) == 1


def test_checker_flags_a_tampered_round_reported_verified():
    job, result = run_first("crowd_faults", 2, index=7)
    state = result.rounds[0]
    state.phase, state.error, state.verified = "done", None, True
    state.field_sum = expected_sum(job, state.m_set)
    assert len(job_problems(job, result)) == 1


def test_group_sums_are_checked_in_the_exponent_field():
    job = WORKLOADS["group_reuse"].job(1, 0)
    sums = expected_sum(job, job.spec.participant_ids)
    assert all(0 <= s < job.spec.group.q for s in sums)
    assert len(sums) == job.spec.length


def test_a_raising_round_is_counted_not_raised(monkeypatch):
    def boom(spec, sim_config):
        raise RuntimeError("boom")

    monkeypatch.setattr(secel, "run_rounds", boom)
    tally = run.Tally()
    assert run.run_job(WORKLOADS["group_reuse"], 1, 0, tally)[0] is None
    assert (tally.attempted, tally.failed) == (6, 6)
    assert "RuntimeError" in tally.problems[0]


def test_metric_names_and_benchmark_file_agree():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END and layer == run.PER_LAYER
    assert len(e2e) <= 16 and len(layer) <= 128
    assert all(NAME.fullmatch(n) for n in [*e2e, *layer])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert e2e["setup_s"] == "s" and all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_layer_functions_are_wrapped_wherever_bound():
    import secel.maskmac
    import secel.protocol

    original = secel.maskmac.mask_vector
    patches = tracing.Patches()
    tracing.Tracer().install(patches)
    try:
        assert secel.protocol.mask_vector is secel.maskmac.mask_vector is not original
        assert patches.unbound == []
        assert "secel.protocol.mask_vector" in patches.sites["secel.maskmac.mask_vector"]
        assert not patches.wrap("secel.maskmac", "no_such_kernel", lambda fn: fn)
        assert patches.unbound == ["secel.maskmac.no_such_kernel"]
    finally:
        patches.uninstall()
    assert secel.protocol.mask_vector is original


def test_self_time_subtracts_child_spans():
    t = tracing.Tracer()
    for name, start, end, parent in (("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 5.0, 6.0, 0), ("b", 2.0, 3.0, 1)):
        t.name.append(t.intern(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.job.append(0)
    incl, own, calls = t.totals()
    assert incl == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 201))) == (180, 90)
    value, used = run.tail_percentile(list(range(1, 61)))
    assert used < 90 and 60 - value >= 10


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "wide_scalar", "--seed", "4", "--seconds", "0.1", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sharing.dealt_msgs_per_setup"] == 2 * 10 * 9
    assert metrics["maskmac.mask_vector.ms_per_round"] > 0
    assert any(line.startswith("dominant layer") and line.endswith(": confirmed") for line in lines)
    assert not any(line.startswith("GAP") for line in lines)
