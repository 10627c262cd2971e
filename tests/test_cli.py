"""Command-line interface: exit codes, output files, seed precedence."""

import csv
import json
import subprocess
import sys

import pytest

from secel.cli import BENCH_HEADER, main
from secel.fedlearn import ACCURACY_HEADER


def write_config(tmp_path, doc, name="round.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


HONEST_DOC = {"seed": 5, "n": 4, "t": 2, "l": 3}


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("SECEL_SEED", raising=False)


# ---- round -----------------------------------------------------------------------------


def test_round_honest_run_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, HONEST_DOC)
    assert main(["round", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "verified=true" in out and "decrypted=" in out and "status=done" in out


def test_round_tamper_flag_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, HONEST_DOC)
    assert main(["round", "--config", cfg, "--tamper", "inject_offset"]) == 2
    out = capsys.readouterr().out
    assert "verified=false" in out and "error=VerificationFailed" in out


@pytest.mark.parametrize("variant", ["scalar", "group"])
def test_round_negate_tamper_exits_two(tmp_path, capsys, variant):
    cfg = write_config(tmp_path, HONEST_DOC)
    argv = ["round", "--config", cfg, "--variant", variant, "--tamper", "negate"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "status=rejected" in out
    assert "error=VerificationFailed" in out or "error=DecodeFailure" in out


@pytest.mark.parametrize("variant", ["scalar", "group"])
@pytest.mark.parametrize("tamper", ["truncate", "duplicate_member", "malformed"])
def test_round_shape_breaking_tamper_exits_two(tmp_path, capsys, variant, tamper):
    cfg = write_config(tmp_path, HONEST_DOC)
    argv = ["round", "--config", cfg, "--variant", variant, "--tamper", tamper]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "status=rejected" in out and "error=MalformedAggregate" in out


def test_round_decode_failure_prints_verified_none(tmp_path, capsys):
    # a negated group aggregate passes the batched tag check up to sign and then
    # fails to decode: the round is rejected without a verdict, not as unverified
    cfg = write_config(tmp_path, {**HONEST_DOC, "seed": 0})
    argv = ["round", "--config", cfg, "--variant", "group", "--tamper", "negate"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "status=rejected verified=none" in out and "error=DecodeFailure" in out


def test_round_missing_config_flag_exits_one_with_usage(capsys):
    assert main(["round"]) == 1
    assert "usage" in capsys.readouterr().err


def test_round_nonexistent_config_exits_one(tmp_path, capsys):
    assert main(["round", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_round_invalid_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["round", "--config", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_round_bad_round_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 1, "t": 2})
    assert main(["round", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_round_malformed_simulator_keys_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 3, "delay": 5})
    assert main(["round", "--config", cfg]) == 1
    assert "config error:" in capsys.readouterr().err


def test_round_non_object_config_exits_one(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    assert main(["round", "--config", str(path)]) == 1


def test_round_writes_deterministic_transcript(tmp_path, capsys):
    cfg = write_config(tmp_path, HONEST_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["round", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["round", "--config", cfg, "--out", str(out_b)]) == 0
    capsys.readouterr()
    text_a = (out_a / "transcript.ndjson").read_text()
    assert text_a == (out_b / "transcript.ndjson").read_text()
    for line in text_a.strip().splitlines():
        json.loads(line)


def test_round_variant_override(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 2, "n": 3, "t": 2, "l": 2})
    assert main(["round", "--config", cfg, "--variant", "group"]) == 0
    assert "verified=true" in capsys.readouterr().out


def test_seed_precedence_env_beats_config_and_flag_beats_env(
    tmp_path, capsys, monkeypatch
):
    cfg = write_config(tmp_path, {"seed": 1, "n": 3, "t": 2, "l": 2})
    dirs = {name: tmp_path / name for name in ("env", "flag2", "flag3", "plain2")}

    monkeypatch.setenv("SECEL_SEED", "2")
    assert main(["round", "--config", cfg, "--out", str(dirs["env"])]) == 0
    assert main(["round", "--config", cfg, "--seed", "3", "--out", str(dirs["flag3"])]) == 0
    monkeypatch.delenv("SECEL_SEED")
    assert main(["round", "--config", cfg, "--seed", "2", "--out", str(dirs["flag2"])]) == 0
    assert main(["round", "--config", cfg, "--seed", "3", "--out", str(dirs["plain2"])]) == 0
    capsys.readouterr()

    read = {k: (d / "transcript.ndjson").read_text() for k, d in dirs.items()}
    assert read["env"] == read["flag2"]  # env seed 2 == explicit seed 2
    assert read["flag3"] == read["plain2"]  # flag wins over the env seed
    assert read["env"] != read["flag3"]


def test_bad_secel_seed_env_exits_one(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, HONEST_DOC)
    monkeypatch.setenv("SECEL_SEED", "many")
    assert main(["round", "--config", cfg]) == 1
    assert "SECEL_SEED" in capsys.readouterr().err


# ---- bench -----------------------------------------------------------------------------


def test_bench_emits_fixed_schema(tmp_path, capsys):
    rc = main(
        [
            "bench",
            "--parties",
            "3",
            "--gradients",
            "4,8",
            "--repeat",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    with open(tmp_path / "bench.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == BENCH_HEADER
    body = rows[1:]
    assert len(body) == 10  # 5 phases x 2 grid cells
    assert [r[0] for r in body[:5]] == ["setup", "mask", "agg", "verify", "decrypt"]
    assert all(r[1] == "3" for r in body)
    assert {r[2] for r in body} == {"4", "8"}
    assert all(float(r[3]) > 0 and float(r[4]) > 0 for r in body)


def test_bench_phase_subset(capsys):
    assert main(["bench", "--phases", "mask,agg", "--parties", "3", "--gradients", "4", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(BENCH_HEADER)
    assert [l.split(",")[0] for l in lines[1:]] == ["mask", "agg"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--phases", "warp"],
        ["bench", "--parties", "3,x"],
        ["bench", "--parties", "0"],
        ["bench", "--gradients", ""],
        ["bench", "--repeat", "0"],
    ],
)
def test_bench_rejects_bad_grids(argv, capsys):
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err


# ---- train -----------------------------------------------------------------------------


def test_train_single_fraction_writes_rows(tmp_path, capsys):
    rc = main(
        [
            "train",
            "--f",
            "0.25",
            "--rounds",
            "2",
            "--parties",
            "4",
            "--s-min",
            "2",
            "--seed",
            "6",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_acc=" in out
    with open(tmp_path / "accuracy.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == ACCURACY_HEADER
    assert len(rows) == 1 + 2
    assert [r[1] for r in rows[1:]] == ["1", "2"]


def test_train_default_sweep_emits_five_rows_per_round(tmp_path, capsys):
    rc = main(
        [
            "train",
            "--rounds",
            "1",
            "--parties",
            "6",
            "--s-min",
            "2",
            "--seed",
            "6",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    with open(tmp_path / "accuracy.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 5  # one row per fraction per round
    assert len({r[0] for r in rows}) == 5


def test_train_invalid_fraction_exits_one(capsys):
    assert main(["train", "--f", "1.5", "--rounds", "1", "--parties", "4"]) == 1
    assert "config error" in capsys.readouterr().err


def test_train_plaintext_twin_runs(capsys):
    rc = main(
        ["train", "--plaintext", "--f", "0", "--rounds", "1", "--parties", "4", "--s-min", "2"]
    )
    assert rc == 0
    assert "final_acc=" in capsys.readouterr().out


# ---- recover-demo ----------------------------------------------------------------------


def test_recover_demo_narrates_two_recoveries(tmp_path, capsys):
    assert main(["recover-demo", "--seed", "11", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("share recovery for party") == 2
    assert "recovery_events=2" in out
    assert "verified=true" in out
    assert (tmp_path / "transcript.ndjson").exists()


def test_recover_demo_is_seed_stable_in_memberships(capsys):
    for seed in ("3", "4"):
        assert main(["recover-demo", "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert "contributors M=[1, 2, 4, 5]" in out
        assert "recovery_events=2" in out


# ---- parser plumbing -------------------------------------------------------------------


def test_unknown_subcommand_exits_one(capsys):
    assert main(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "secel", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "round" in proc.stdout and "bench" in proc.stdout
