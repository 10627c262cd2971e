"""Batch command-line entry points.

Four subcommands, all non-interactive:

  round         run one configured aggregation scenario and print its verdict
  bench         time each protocol phase over a parties x gradients grid
  train         federated training run or dropout sweep, accuracy as CSV
  recover-demo  narrated walkthrough of the share-loss recovery scenario

Exit codes: 0 for a verified outcome, 2 for a rejected round, 1 for bad
configuration or usage.  SECEL_SEED in the environment overrides config-file
seeds; an explicit --seed flag beats both.  With --out DIR, artifacts land as
DIR/transcript.ndjson, DIR/bench.csv, DIR/accuracy.csv.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import time

from .algebra import DEFAULT_PRIME, PrimeModulus
from .errors import ConfigError, SecelError
from .maskmac import (
    aggregate_vectors,
    mask_vector,
    sum_auth_keys,
    unmask_vector,
    verify_vector,
)
from .protocol import TAMPER_POLICIES, VARIANTS, run_rounds, run_setup
from .simnet import derive_seed

BENCH_HEADER = ("phase", "parties", "gradients", "mean_ms", "throughput_elems_per_s")
BENCH_PHASES = ("setup", "mask", "agg", "verify", "decrypt")

FLAGSHIP_DOC = {
    "n": 7,
    "t": 3,
    "l": 5,
    "s_min": 3,
    "share_loss": [4, 5, 6, 7],
    "faults": [
        {"id": 3, "phase": "masking", "action": "drop_outbound"},
        {"id": 6, "phase": "masking", "action": "disconnect"},
        {"id": 7, "phase": "masking", "action": "disconnect"},
    ],
}


def resolve_seed(flag_seed: int | None, config_seed: int | None, default: int = 0) -> int:
    """Seed precedence: --seed flag, then SECEL_SEED, then config, then default."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("SECEL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"SECEL_SEED must be an integer, got {env!r}") from exc
    if config_seed is not None:
        return config_seed
    return default


def _ensure_out(out: str | None) -> str | None:
    if out is not None:
        os.makedirs(out, exist_ok=True)
    return out


def _write_transcript(out: str | None, result) -> None:
    if out is None:
        return
    path = os.path.join(out, "transcript.ndjson")
    result.transcript.write(path)
    print(f"wrote {path}")


# ---- round ---------------------------------------------------------------------------


def cmd_round(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    if args.variant is not None:
        doc["variant"] = args.variant
    if args.tamper is not None:
        doc["tamper"] = args.tamper
    doc["seed"] = resolve_seed(args.seed, doc.get("seed"))
    result = run_rounds(doc)
    for line in result.summary_lines():
        print(line)
    _write_transcript(_ensure_out(args.out), result)
    return 0 if result.ok else 2


# ---- bench ---------------------------------------------------------------------------

# Elements processed per kernel invocation, for the throughput column.
_BENCH_ELEMS = {
    "setup": lambda n, l: 2 * n * (n - 1),  # field elements transmitted while dealing
    "mask": lambda n, l: n * l,
    "agg": lambda n, l: n * l,
    "verify": lambda n, l: l,
    "decrypt": lambda n, l: l,
}


def _bench_kernels(n: int, l: int, seed: int):
    """Deterministic per-cell workload: one dealt setup plus masked vectors."""
    modulus = PrimeModulus(DEFAULT_PRIME)
    t = min(3, n)
    ids = list(range(1, n + 1))
    rng = random.Random(derive_seed(seed, "bench", n, l))
    setup = run_setup(ids, t, modulus, rng)
    masking = {i: setup.dealers[i].masking_secret() for i in ids}
    self_keys = {i: setup.dealers[i].self_key() for i in ids}
    p = modulus.p
    s = sum_auth_keys((modulus.random_nonzero(rng) for _ in ids), p)
    k = sum_auth_keys(self_keys.values(), p)
    values = {
        i: [modulus.random_element(rng) for _ in range(l)] for i in ids
    }
    masked = [mask_vector(values[i], masking[i], self_keys[i], s, 1, p) for i in ids]
    agg = aggregate_vectors(masked, p)
    key_sum = sum_auth_keys(masking.values(), p)
    dealing_rng_seed = derive_seed(seed, "bench-setup", n, l)
    return {
        "setup": lambda: run_setup(ids, t, modulus, random.Random(dealing_rng_seed)),
        "mask": lambda: [
            mask_vector(values[i], masking[i], self_keys[i], s, 1, p) for i in ids
        ],
        "agg": lambda: aggregate_vectors(masked, p),
        "verify": lambda: verify_vector(agg, k, s, 1, p),
        "decrypt": lambda: unmask_vector(agg, key_sum, 1, p),
    }


def run_bench(
    phases: tuple[str, ...],
    parties: tuple[int, ...],
    gradients: tuple[int, ...],
    repeat: int,
    seed: int,
) -> list[tuple[str, int, int, float, float]]:
    """Time every requested (phase, n, l) cell; returns CSV-ready rows."""
    rows = []
    for n in parties:
        for l in gradients:
            kernels = _bench_kernels(n, l, seed)
            for phase in phases:
                kernel = kernels[phase]
                kernel()  # warmup, outside the clock
                t0 = time.perf_counter()
                for _ in range(repeat):
                    kernel()
                mean_s = (time.perf_counter() - t0) / repeat
                elems = _BENCH_ELEMS[phase](n, l)
                rows.append((phase, n, l, mean_s * 1e3, elems / mean_s))
    return rows


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        items = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not items or any(v < 1 for v in items):
        raise ConfigError(f"{flag} expects positive integers, got {text!r}")
    return items


def _bench_csv(rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_HEADER)
    for phase, n, l, mean_ms, throughput in rows:
        writer.writerow([phase, n, l, f"{mean_ms:.4f}", f"{throughput:.1f}"])
    return buf.getvalue()


def cmd_bench(args: argparse.Namespace) -> int:
    if args.phases == "all":
        phases = BENCH_PHASES
    else:
        phases = tuple(p.strip() for p in args.phases.split(",") if p.strip())
        unknown = [p for p in phases if p not in BENCH_PHASES]
        if unknown or not phases:
            raise ConfigError(
                f"unknown phases {unknown}; choose from {', '.join(BENCH_PHASES)} or all"
            )
    if args.repeat < 1:
        raise ConfigError("--repeat must be >= 1")
    parties = _parse_int_list(args.parties, "--parties")
    gradients = _parse_int_list(args.gradients, "--gradients")
    seed = resolve_seed(args.seed, None)
    rows = run_bench(phases, parties, gradients, args.repeat, seed)
    text = _bench_csv(rows)
    print(text, end="")
    out = _ensure_out(args.out)
    if out is not None:
        path = os.path.join(out, "bench.csv")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


# ---- train ---------------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    # only this command trains: the others never compile fedlearn
    from .fedlearn import DEFAULT_FRACTIONS, TrainConfig, dropout_experiment, write_accuracy_csv

    base = TrainConfig(
        parties=args.parties,
        rounds=args.rounds,
        eta=args.eta,
        tau=args.tau,
        s_min=args.s_min,
        seed=resolve_seed(args.seed, None),
        aggregate="plaintext" if args.plaintext else "secure",
    )
    fractions = DEFAULT_FRACTIONS if args.f is None else (args.f,)
    rows = []
    for f, run in zip(fractions, dropout_experiment(base, fractions)):
        rows.extend(run.rows)
        print(
            f"f={f:.4f} rounds={run.config.rounds} final_acc={run.final_accuracy:.4f} "
            f"final_loss={run.rows[-1][2]:.4f} rejected={len(run.rejected_rounds)} "
            f"max_staleness={run.max_staleness}"
        )
    out = _ensure_out(args.out)
    if out is not None:
        path = os.path.join(out, "accuracy.csv")
        write_accuracy_csv(path, rows)
        print(f"wrote {path}")
    return 0


# ---- recover-demo --------------------------------------------------------------------


def cmd_recover_demo(args: argparse.Namespace) -> int:
    doc = dict(FLAGSHIP_DOC)
    doc["seed"] = resolve_seed(args.seed, None, default=11)
    result = run_rounds(doc)
    state = result.rounds[0]

    print("scenario: 7 parties, threshold 3, quorum 3")
    print("after dealing, parties 4-7 lose their second-round share bundles;")
    print("during masking, party 3 mutes its uplink and parties 6-7 disconnect.")
    print()
    recovery_events = 0
    for rec in result.transcript.records:
        if rec.get("type") != "note":
            continue
        note, t = rec.get("note"), rec.get("t")
        if note == "share_loss":
            print(f"[t={t}] party {rec['id']} wiped its recovery share bundle")
        elif note == "recover" and rec.get("what") == "contributor_keys":
            print(
                f"[t={t}] leader rebuilt the masking keys of silent party "
                f"{rec['target']} from helpers {rec['helpers']}"
            )
        elif note == "recover" and rec.get("what") == "lost_share":
            recovery_events += 1
            print(
                f"[t={t}] share recovery for party {rec['target']}: "
                f"helpers {rec['helpers']} each contributed one evaluation"
            )
    print()
    print(
        f"dealers with full bundles T={state.t_set}, contributors M={state.m_set}, "
        f"aggregate holders U={state.u_set}, silent={state.failed}"
    )
    print(f"leader={state.leader} recovery_events={recovery_events}")
    for line in result.summary_lines():
        print(line)
    if state.recovered:
        print(
            f"recovered parties {state.recovered} ended the round holding the same "
            "plaintext sum as the fully dealt contributors"
        )
    _write_transcript(_ensure_out(args.out), result)
    return 0 if result.ok else 2


# ---- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secel",
        description="Verifiable masked aggregation: scenario runner and experiment drivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_round = sub.add_parser("round", help="run one configured scenario")
    p_round.add_argument("--config", required=True, help="flat JSON scenario document")
    p_round.add_argument("--variant", choices=sorted(VARIANTS))
    p_round.add_argument("--tamper", choices=sorted(TAMPER_POLICIES))
    p_round.add_argument("--seed", type=int)
    p_round.add_argument("--out", help="directory for transcript.ndjson")
    p_round.set_defaults(func=cmd_round)

    p_bench = sub.add_parser("bench", help="time each protocol phase")
    p_bench.add_argument("--phases", default="all", help="comma list or all")
    p_bench.add_argument("--parties", default="3,5,10", help="comma list of N values")
    p_bench.add_argument("--gradients", default="16,256", help="comma list of l values")
    p_bench.add_argument("--repeat", type=int, default=5)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--out", help="directory for bench.csv")
    p_bench.set_defaults(func=cmd_bench)

    p_train = sub.add_parser("train", help="federated training / dropout sweep")
    p_train.add_argument("--f", type=float, help="single dropout fraction (default: sweep)")
    p_train.add_argument("--rounds", type=int, default=20)
    p_train.add_argument("--parties", type=int, default=24)
    p_train.add_argument("--eta", type=float, default=0.5)
    p_train.add_argument("--tau", type=int, default=15)
    p_train.add_argument("--s-min", dest="s_min", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument(
        "--plaintext", action="store_true", help="run the cleartext twin pipeline"
    )
    p_train.add_argument("--out", help="directory for accuracy.csv")
    p_train.set_defaults(func=cmd_train)

    p_demo = sub.add_parser(
        "recover-demo", help="narrated share-loss recovery walkthrough"
    )
    p_demo.add_argument("--seed", type=int)
    p_demo.add_argument("--out", help="directory for transcript.ndjson")
    p_demo.set_defaults(func=cmd_recover_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; bad usage is a
        # config error under this tool's exit-code contract.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SecelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
