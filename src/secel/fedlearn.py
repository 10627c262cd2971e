"""Desk-scale federated logistic regression with secure aggregation.

Parties hold shards of a synthetic 2-D Gaussian-blob classification task and
train a shared logistic model by weakly asynchronous SGD: every round each
party takes ``tau`` local gradient steps from the last global broadcast it
received, then the round's submitted parameter vectors are combined through a
full masked-aggregation round and averaged over the parties that actually
contributed.  A party that failed to submit keeps training from its stale
broadcast and rejoins later, so dropouts degrade freshness rather than halt
training.

The plaintext twin (`aggregate="plaintext"`) runs the identical loop with a
cleartext mean in place of the protocol round; comparing the two isolates the
quantization noise introduced by the fixed-point codec.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

from .errors import ConfigError, RoundRejected
from .protocol import RoundSpec, run_rounds
from .simnet import Fault, SimConfig, derive_seed

MODEL_DIM = 3  # two blob coordinates + bias
DEFAULT_FRACTIONS = (0.0, 1 / 24, 1 / 12, 1 / 6, 1 / 3)


# ---- synthetic task ------------------------------------------------------------------

# Class means four standard deviations apart: linearly separable in expectation,
# noisy enough that a bad model scores ~0.5.
BLOB_CENTERS = ((-1.5, -1.5), (1.5, 1.5))
BLOB_STDDEV = 0.75

Point = tuple[float, float, int]  # (x0, x1, label)


def _sample_blob(rng: random.Random, count: int) -> list[Point]:
    points = []
    for _ in range(count):
        label = rng.randrange(2)
        cx, cy = BLOB_CENTERS[label]
        points.append(
            (rng.gauss(cx, BLOB_STDDEV), rng.gauss(cy, BLOB_STDDEV), label)
        )
    return points


@dataclass
class BlobTask:
    """Seeded train/test split of the two-blob task, sharded across parties."""

    shards: list[list[Point]]  # shards[i] belongs to party i+1
    test_points: list[Point]

    @property
    def train_points(self) -> list[Point]:
        return [p for shard in self.shards for p in shard]


def make_blobs(
    parties: int, points_per_party: int, test_count: int, seed: int
) -> BlobTask:
    """Generate the task deterministically from the seed."""
    rng = random.Random(derive_seed(seed, "blobs"))
    shards = [_sample_blob(rng, points_per_party) for _ in range(parties)]
    return BlobTask(shards=shards, test_points=_sample_blob(rng, test_count))


# ---- logistic model ------------------------------------------------------------------


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def predict_proba(w: list[float], point: Point) -> float:
    return _sigmoid(w[0] * point[0] + w[1] * point[1] + w[2])


def loss(w: list[float], points: list[Point]) -> float:
    """Mean negative log-likelihood, clamped away from log(0)."""
    eps = 1e-12
    total = 0.0
    for p in points:
        prob = min(max(predict_proba(w, p), eps), 1.0 - eps)
        total += -math.log(prob) if p[2] == 1 else -math.log(1.0 - prob)
    return total / len(points)


def gradient(w: list[float], points: list[Point]) -> list[float]:
    """Mean gradient of the log-loss over the given points."""
    g = [0.0, 0.0, 0.0]
    for p in points:
        err = predict_proba(w, p) - p[2]
        g[0] += err * p[0]
        g[1] += err * p[1]
        g[2] += err
    return [v / len(points) for v in g]


def accuracy(w: list[float], points: list[Point]) -> float:
    hits = sum((predict_proba(w, p) >= 0.5) == (p[2] == 1) for p in points)
    return hits / len(points)


def local_update(
    w: list[float], shard: list[Point], eta: float, tau: int
) -> list[float]:
    """Take tau full-shard gradient steps starting from w."""
    if not shard:
        raise ConfigError("local update on an empty shard")
    out = list(w)
    for _ in range(tau):
        g = gradient(out, shard)
        out = [wi - eta * gi for wi, gi in zip(out, g)]
    return out


# ---- secure aggregation step ---------------------------------------------------------


@dataclass
class AggregateOutcome:
    """One aggregation round: the averaged model and who received it."""

    average: list[float]
    members: list[int]  # contributors whose vectors entered the sum


def secure_global_aggregate(
    models: dict[int, list[float]],
    t: int = 3,
    s_min: int | None = None,
    seed: int = 0,
    dropped: tuple[int, ...] = (),
) -> AggregateOutcome:
    """Average the submitted parameter vectors through one masked round.

    ``models`` maps party id (1..n, dense) to its parameter vector.  Parties in
    ``dropped`` stop transmitting during the masking phase, so their vectors
    never reach the aggregator and the average runs over the survivors only.
    Raises RoundRejected when the round ends without a verified sum.
    """
    ids = sorted(models)
    n = len(ids)
    if ids != list(range(1, n + 1)):
        raise ConfigError("party models must be keyed 1..n")
    dim = len(models[1])
    spec = RoundSpec(
        n=n,
        t=t,
        length=dim,
        s_min=s_min,
        gradients=[models[i] for i in ids],
    )
    faults = [Fault(id=i, phase="masking", action="drop_outbound") for i in dropped]
    state = run_rounds(spec, SimConfig(seed=seed, n=n, faults=faults)).rounds[0]
    if state.phase != "done" or state.decrypted is None:
        raise RoundRejected(state.error or "round did not complete")
    m = len(state.m_set)
    return AggregateOutcome(
        average=[v / m for v in state.decrypted],
        members=state.m_set,
    )


def plaintext_global_aggregate(
    models: dict[int, list[float]], members: list[int]
) -> list[float]:
    """Cleartext twin of the aggregation step: mean over the same contributors."""
    if not members:
        raise RoundRejected("no contributors")
    dim = len(models[members[0]])
    return [sum(models[i][j] for i in members) / len(members) for j in range(dim)]


# ---- training loop -------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Knobs for one federated training run."""

    parties: int = 24
    rounds: int = 20
    eta: float = 0.5
    tau: int = 15
    dropout: float = 0.0  # fraction of parties silenced each round
    s_min: int | None = None  # default: half the parties
    t: int = 3
    seed: int = 0
    points_per_party: int = 40
    test_count: int = 400
    aggregate: str = "secure"  # or "plaintext"

    def validate(self) -> "TrainConfig":
        if self.parties < 2:
            raise ConfigError("need at least two parties")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.tau < 1:
            raise ConfigError("tau must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout fraction must lie in [0, 1)")
        if not 0 <= self.eta < math.inf:  # NaN fails both comparisons
            raise ConfigError("learning rate must be a nonnegative finite number")
        s_min = self.quorum
        if not 1 <= s_min <= self.parties:
            raise ConfigError("s_min must lie in [1, parties]")
        if self.drop_count > self.parties - s_min:
            raise ConfigError(
                "dropout fraction leaves fewer contributors than s_min"
            )
        if not 2 <= self.t <= self.parties:
            raise ConfigError("threshold t must lie in [2, parties]")
        if self.points_per_party < 1 or self.test_count < 1:
            raise ConfigError("dataset sizes must be positive")
        if self.aggregate not in ("secure", "plaintext"):
            raise ConfigError(f"unknown aggregate mode {self.aggregate!r}")
        return self

    @property
    def quorum(self) -> int:
        return self.s_min if self.s_min is not None else max(1, self.parties // 2)

    @property
    def drop_count(self) -> int:
        return round(self.dropout * self.parties)


@dataclass
class TrainRun:
    """History of one run: per-round rows plus the final broadcast model."""

    config: TrainConfig
    rows: list[tuple[float, int, float, float]]  # (f, round, train_loss, test_acc)
    final_w: list[float]
    final_accuracy: float
    rejected_rounds: list[int] = field(default_factory=list)
    max_staleness: int = 0  # longest streak of rounds a party trained stale


def dropout_schedule(config: TrainConfig) -> list[tuple[int, ...]]:
    """Which parties go silent in each round; shared by both pipelines."""
    rng = random.Random(derive_seed(config.seed, "dropout"))
    ids = list(range(1, config.parties + 1))
    return [
        tuple(sorted(rng.sample(ids, config.drop_count)))
        for _ in range(config.rounds)
    ]


def train(config: TrainConfig) -> TrainRun:
    """Run the full weakly asynchronous loop and return its history.

    Every party starts each round from the last global broadcast it received
    (parties that missed rounds train from a stale base), takes tau local
    steps, and submits.  Contributors adopt the new average; a rejected round
    leaves every party on its previous base and training retries next round.
    """
    config.validate()
    task = make_blobs(
        config.parties, config.points_per_party, config.test_count, config.seed
    )
    schedule = dropout_schedule(config)
    ids = list(range(1, config.parties + 1))
    last_global = {i: [0.0] * MODEL_DIM for i in ids}
    last_seen = dict.fromkeys(ids, 0)  # round whose broadcast the party holds
    global_w = [0.0] * MODEL_DIM
    rows = []
    rejected = []
    max_gap = 0

    for r in range(1, config.rounds + 1):
        dropped = schedule[r - 1]
        local = {
            i: local_update(
                last_global[i], task.shards[i - 1], config.eta, config.tau
            )
            for i in ids
        }
        try:
            if config.aggregate == "secure":
                outcome = secure_global_aggregate(
                    local,
                    t=config.t,
                    s_min=config.quorum,
                    seed=derive_seed(config.seed, "round", r),
                    dropped=dropped,
                )
                average, members = outcome.average, outcome.members
            else:
                members = [i for i in ids if i not in dropped]
                average = plaintext_global_aggregate(local, members)
        except RoundRejected:
            rejected.append(r)
        else:
            global_w = average
            for i in members:
                last_global[i] = list(average)
                last_seen[i] = r
            max_gap = max(max_gap, max(r - last_seen[i] for i in ids))
        rows.append(
            (
                config.dropout,
                r,
                loss(global_w, task.train_points),
                accuracy(global_w, task.test_points),
            )
        )

    return TrainRun(
        config=config,
        rows=rows,
        final_w=global_w,
        final_accuracy=accuracy(global_w, task.test_points),
        rejected_rounds=rejected,
        max_staleness=max_gap,
    )


# ---- dropout sweep -------------------------------------------------------------------

ACCURACY_HEADER = ("f", "round", "train_loss", "test_acc")


def dropout_experiment(
    base: TrainConfig, fractions: tuple[float, ...] = DEFAULT_FRACTIONS
) -> list[TrainRun]:
    """Train once per dropout fraction, in order.

    All runs share the base seed, so they see the same data and differ only in
    who goes silent.
    """
    return [train(TrainConfig(**{**base.__dict__, "dropout": f})) for f in fractions]


def write_accuracy_csv(path: str, rows: list[tuple[float, int, float, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ACCURACY_HEADER)
        for f, r, train_loss, test_acc in rows:
            writer.writerow([f"{f:.6f}", r, f"{train_loss:.6f}", f"{test_acc:.4f}"])
