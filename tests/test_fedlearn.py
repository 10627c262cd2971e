"""Federated logistic regression over the secure-aggregation round."""

import csv
import math

import pytest

from secel.algebra import DEFAULT_PRIME, FixedPointCodec, PrimeModulus
from secel.errors import ConfigError, RoundRejected
from secel.fedlearn import (
    ACCURACY_HEADER,
    DEFAULT_FRACTIONS,
    MODEL_DIM,
    TrainConfig,
    accuracy,
    dropout_experiment,
    dropout_schedule,
    gradient,
    local_update,
    loss,
    make_blobs,
    plaintext_global_aggregate,
    predict_proba,
    secure_global_aggregate,
    train,
    write_accuracy_csv,
)


# ---- task generation -------------------------------------------------------------------


def test_make_blobs_is_deterministic_and_shaped():
    a = make_blobs(parties=4, points_per_party=12, test_count=30, seed=7)
    b = make_blobs(parties=4, points_per_party=12, test_count=30, seed=7)
    c = make_blobs(parties=4, points_per_party=12, test_count=30, seed=8)
    assert a == b and a != c
    assert len(a.shards) == 4 and all(len(s) == 12 for s in a.shards)
    assert len(a.test_points) == 30 and len(a.train_points) == 48
    assert {p[2] for p in a.train_points} <= {0, 1}


def test_blob_task_is_nearly_separable():
    task = make_blobs(parties=2, points_per_party=50, test_count=200, seed=0)
    # the fixed separating direction classifies almost everything correctly
    w = [1.0, 1.0, 0.0]
    assert accuracy(w, task.test_points) >= 0.95


# ---- model calculus --------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    task = make_blobs(parties=1, points_per_party=9, test_count=1, seed=3)
    shard = task.shards[0]
    w = [0.4, -0.6, 0.2]
    g = gradient(w, shard)
    eps = 1e-6
    for j in range(MODEL_DIM):
        wp, wm = list(w), list(w)
        wp[j] += eps
        wm[j] -= eps
        fd = (loss(wp, shard) - loss(wm, shard)) / (2 * eps)
        assert abs(fd - g[j]) <= 1e-5 * max(1.0, abs(fd))


def test_local_update_eta_zero_is_noop():
    shard = make_blobs(1, 8, 1, 0).shards[0]
    w = [0.1, 0.2, 0.3]
    assert local_update(w, shard, eta=0.0, tau=7) == w


def test_local_update_single_point_matches_hand_gradient():
    point = (2.0, -1.0, 1)
    w = [0.5, 0.25, -0.125]
    eta = 0.3
    z = w[0] * 2.0 + w[1] * -1.0 + w[2]
    err = 1.0 / (1.0 + math.exp(-z)) - 1
    expected = [w[0] - eta * err * 2.0, w[1] - eta * err * -1.0, w[2] - eta * err]
    got = local_update(w, [point], eta, tau=1)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(got, expected))


def test_local_update_composes():
    shard = make_blobs(1, 6, 1, 5).shards[0]
    w = [0.0, 0.0, 0.0]
    assert local_update(w, shard, 0.2, 2) == local_update(
        local_update(w, shard, 0.2, 1), shard, 0.2, 1
    )


def test_local_update_rejects_empty_shard():
    with pytest.raises(ConfigError):
        local_update([0.0] * 3, [], 0.1, 1)


def test_predict_proba_is_a_probability():
    assert 0.0 < predict_proba([10.0, 10.0, 5.0], (100.0, 100.0, 1)) <= 1.0
    assert predict_proba([0.0, 0.0, 0.0], (3.0, -2.0, 0)) == 0.5


# ---- one aggregation step ----------------------------------------------------------------


def test_secure_aggregate_single_contributor_is_its_quantized_vector():
    models = {1: [0.75, -1.5, 0.125], 2: [9.9, 9.9, 9.9]}
    out = secure_global_aggregate(models, t=2, s_min=1, seed=4, dropped=(2,))
    assert out.members == [1]
    codec = FixedPointCodec(16, 8.0)
    modulus = PrimeModulus(DEFAULT_PRIME)
    roundtrip = codec.decode(codec.encode(models[1], modulus), modulus)
    assert out.average == roundtrip
    assert max(abs(a - b) for a, b in zip(out.average, models[1])) <= 2**-16


def test_secure_aggregate_matches_plaintext_mean():
    import random

    rng = random.Random(12)
    models = {i: [rng.uniform(-2, 2) for _ in range(5)] for i in range(1, 5)}
    out = secure_global_aggregate(models, t=2, seed=12)
    truth = plaintext_global_aggregate(models, [1, 2, 3, 4])
    assert out.members == [1, 2, 3, 4]
    assert max(abs(a - b) for a, b in zip(out.average, truth)) <= 2**-16


def test_secure_aggregate_averages_over_survivors_only():
    import random

    rng = random.Random(9)
    models = {i: [rng.uniform(-1, 1) for _ in range(4)] for i in range(1, 7)}
    out = secure_global_aggregate(models, t=2, s_min=2, seed=9, dropped=(2, 5))
    assert out.members == [1, 3, 4, 6]
    truth = plaintext_global_aggregate(models, [1, 3, 4, 6])
    assert max(abs(a - b) for a, b in zip(out.average, truth)) <= 2**-16


def test_secure_aggregate_rejection_propagates():
    models = {i: [0.5] * 3 for i in range(1, 4)}
    with pytest.raises(RoundRejected):
        secure_global_aggregate(models, t=2, s_min=1, seed=1, dropped=(1, 2, 3))


def test_secure_aggregate_requires_dense_party_ids():
    with pytest.raises(ConfigError):
        secure_global_aggregate({1: [0.0], 3: [0.0]}, t=2)


def test_plaintext_aggregate_requires_members():
    with pytest.raises(RoundRejected):
        plaintext_global_aggregate({1: [0.0]}, [])


# ---- configuration ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"parties": 1},
        {"rounds": 0},
        {"tau": 0},
        {"eta": -0.1},
        {"dropout": 1.0},
        {"dropout": -0.01},
        {"s_min": 0},
        {"s_min": 25},
        {"dropout": 0.75},  # leaves fewer than the default quorum
        {"t": 1},
        {"t": 99},
        {"points_per_party": 0},
        {"aggregate": "homeopathic"},
    ],
)
def test_train_config_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**{"parties": 24, **kwargs}).validate()


def test_dropout_schedule_deterministic_and_sized():
    cfg = TrainConfig(parties=12, rounds=6, dropout=1 / 3, seed=5)
    a = dropout_schedule(cfg)
    assert a == dropout_schedule(cfg)
    assert len(a) == 6
    for dropped in a:
        assert len(dropped) == 4 == cfg.drop_count
        assert len(set(dropped)) == 4
        assert all(1 <= i <= 12 for i in dropped)
    assert dropout_schedule(TrainConfig(parties=12, rounds=6, dropout=1 / 3, seed=6)) != a


def test_drop_count_rounds_to_nearest():
    assert TrainConfig(parties=24, dropout=1 / 24).drop_count == 1
    assert TrainConfig(parties=24, dropout=1 / 3).drop_count == 8
    assert TrainConfig(parties=4, dropout=1 / 24).drop_count == 0


# ---- the training loop -------------------------------------------------------------------


def test_training_baseline_learns_the_task():
    run = train(TrainConfig(parties=6, rounds=5, seed=1, points_per_party=20))
    assert run.final_accuracy >= 0.95
    assert run.rejected_rounds == [] and run.max_staleness == 0
    initial_loss = math.log(2)  # zero model on a balanced task
    assert run.rows[-1][2] < initial_loss
    assert [r[1] for r in run.rows] == [1, 2, 3, 4, 5]


def test_training_with_dropout_marks_staleness():
    run = train(
        TrainConfig(parties=6, rounds=4, dropout=1 / 6, s_min=3, seed=2)
    )
    assert run.max_staleness >= 1
    assert len(run.rows) == 4
    assert run.final_accuracy >= 0.9


def test_secure_and_plaintext_pipelines_agree_at_equal_seeds():
    base = dict(parties=6, rounds=4, dropout=1 / 6, s_min=3, seed=3)
    secure = train(TrainConfig(**base, aggregate="secure"))
    plain = train(TrainConfig(**base, aggregate="plaintext"))
    # identical dropout schedule, identical data: only quantization differs
    assert max(
        abs(a - b) for a, b in zip(secure.final_w, plain.final_w)
    ) <= len(secure.final_w) * 2**-12
    assert abs(secure.final_accuracy - plain.final_accuracy) <= 0.01
    assert [r[1] for r in secure.rows] == [r[1] for r in plain.rows]


def test_training_is_deterministic():
    cfg = dict(parties=5, rounds=3, dropout=0.2, s_min=2, seed=8)
    a = train(TrainConfig(**cfg))
    b = train(TrainConfig(**cfg))
    assert a.final_w == b.final_w and a.rows == b.rows


# ---- the sweep ---------------------------------------------------------------------------


def test_dropout_experiment_row_shape_and_csv(tmp_path):
    base = TrainConfig(parties=6, rounds=2, s_min=2, seed=4, points_per_party=10)
    path = tmp_path / "accuracy.csv"
    runs = dropout_experiment(base)
    assert [run.config.dropout for run in runs] == list(DEFAULT_FRACTIONS)
    rows = [row for run in runs for row in run.rows]
    assert len(rows) == len(DEFAULT_FRACTIONS) * 2
    fs = sorted({r[0] for r in rows})
    assert fs == sorted(DEFAULT_FRACTIONS)
    write_accuracy_csv(str(path), rows)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert tuple(header) == ACCURACY_HEADER
    assert len(body) == len(rows)
    assert dropout_experiment(base) == runs  # deterministic re-run
