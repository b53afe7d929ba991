"""Classifier: init, forward pass, weighting, training, serialization."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_trial
from ausentinel.core import (
    N_AUS,
    ContractError,
    GroundTruth,
    ModelIntegrityError,
    UnusableCorpusError,
    catalog_hash,
)
from ausentinel.model import (
    N_CLASSES,
    N_HIDDEN,
    ModelParams,
    TrainConfig,
    classify_timestep,
    corpus_matrices,
    finetune,
    forward,
    init_params,
    load,
    loss_and_gradients,
    save,
    train,
)


def separable_corpus(n_quiet=100, n_error=10, seed=0):
    """Quiet timesteps near zero, error timesteps strongly elevated."""
    rng = np.random.default_rng(seed)
    n = n_quiet + n_error
    au = rng.uniform(0.0, 0.4, (n, N_AUS))
    start = n_quiet // 2
    au[start : start + n_error, :5] += 3.0
    gt = GroundTruth(start, start + n_error - 1, max(start - 1, 0))
    return [make_trial(au, gt)]


def test_init_is_seeded_and_bounded():
    a = init_params(0)
    b = init_params(0)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert not np.array_equal(a.w1, init_params(1).w1)
    assert not a.b1.any() and not a.b2.any()
    assert np.abs(a.w1).max() <= 0.5 / math.sqrt(N_AUS)
    assert np.abs(a.w2).max() <= 0.5 / math.sqrt(N_HIDDEN)
    assert a.w1.shape == (N_AUS, N_HIDDEN)
    assert a.w2.shape == (N_HIDDEN, N_CLASSES)


def test_params_validation():
    p = init_params(0)
    with pytest.raises(ContractError):
        replace(p, w1=np.zeros((3, 3)))
    with pytest.raises(ContractError):
        replace(p, b2=np.array([np.inf, 0.0]))


def bias_only(b2):
    """Zeroed weights leave the output biases as every row's logits."""
    return replace(init_params(0), w1=np.zeros((N_AUS, N_HIDDEN)),
                   w2=np.zeros((N_HIDDEN, N_CLASSES)), b2=np.array(b2))


def test_forward_softmax_example():
    # Logits (0, ln 3) must produce probabilities (0.25, 0.75).
    (p0, p1), = forward(bias_only([0.0, math.log(3.0)]), np.zeros((1, N_AUS)))
    assert abs(p0 - 0.25) < 1e-12
    assert abs(p1 - 0.75) < 1e-12


def test_forward_probabilities_normalize():
    params = init_params(7)
    rng = np.random.default_rng(11)
    probs = forward(params, rng.uniform(0, 5, (200, N_AUS)))
    assert probs.shape == (200, N_CLASSES)
    assert (np.abs(probs.sum(axis=1) - 1.0) < 1e-9).all()
    assert ((0.0 <= probs[:, 0]) & (probs[:, 0] <= 1.0)).all()


def test_classify_timestep_frozen_examples():
    rows = np.zeros((3, N_AUS))
    # p_error 0.75 wins and is its own weight.
    weights = classify_timestep(bias_only([0.0, math.log(3.0)]), rows)
    assert weights.shape == (3,)
    assert (weights == forward(bias_only([0.0, math.log(3.0)]), rows)[:, 1]).all()
    assert (np.abs(weights - 0.75) < 1e-12).all()
    # p_error 0.1 loses: weight 0.
    assert (classify_timestep(bias_only([math.log(9.0), 0.0]), rows) == 0.0).all()
    # Exact tie p_error = 0.5 resolves to no-error.
    assert (forward(bias_only([0.0, 0.0]), rows)[:, 1] == 0.5).all()
    assert (classify_timestep(bias_only([0.0, 0.0]), rows) == 0.0).all()


def test_classify_timestep_carries_index():
    # Row i of a whole-trial batch is timestep i, scored as if alone.
    trial = separable_corpus()[0]
    params = train([trial], TrainConfig(epochs=30, seed=2))
    weights = classify_timestep(params, trial.au)
    assert weights.shape == (len(trial),)
    assert ((weights == 0.0) | (weights > 0.5)).all()
    assert (weights > 0.5).any() and (weights == 0.0).any()
    for i, row in enumerate(trial.au):
        assert weights[i] == classify_timestep(params, row[None])[0]


def test_corpus_matrices_shapes():
    corpus = separable_corpus()
    X, y = corpus_matrices(corpus)
    assert X.shape == (110, N_AUS)
    assert y.sum() == 10
    assert y.dtype == bool


def test_loss_matches_direct_computation():
    params = init_params(3)
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 5, (6, N_AUS))
    y = np.array([0, 1, 0, 1, 1, 0])
    loss, _ = loss_and_gradients(params, X, y)
    probs = forward(params, X)
    expected = -np.mean(np.log(probs[np.arange(6), y]))
    assert abs(loss - expected) < 1e-12
    with pytest.raises(ContractError):
        loss_and_gradients(params, X, np.array([0, 1, 0, 2, 1, 0]))
    with pytest.raises(ContractError):
        loss_and_gradients(params, X[:0], y[:0])


def test_gradient_descent_reduces_loss():
    corpus = separable_corpus()
    log: list = []
    train(corpus, TrainConfig(epochs=120, learning_rate=0.2, seed=0), log)
    assert log[-1]["loss"] < log[0]["loss"] / 2


def test_training_is_deterministic():
    corpus = separable_corpus()
    hyper = TrainConfig(epochs=40, learning_rate=0.2, seed=9)
    a = train(corpus, hyper)
    b = train(corpus, hyper)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b1, b.b1)
    assert np.array_equal(a.w2, b.w2) and np.array_equal(a.b2, b.b2)


def test_training_rebalances_every_epoch():
    corpus = separable_corpus(n_quiet=100, n_error=10)
    log: list = []
    train(corpus, TrainConfig(epochs=25, learning_rate=0.1, seed=2), log)
    assert len(log) == 25
    assert all(e["n_error"] == e["n_no_error"] == 10 for e in log)


def test_training_degenerate_imbalance_warns(caplog):
    corpus = separable_corpus(n_quiet=4, n_error=10)
    log: list = []
    with caplog.at_level("WARNING", logger="ausentinel.model"):
        train(corpus, TrainConfig(epochs=5, learning_rate=0.1, seed=0), log)
    assert any("undersampling degenerates" in r.message for r in caplog.records)
    assert all(e["n_no_error"] == 4 for e in log)


def test_training_needs_error_labels():
    au = np.random.default_rng(0).uniform(0, 1, (30, N_AUS))
    corpus = [make_trial(au, None, error_type="none")]
    with pytest.raises(UnusableCorpusError):
        train(corpus, TrainConfig(epochs=1, learning_rate=0.1, seed=0))


@pytest.mark.parametrize("epochs, learning_rate", [
    (-1, 0.1), (1, 0.0), (1, math.nan), (1, math.inf),
], ids=["epochs-negative", "rate-zero", "rate-nan", "rate-inf"])
def test_train_config_refuses_bad_hyperparameters(epochs, learning_rate):
    with pytest.raises(UnusableCorpusError):
        TrainConfig(epochs=epochs, learning_rate=learning_rate)


def test_finetune_continues_from_base():
    corpus = separable_corpus()
    base = train(corpus, TrainConfig(epochs=30, learning_rate=0.2, seed=0))
    tuned = finetune(base, corpus, TrainConfig(epochs=10, learning_rate=0.05,
                                               seed=1))
    assert not np.array_equal(base.w1, tuned.w1)
    same = finetune(base, corpus, TrainConfig(epochs=0, learning_rate=0.05,
                                              seed=1))
    assert np.array_equal(base.w1, same.w1)
    with pytest.raises(UnusableCorpusError):
        finetune(base, [], TrainConfig(epochs=1, learning_rate=0.05, seed=0))


def test_save_load_roundtrip_is_exact(tmp_path):
    corpus = separable_corpus()
    params = train(corpus, TrainConfig(epochs=15, learning_rate=0.2, seed=4))
    path = tmp_path / "model.json"
    save(params, path)
    loaded = load(path)
    assert np.array_equal(params.w1, loaded.w1)
    assert np.array_equal(params.b1, loaded.b1)
    assert np.array_equal(params.w2, loaded.w2)
    assert np.array_equal(params.b2, loaded.b2)
    assert loaded.seed == 4 and loaded.epochs == 15


def test_model_file_layout(tmp_path):
    params = init_params(0)
    path = tmp_path / "model.json"
    save(params, path)
    text = path.read_text()
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["catalog_hash"] == catalog_hash()
    assert obj["activation"] == "relu"
    assert len(obj["w1"]) == N_AUS * N_HIDDEN
    # row-major: w1[i, j] lives at flat index i * N_HIDDEN + j
    assert obj["w1"][1 * N_HIDDEN + 2] == params.w1[1, 2]


def test_load_rejects_corrupt_files(tmp_path):
    params = init_params(0)
    path = tmp_path / "model.json"
    save(params, path)
    obj = json.loads(path.read_text())

    bad = dict(obj, catalog_hash="0" * 64)
    (tmp_path / "bad1.json").write_text(json.dumps(bad))
    with pytest.raises(ModelIntegrityError):
        load(tmp_path / "bad1.json")

    bad = dict(obj, version=99)
    (tmp_path / "bad2.json").write_text(json.dumps(bad))
    with pytest.raises(ModelIntegrityError):
        load(tmp_path / "bad2.json")

    bad = dict(obj, w2=obj["w2"][:-1])
    (tmp_path / "bad3.json").write_text(json.dumps(bad))
    with pytest.raises(ModelIntegrityError):
        load(tmp_path / "bad3.json")

    (tmp_path / "bad4.json").write_text(path.read_text()[:40])
    with pytest.raises(ModelIntegrityError):
        load(tmp_path / "bad4.json")

    bad = dict(obj, activation="tanh")  # relu is the only activation
    (tmp_path / "bad5.json").write_text(json.dumps(bad))
    with pytest.raises(ModelIntegrityError):
        load(tmp_path / "bad5.json")


# ---------------------------------------------------------------------------
# Parity with the reference training loop: a verbatim copy (relu only) of the
# straightforward implementation the package shipped with. Training may be
# rewritten for speed, but every weight and logged loss must keep its bits.


def _ref_softmax_rows(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_loss_and_gradients(w1, b1, w2, b2, X, y):
    n = X.shape[0]
    h_pre = X @ w1 + b1
    h = np.maximum(h_pre, 0.0)
    logits = h @ w2 + b2
    p = _ref_softmax_rows(logits)
    loss = float(-np.mean(np.log(p[np.arange(n), y] + 1e-300)))
    d_logits = p.copy()
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    g_w2 = h.T @ d_logits
    g_b2 = d_logits.sum(axis=0)
    d_h = d_logits @ w2.T
    d_pre = d_h * (h_pre > 0)
    g_w1 = X.T @ d_pre
    g_b1 = d_pre.sum(axis=0)
    return loss, {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2}


def _ref_fit(start, X, y_labels, hyper):
    err_idx = np.flatnonzero(y_labels)
    noerr_idx = np.flatnonzero(~y_labels)
    n_err = err_idx.size
    degenerate = noerr_idx.size < n_err
    rng = np.random.default_rng(hyper.seed)
    w1, b1 = start.w1.copy(), start.b1.copy()
    w2, b2 = start.w2.copy(), start.b2.copy()
    y_int = y_labels.astype(np.int64)
    log = []
    for epoch in range(hyper.epochs):
        if degenerate:
            sampled = noerr_idx
        else:
            sampled = rng.choice(noerr_idx, size=n_err, replace=False)
        idx = np.concatenate([err_idx, sampled])
        loss, grads = _ref_loss_and_gradients(w1, b1, w2, b2, X[idx], y_int[idx])
        w1 -= hyper.learning_rate * grads["w1"]
        b1 -= hyper.learning_rate * grads["b1"]
        w2 -= hyper.learning_rate * grads["w2"]
        b2 -= hyper.learning_rate * grads["b2"]
        log.append({"epoch": epoch, "loss": loss, "n_error": int(n_err),
                    "n_no_error": int(sampled.size)})
    return (w1, b1, w2, b2), log


def _weight_bytes(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("seed", [0, 3, 9])
@pytest.mark.parametrize("degenerate", [False, True])
def test_training_matches_reference_loop_bit_for_bit(tiny_corpus, seed, degenerate):
    # Degenerate: 4 no-error timesteps for 10 error ones, so every epoch
    # trains on the full no-error set instead of a sample.
    corpus = separable_corpus(4, 10, seed) if degenerate else tiny_corpus
    hyper = TrainConfig(epochs=60, learning_rate=0.3, seed=seed)
    X, y = corpus_matrices(corpus)
    want, want_log = _ref_fit(init_params(seed), X, y, hyper)
    log: list = []
    got = train(corpus, hyper, log)
    assert _weight_bytes((got.w1, got.b1, got.w2, got.b2)) == _weight_bytes(want)
    assert log == want_log
    # Without an epoch log the weights are the same.
    quiet = train(corpus, hyper)
    assert _weight_bytes((quiet.w1, quiet.b1, quiet.w2, quiet.b2)) == _weight_bytes(want)


@pytest.mark.parametrize("seed", [1, 4])
def test_finetune_matches_reference_loop_bit_for_bit(tiny_corpus, seed):
    base = train(tiny_corpus, TrainConfig(epochs=30, learning_rate=0.3, seed=0))
    hyper = TrainConfig(epochs=40, learning_rate=0.1, seed=seed)
    trials = tiny_corpus[:1]
    X, y = corpus_matrices(trials)
    want, want_log = _ref_fit(base, X, y, hyper)
    log: list = []
    got = finetune(base, trials, hyper, log)
    assert _weight_bytes((got.w1, got.b1, got.w2, got.b2)) == _weight_bytes(want)
    assert log == want_log
    assert _weight_bytes((base.w1, base.b1, base.w2, base.b2)) != _weight_bytes(want)


def test_loss_and_gradients_match_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(200):
        params = replace(
            init_params(0),
            w1=rng.normal(0.0, 0.5, (N_AUS, N_HIDDEN)),
            b1=rng.normal(0.0, 0.3, N_HIDDEN),
            w2=rng.normal(0.0, 1.0, (N_HIDDEN, N_CLASSES)),
            b2=rng.normal(0.0, 0.3, N_CLASSES),
        )
        n = int(rng.integers(1, 40))
        X = rng.uniform(0.0, 5.0, (n, N_AUS))
        y = rng.integers(0, 2, n)
        loss, grads = loss_and_gradients(params, X, y)
        want_loss, want = _ref_loss_and_gradients(
            params.w1, params.b1, params.w2, params.b2, X, y)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        for name in ("w1", "b1", "w2", "b2"):
            assert grads[name].tobytes() == want[name].tobytes(), name


def test_forward_matches_reference_softmax_bit_for_bit():
    # Every row of a batch keeps the bits of the single-row reference, at
    # batch sizes on both sides of where a plain `X @ w1` starts to differ.
    params = replace(init_params(5), b2=np.array([0.4, -0.7]))
    rng = np.random.default_rng(23)
    X = rng.uniform(0.0, 5.0, (2000, N_AUS))
    want = np.array([
        _ref_softmax_rows(
            np.maximum(x @ params.w1 + params.b1, 0.0) @ params.w2 + params.b2)
        for x in X
    ])
    for n in (1, 2, 3, 4, 7, 180, 2000):
        got = forward(params, X[:n])
        assert got.shape == (n, N_CLASSES)
        assert got.tobytes() == want[:n].tobytes(), n
