"""Per-timestep classifier: a 17-4-2 relu network with confidence-weighted output.

Each 1/3 s timestep is classified independently from its 17 AU intensities
(no temporal features). `classify_timestep` is the one scoring entry point:
it maps an (n, 17) batch of AU rows to n weights, each the softmax error
probability when the error class wins the argmax and 0 otherwise — so
weights are either 0 or in (0.5, 1], and the sliding-window filter
downstream sums them. `forward` scores every row as its own 1×17 product,
so a row gets the same bits whether a whole trial is scored at once or the
live path scores it alone.

Training rebalances classes by randomly undersampling no-error timesteps
every epoch to match the error-timestep count, then takes one full-batch
gradient step on the softmax cross-entropy. Everything is deterministic
given the seed. One kernel, `_gradients`, computes the batch loss and
gradients for `train`, `finetune` and `loss_and_gradients`; it and
`forward` share one two-class softmax, so live scores and training see the
same probabilities bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ausentinel.core import (
    N_AUS,
    ContractError,
    ModelIntegrityError,
    TrialRecord,
    UnusableCorpusError,
    catalog_hash,
    check_field,
    numbers,
    read_json,
    write_json,
)

logger = logging.getLogger(__name__)

N_HIDDEN = 4
N_CLASSES = 2
MODEL_FILE_VERSION = 1
HIDDEN_ACTIVATION = "relu"  # model files name it; nothing else is built

# The scalar fields of a model file and their kinds (see `core.check_field`).
# `catalog_hash` and `activation` must equal this build's; the weights follow.
_FIELDS = {"version": (int, MODEL_FILE_VERSION, MODEL_FILE_VERSION), "seed": (int, 0),
           "epochs": (int, 0), "learning_rate": (float,)}

# The weight arrays of a model, by field name, with their shapes.
_SHAPES = {
    "w1": (N_AUS, N_HIDDEN),
    "b1": (N_HIDDEN,),
    "w2": (N_HIDDEN, N_CLASSES),
    "b2": (N_CLASSES,),
}


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Network weights plus the training metadata needed to reproduce them."""

    w1: np.ndarray  # (17, 4)
    b1: np.ndarray  # (4,)
    w2: np.ndarray  # (4, 2)
    b2: np.ndarray  # (2,)
    seed: int = 0
    epochs: int = 0
    learning_rate: float = 0.0

    def __post_init__(self) -> None:
        for name, want in _SHAPES.items():
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.shape != want:
                raise ModelIntegrityError(f"{name} must have shape {want}")
            if arr.dtype != np.float64:
                raise ModelIntegrityError(f"{name} must be float64")
            if not np.all(np.isfinite(arr)):
                raise ModelIntegrityError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    learning_rate: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise UnusableCorpusError("epochs must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise UnusableCorpusError("learning_rate must be > 0 and finite")
        if self.seed < 0:
            raise UnusableCorpusError("seed must be >= 0")


def init_params(seed: int = 0) -> ModelParams:
    """Seeded initialization: weights U(-0.5, 0.5)/sqrt(fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    w1 = (rng.random((N_AUS, N_HIDDEN)) - 0.5) / math.sqrt(N_AUS)
    w2 = (rng.random((N_HIDDEN, N_CLASSES)) - 0.5) / math.sqrt(N_HIDDEN)
    return ModelParams(
        w1=w1, b1=np.zeros(N_HIDDEN), w2=w2, b2=np.zeros(N_CLASSES), seed=seed,
    )


def _softmax2(logits: np.ndarray) -> np.ndarray:
    """Two-class softmax over the last axis of one logit pair or an (n, 2) batch.

    Bit-identical to the generic max-shift softmax: the max and the sum of
    a pair are each one operation, so no reduction is needed.
    """
    e = logits - np.maximum(logits[..., 0], logits[..., 1])[..., np.newaxis]
    np.exp(e, out=e)
    e /= (e[..., 0] + e[..., 1])[..., np.newaxis]
    return e


def forward(params: ModelParams, X) -> np.ndarray:
    """Forward pass over an (n, 17) batch → (n, 2) rows of (p_no_error, p_error).

    Each row is a 1×17 and then a 1×4 product of its own (a stacked matmul),
    so its bits do not depend on the batch around it; a plain `X @ w1` lets
    BLAS block rows together and moves the last bit of some of them.
    """
    X = np.asarray(X, dtype=np.float64)
    # Overflow is caught below as non-finite logits; numpy's own warning
    # would only add noise ahead of that error.
    with np.errstate(over="ignore", invalid="ignore"):
        h = X[:, np.newaxis, :] @ params.w1
        h += params.b1
        np.maximum(h, 0.0, out=h)
        logits = (h @ params.w2)[:, 0, :]
        logits += params.b2
    if not np.isfinite(logits).all():
        raise ModelIntegrityError("non-finite logits in forward pass")
    return _softmax2(logits)


def classify_timestep(params: ModelParams, X) -> np.ndarray:
    """Confidence weights of an (n, 17) batch: p_error where it wins, else 0.

    The exact tie p_error = 0.5 resolves to no-error, so no weight lies in
    the open interval (0, 0.5).
    """
    p_error = forward(params, X)[:, 1]
    return np.where(p_error > 0.5, p_error, 0.0)


def corpus_matrices(corpus: list[TrialRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Stack a corpus into (X, y): intensities (n, 17) and boolean labels (n,)."""
    if not corpus:
        return np.zeros((0, N_AUS)), np.zeros(0, dtype=bool)
    return (np.concatenate([t.au for t in corpus]),
            np.concatenate([t.label_array() for t in corpus]))


def _column_sums(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=0)` bit for bit, cheaper on a narrow (n, 2) or (n, 4) array.

    Both add the rows in order. The sum starts from +0.0, so a column of
    -0.0 sums to +0.0; adding 0.0 to the last running sum does the same and
    changes no other value.
    """
    out = np.add.accumulate(a, axis=0)[-1]
    out += 0.0
    return out


def _gradients(w1, b1, w2, b2, X, y_err, y_ok, want_loss: bool):
    """The training kernel: mean cross-entropy and its gradients on one batch.

    `y_err` and `y_ok` are the batch's label columns as 1.0/0.0 floats. The
    loss is None unless `want_loss`. Temporaries are updated in place, but
    each matmul keeps its operand shapes and each bias gradient adds the
    rows in order: those fix the summation order, so the results match the
    straightforward formulation (kept as the reference in
    tests/test_model.py) bit for bit.
    """
    h = X @ w1
    h += b1
    active = h > 0
    np.maximum(h, 0.0, out=h)
    d_logits = h @ w2
    d_logits += b2
    d_logits = _softmax2(d_logits)
    loss = None
    if want_loss:
        p_true = np.where(y_err, d_logits[:, 1], d_logits[:, 0])
        loss = float(-np.mean(np.log(p_true + 1e-300)))  # guards log(0) only
    d_logits[:, 0] -= y_ok
    d_logits[:, 1] -= y_err
    d_logits /= X.shape[0]
    g_w2 = h.T @ d_logits
    g_b2 = _column_sums(d_logits)
    d_pre = d_logits @ w2.T
    d_pre *= active
    g_w1 = X.T @ d_pre
    g_b1 = _column_sums(d_pre)
    return loss, g_w1, g_b1, g_w2, g_b2


def loss_and_gradients(params: ModelParams, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over a batch plus analytic gradients for all params.

    y holds integer class indices (0 = no error, 1 = error). An empty batch
    has no mean, so it is refused.
    """
    y_err = np.asarray(y, dtype=np.float64)
    if ((y_err != 0.0) & (y_err != 1.0)).any():
        raise ContractError("class indices must be 0 or 1")
    if len(X) == 0:
        raise ContractError("loss of an empty batch")
    loss, g_w1, g_b1, g_w2, g_b2 = _gradients(
        params.w1, params.b1, params.w2, params.b2, X, y_err, 1.0 - y_err, True)
    return loss, {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2}


# A learning rate that diverges overflows the weights, which is refused at the
# end; numpy's warnings on the way would only add noise ahead of that error.
@np.errstate(over="ignore", invalid="ignore")
def _fit(start: ModelParams, X: np.ndarray, y_labels: np.ndarray,
         hyper: TrainConfig, epoch_log: list | None = None) -> ModelParams:
    err_idx = np.flatnonzero(y_labels)
    noerr_idx = np.flatnonzero(~y_labels)
    n_err = err_idx.size
    if n_err == 0:
        raise UnusableCorpusError(
            "corpus has no error-labeled timesteps; undersampling rule needs >= 1"
        )
    degenerate = noerr_idx.size < n_err
    if degenerate:
        logger.warning(
            "only %d no-error timesteps for %d error timesteps; "
            "undersampling degenerates to the full no-error set",
            noerr_idx.size, n_err,
        )
    n_ok = noerr_idx.size if degenerate else n_err  # equal class counts, every epoch
    # The batch is the error rows, then this epoch's no-error rows; only the
    # second block changes between epochs (never, when degenerate).
    batch = np.empty((n_err + n_ok, X.shape[1]))
    X.take(err_idx, axis=0, out=batch[:n_err])
    if degenerate:
        X.take(noerr_idx, axis=0, out=batch[n_err:])
    y_err = np.zeros(n_err + n_ok)
    y_err[:n_err] = 1.0
    y_ok = 1.0 - y_err
    rng = np.random.default_rng(hyper.seed)
    lr = hyper.learning_rate
    w1, b1 = start.w1.copy(), start.b1.copy()
    w2, b2 = start.w2.copy(), start.b2.copy()
    for epoch in range(hyper.epochs):
        if not degenerate:
            sampled = rng.choice(noerr_idx, size=n_err, replace=False)
            # The indices are valid, so "clip" only skips a buffered copy.
            X.take(sampled, axis=0, out=batch[n_err:], mode="clip")
        loss, g_w1, g_b1, g_w2, g_b2 = _gradients(
            w1, b1, w2, b2, batch, y_err, y_ok, epoch_log is not None)
        for param, grad in ((w1, g_w1), (b1, g_b1), (w2, g_w2), (b2, g_b2)):
            grad *= lr
            param -= grad
        if epoch_log is not None:
            epoch_log.append({
                "epoch": epoch,
                "loss": loss,
                "n_error": int(n_err),
                "n_no_error": int(n_ok),
            })
    try:
        return ModelParams(
            w1=w1, b1=b1, w2=w2, b2=b2,
            seed=hyper.seed, epochs=hyper.epochs, learning_rate=hyper.learning_rate,
        )
    except ModelIntegrityError as exc:
        raise ModelIntegrityError(f"training diverged at learning rate {lr:g}: {exc}") from None


def train(corpus: list[TrialRecord], hyper: TrainConfig | None = None,
          epoch_log: list | None = None) -> ModelParams:
    """Train from scratch on annotated trials; deterministic given hyper.seed."""
    hyper = hyper or TrainConfig()
    X, y = corpus_matrices(corpus)
    start = init_params(hyper.seed)
    return _fit(start, X, y, hyper, epoch_log)


def finetune(params: ModelParams, trials: list[TrialRecord], hyper: TrainConfig,
             epoch_log: list | None = None) -> ModelParams:
    """Continue optimization from `params` on the given trials only, with a
    fine-tune recipe (see `evaluation.finetune_recipe`).

    Zero epochs returns the input parameters unchanged.
    """
    if hyper.epochs == 0:
        return params
    if not trials:
        raise UnusableCorpusError("finetune requires at least one trial")
    X, y = corpus_matrices(trials)
    return _fit(params, X, y, hyper, epoch_log)


def save(params: ModelParams, path) -> None:
    """Serialize to a versioned JSON container; byte-stable for equal params.

    Weights are flat row-major lists; floats use shortest round-trip repr,
    so save→load→save is byte-identical.
    """
    doc = {
        "version": MODEL_FILE_VERSION,
        "catalog_hash": catalog_hash(),
        "activation": HIDDEN_ACTIVATION,
        "seed": params.seed,
        "epochs": params.epochs,
        "learning_rate": params.learning_rate,
        **{name: getattr(params, name).ravel().tolist() for name in _SHAPES},
    }
    write_json(path, doc)


def load(path) -> ModelParams:
    """Load a model file, refusing version or AU-ordering mismatches and any
    field of the wrong JSON type (see README, "Model file")."""
    try:
        doc = read_json(path, f"model file {path}")
        check_field("model file", doc, dict)
        fields = {name: check_field(f"model file {name}", doc[name], *rule)
                  for name, rule in _FIELDS.items()}
        if doc["catalog_hash"] != catalog_hash():
            raise ModelIntegrityError("model file AU catalog does not match this build")
        if doc["activation"] != HIDDEN_ACTIVATION:
            raise ModelIntegrityError(f"unsupported activation {doc['activation']!r}")
        for name, shape in _SHAPES.items():
            values = check_field(f"model file {name}", doc[name], numbers(math.prod(shape)))
            fields[name] = np.array(values, dtype=np.float64).reshape(shape)
    except KeyError as exc:
        raise ModelIntegrityError(f"malformed model file {path}: missing {exc}")
    except ContractError as exc:  # a fault of a model file is an integrity error
        raise ModelIntegrityError(str(exc)) from None
    del fields["version"]
    return ModelParams(**fields)
