"""Training loop: Adam, LR decay, early stopping, and progressive input
enlargement, on the weighted cross-entropy of `nn_core`.

Datasets are plain lists of patch Samples. A patch stored as (rows, cols,
slices) enters the network as (1, slices, rows, cols), i.e. channel-first
with depth leading the spatial block.

Everything is seeded: epoch shuffles, dropout, and augmentation all derive
from (config.seed, epoch, position), so a run is bit-reproducible.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import nn_core as nn
from .augment import AugmentPolicy, augment_sample
from .nn_core import LabelOutOfRange
from .rebalance import class_weights, DEFAULT_MODE


class EmptyDataset(ValueError):
    pass


class IncompatibleSpec(ValueError):
    """Progressive enlargement cannot map the old model onto the new input."""


class NonFiniteLoss(Exception):
    """A training batch produced a NaN or infinite loss."""


@dataclass
class TrainConfig:
    lr0: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    decay_rate: float = 0.97
    max_epochs: int = 200
    patience: int = 15
    batch_size: int = 8
    seed: int = 0
    weight_mode: str = DEFAULT_MODE
    monitor: str = "val_accuracy"   # or "val_loss"
    augment: AugmentPolicy = None   # None disables augmentation

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0,1)")
        if self.max_epochs > 0 and not self.patience < self.max_epochs:
            raise ValueError("patience must be below max_epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.monitor not in ("val_accuracy", "val_loss"):
            raise ValueError("monitor must be val_accuracy or val_loss")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    lr: float


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


@dataclass
class LevelResult:
    level: str
    spec: nn.ModelSpec
    init_weights: dict
    best_weights: dict
    history: list


def init_adam(weights):
    names = nn.trainable_names(weights)
    return AdamState(m={n: np.zeros_like(weights[n]) for n in names},
                     v={n: np.zeros_like(weights[n]) for n in names},
                     t=0)


def adam_step(params, grads, state: AdamState, lr, config: TrainConfig):
    """Bias-corrected Adam; epsilon sits outside the square root."""
    b1, b2, eps = config.beta1, config.beta2, config.epsilon
    t = state.t + 1
    new_params = dict(params)
    new_m, new_v = {}, {}
    for n in state.m:
        g = grads[n]
        m = b1 * state.m[n] + (1 - b1) * g
        v = b2 * state.v[n] + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        new_params[n] = params[n] - (lr * mhat / (np.sqrt(vhat) + eps)).astype(
            params[n].dtype)
        new_m[n], new_v[n] = m, v
    return new_params, AdamState(new_m, new_v, t)


def lr_schedule(epoch, config: TrainConfig):
    return config.lr0 * config.decay_rate ** epoch


def _monitor_value(stats: EpochStats, monitor):
    return stats.val_acc if monitor == "val_accuracy" else -stats.val_loss


def early_stop(history, patience, monitor="val_accuracy"):
    """True when the monitored metric last improved `patience` epochs ago."""
    if not history:
        raise ValueError("history must be non-empty")
    values = [_monitor_value(h, monitor) for h in history]
    best = int(np.argmax(values))  # earliest best: later ties are not improvements
    return (len(values) - 1) - best >= patience


def to_batch(samples):
    x = np.stack([np.transpose(s.tensor, (2, 0, 1)) for s in samples])
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x[:, None].astype(np.float32), y


def _check_dataset(dataset, class_count, name):
    if not dataset:
        raise EmptyDataset(f"{name} dataset is empty")
    for s in dataset:
        if not 0 <= s.label < class_count:
            raise LabelOutOfRange(f"{name} label {s.label} outside [0,{class_count})")


def evaluate(spec, weights, dataset, weight_vec, batch_size=32):
    """Mean weighted loss and plain accuracy in infer mode."""
    total_loss, hits = 0.0, 0
    for i in range(0, len(dataset), batch_size):
        chunk = dataset[i:i + batch_size]
        x, y = to_batch(chunk)
        probs = nn.model_forward(spec, weights, x, mode="infer")
        loss, _ = nn.weighted_cross_entropy(probs, y, weight_vec)
        total_loss += loss * len(chunk)
        hits += int((probs.argmax(axis=1) == y).sum())
    return total_loss / len(dataset), hits / len(dataset)


def fit(spec, weights_init, train_set, val_set, config: TrainConfig, log=None):
    """Train; returns (best-epoch weights, history). Inputs are not mutated.

    A NaN or infinite batch loss stops training with NonFiniteLoss, which
    names the epoch and the batch.

    `log`, when given, is called with each EpochStats as it completes.
    """
    _check_dataset(train_set, spec.class_count, "train")
    _check_dataset(val_set, spec.class_count, "validation")
    weights = {n: w.copy() for n, w in weights_init.items()}
    if config.max_epochs == 0:
        return weights, []

    counts = np.bincount([s.label for s in train_set], minlength=spec.class_count)
    wvec = class_weights(counts, config.weight_mode).weights
    state = init_adam(weights)
    history = []
    best_weights = {n: w.copy() for n, w in weights.items()}
    best_value = -np.inf

    for epoch in range(config.max_epochs):
        lr = lr_schedule(epoch, config)
        shuffle_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([int(config.seed), epoch])))
        order = shuffle_rng.permutation(len(train_set))
        loss_sum, hit_sum = 0.0, 0
        for bidx in range(0, len(order), config.batch_size):
            picks = order[bidx:bidx + config.batch_size]
            if config.augment is not None:
                chunk = [augment_sample(train_set[i], config.augment, epoch, int(i))
                         for i in picks]
            else:
                chunk = [train_set[i] for i in picks]
            x, y = to_batch(chunk)
            batch_seed = int(np.random.SeedSequence(
                [int(config.seed), epoch, int(bidx)]).generate_state(1)[0])
            loss, grads, probs = nn.loss_and_grads(spec, weights, x, y, wvec,
                                                   mode="train", seed=batch_seed)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"training loss is {loss} at epoch {epoch}, "
                                    f"batch {bidx // config.batch_size}")
            loss_sum += loss * len(picks)
            hit_sum += int((probs.argmax(axis=1) == y).sum())
            weights, state = adam_step(weights, grads, state, lr, config)

        val_loss, val_acc = evaluate(spec, weights, val_set, wvec)
        stats = EpochStats(epoch, loss_sum / len(order), hit_sum / len(order),
                           val_loss, val_acc, lr)
        history.append(stats)
        if log is not None:
            log(stats)
        if _monitor_value(stats, config.monitor) > best_value:
            best_value = _monitor_value(stats, config.monitor)
            best_weights = {n: w.copy() for n, w in weights.items()}
        if early_stop(history, config.patience, config.monitor):
            break
    return best_weights, history


def progressive_fit(levels, datasets, config: TrainConfig, class_count,
                    channels=nn.BASE_CHANNELS, log=None):
    """Train through an ordered ladder of patch levels.

    levels: PatchSpec list, small to large; datasets: {level: (train, val)}.
    Level n+1 starts from level n's best weights behind a fresh stem block.
    Returns (final best weights, [LevelResult per level]). `log`, when
    given, is called with (level name, EpochStats) per finished epoch.
    """
    if not levels:
        raise EmptyDataset("no levels given")
    shapes = [tuple(l.shape) for l in levels]
    for a, b in zip(shapes, shapes[1:]):
        if any(x > y for x, y in zip(a, b)):
            raise IncompatibleSpec(f"ladder must grow monotonically, got {a} -> {b}")

    results = []
    prev_spec, prev_best = None, None
    for li, level in enumerate(levels):
        r, c, s = level.shape
        input_shape = (1, s, r, c)
        if prev_spec is None:
            spec = nn.base_model(input_shape, class_count, channels=channels)
            init = nn.init_weights(spec, seed=config.seed)
        else:
            spec, init = nn.build_progressive(prev_spec, prev_best,
                                              large_input=input_shape,
                                              seed=config.seed + li)
        train_set, val_set = datasets[level.level]
        init_snapshot = {n: w.copy() for n, w in init.items()}
        level_log = None if log is None else (
            lambda stats, name=level.level: log(name, stats))
        best, history = fit(spec, init, train_set, val_set, config, log=level_log)
        results.append(LevelResult(level.level, spec, init_snapshot, best, history))
        prev_spec, prev_best = spec, best
    return results[-1].best_weights, results


def history_to_csv(histories):
    """{level: [EpochStats]} as CSV, one row per epoch, levels in order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level", "epoch", "train_loss", "train_acc",
                     "val_loss", "val_acc", "lr"])
    for level, history in histories.items():
        for h in history:
            writer.writerow([level, h.epoch, repr(h.train_loss), repr(h.train_acc),
                             repr(h.val_loss), repr(h.val_acc), repr(h.lr)])
    return buf.getvalue()
