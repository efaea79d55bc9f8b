"""Training loop: Adam, LR decay, early stopping, and progressive input
enlargement, on the weighted cross-entropy of `nn_core`. `_check_sets`
holds every check of a level's datasets, and `progressive_fit` runs it on
every level before the first epoch.

Datasets are plain lists of patch Samples. A patch stored as (rows, cols,
slices) enters the network as (1, slices, rows, cols), i.e. channel-first
with depth leading the spatial block.

Everything is seeded: epoch shuffles, dropout, and augmentation all derive
from (config.seed, epoch, position), so a run is bit-reproducible.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import nn_core as nn
from .augment import AugmentPolicy, augment_sample
from .rebalance import class_weights, DEFAULT_MODE


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
        for name in ("lr0", "epsilon"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0,1)")
        if not 0 < self.decay_rate <= 1:
            raise ValueError("decay_rate must lie in (0,1]")
        for name in ("max_epochs", "patience"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
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


def to_batch(samples):
    x = np.stack([np.transpose(s.tensor, (2, 0, 1)) for s in samples])
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x[:, None].astype(np.float32, copy=False), y


def _check_sets(spec, train_set, val_set, config: TrainConfig):
    """Raise ValueError unless `spec` can train on `train_set` and validate on
    `val_set`: both non-empty, of the model's patch shape, with labels in
    [0, k) and every class in the training split. When epochs run, batches
    of `config.batch_size` also leave no batch of one that a batchnorm
    layer sees as one voxel per channel: train mode could not normalize it."""
    _, s, r, c = spec.input_shape
    k = spec.class_count
    for name, dataset in (("train", train_set), ("validation", val_set)):
        if not dataset:
            raise ValueError(f"{name} dataset is empty")
        if dataset[0].tensor.shape != (r, c, s):
            raise ValueError(f"{name} dataset holds {dataset[0].tensor.shape} "
                             f"patches, not {(r, c, s)}")
        for smp in dataset:
            if not 0 <= smp.label < k:
                raise ValueError(f"{name} label {smp.label} outside [0,{k})")
    missing = set(range(k)) - {smp.label for smp in train_set}
    if missing:
        raise ValueError(f"train dataset holds no patch of class {min(missing)}")
    batch_size = config.batch_size
    if config.max_epochs and (batch_size == 1 or len(train_set) % batch_size == 1):
        for i, (layer, shape) in enumerate(zip(spec.layers, nn.model_shapes(spec))):
            if layer.kind == "batchnorm3d" and shape[1:] == (1, 1, 1):
                raise ValueError(
                    f"{len(train_set)} training patches in batches of "
                    f"{batch_size} leave a batch of one, which batchnorm "
                    f"layer {i} cannot normalize over its one voxel; change "
                    f"train.batch_size")


def evaluate(spec, weights, dataset, weight_vec, batch_size=32):
    """Mean weighted loss and plain accuracy in infer mode."""
    total_loss, hits = 0.0, 0
    for i in range(0, len(dataset), batch_size):
        chunk = dataset[i:i + batch_size]
        x, y = to_batch(chunk)
        probs = nn.model_forward(spec, weights, x)
        loss, _ = nn.weighted_cross_entropy(probs, y, weight_vec)
        total_loss += loss * len(chunk)
        hits += int((probs.argmax(axis=1) == y).sum())
    return total_loss / len(dataset), hits / len(dataset)


def fit(spec, weights_init, train_set, val_set, config: TrainConfig, log=None):
    """Train; returns (best-epoch weights, history). Inputs are not mutated.

    Sets that `_check_sets` rejects are a ValueError before the first step;
    with no epoch to run, the initial weights come back after its shape and
    label checks. The best epoch is the earliest with the highest
    validation accuracy, or the lowest validation loss when config.monitor
    says so; training stops `config.patience` epochs after it. A NaN or
    infinite batch loss stops training with NonFiniteLoss, which names the
    epoch and the batch.

    `log`, when given, is called with each EpochStats as it completes.
    """
    _check_sets(spec, train_set, val_set, config)
    weights = {n: w.copy() for n, w in weights_init.items()}
    if config.max_epochs == 0:
        return weights, []

    counts = np.bincount([s.label for s in train_set], minlength=spec.class_count)
    wvec = class_weights(counts, config.weight_mode)
    state = init_adam(weights)
    history = []
    best_weights = {n: w.copy() for n, w in weights.items()}
    best_value, best_epoch = -np.inf, 0

    for epoch in range(config.max_epochs):
        lr = lr_schedule(epoch, config)
        shuffle_rng = np.random.default_rng([int(config.seed), epoch])
        order = shuffle_rng.permutation(len(train_set))
        loss_sum, hit_sum = 0.0, 0
        for bidx in range(0, len(order), config.batch_size):
            picks = order[bidx:bidx + config.batch_size]
            if config.augment is not None:
                chunk = [augment_sample(train_set[i], config.augment, config.seed,
                                        epoch, int(i))
                         for i in picks]
            else:
                chunk = [train_set[i] for i in picks]
            x, y = to_batch(chunk)
            del chunk  # the augmented copies, now stacked in x
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
            # nothing of this batch outlives its step
            del x, y, probs, grads

        val_loss, val_acc = evaluate(spec, weights, val_set, wvec)
        stats = EpochStats(epoch, loss_sum / len(order), hit_sum / len(order),
                           val_loss, val_acc, lr)
        history.append(stats)
        if log is not None:
            log(stats)
        value = val_acc if config.monitor == "val_accuracy" else -val_loss
        if value > best_value:  # later ties are not improvements
            best_value, best_epoch = value, epoch
            best_weights = {n: w.copy() for n, w in weights.items()}
        if epoch - best_epoch >= config.patience:
            break
    return best_weights, history


def progressive_fit(shapes, load, config: TrainConfig, class_count,
                    channels=nn.BASE_CHANNELS, log=None):
    """Train through an ordered ladder of patch levels.

    shapes: {level: (rows, cols, slices)}, small to large, the patch shape
    of each level. load(level) gives that level's (train, val). Before the
    first epoch every level is loaded, held to `_check_sets` with its model
    (an error names the level) and dropped; then each level is loaded again
    when its turn comes, and dropped before the next level loads, so one
    level's datasets are resident at a time. Level n+1 starts from level
    n's best weights behind a fresh stem block. Returns a LevelResult per
    level; the last one's best_weights are the final model. `log`, when
    given, is called with (level name, EpochStats) per finished epoch.
    """
    if not shapes:
        raise ValueError("no levels given")
    ladder = list(shapes.values())
    for a, b in zip(ladder, ladder[1:]):
        if any(x > y for x, y in zip(a, b)):
            raise ValueError(f"ladder must grow monotonically, got {a} -> {b}")

    specs, spec = {}, None
    for name, (r, c, s) in shapes.items():
        input_shape = (1, s, r, c)
        spec = (nn.base_model(input_shape, class_count, channels=channels)
                if spec is None else nn.progressive_spec(spec, input_shape))
        specs[name] = spec
        train_set, val_set = load(name)
        try:
            _check_sets(spec, train_set, val_set, config)
        except ValueError as exc:
            raise ValueError(f"level {name}: {exc}") from exc
        del train_set, val_set  # before the next level loads

    results = []
    for li, (name, spec) in enumerate(specs.items()):
        if not results:
            init = nn.init_weights(spec, seed=config.seed)
        else:
            _, init = nn.build_progressive(results[-1].spec, results[-1].best_weights,
                                           large_input=spec.input_shape,
                                           seed=config.seed + li)
        level_log = None if log is None else (
            lambda stats, name=name: log(name, stats))
        best, history = fit(spec, init, *load(name), config, log=level_log)
        results.append(LevelResult(name, spec, best, history))
    return results


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
