"""Optimizer, schedule, early-stop and training-loop tests."""

import csv
import io

import numpy as np
import pytest

from ctscreen import nn_core as nn
from ctscreen import train as tr
from ctscreen.patch_sampler import PatchSpec

from synth import blob_dataset


def tiny_spec(shape=(12, 12, 6), class_count=2):
    r, c, s = shape
    return nn.base_model((1, s, r, c), class_count, channels=(4, 8))


def quick_config(**kw):
    kw.setdefault("lr0", 1e-3)
    kw.setdefault("max_epochs", 5)
    kw.setdefault("patience", 4)
    kw.setdefault("batch_size", 8)
    kw.setdefault("weight_mode", "uniform")
    return tr.TrainConfig(**kw)


# ---------------------------------------------------------------- loss op

def test_cross_entropy_perfect_prediction_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = nn.weighted_cross_entropy(probs, [0, 1], np.ones(2))
    assert loss == 0.0


def test_cross_entropy_uniform_binary_ln2():
    probs = np.full((6, 2), 0.5)
    loss, _ = nn.weighted_cross_entropy(probs, [0, 1, 0, 1, 1, 0], np.ones(2))
    assert abs(loss - np.log(2.0)) < 1e-12


def test_cross_entropy_matches_direct_sum():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((16, 2))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, 16)
    w = np.array([0.2288, 0.7712])
    loss, _ = nn.weighted_cross_entropy(probs, labels, w)
    direct = sum(w[y] * -np.log(probs[i, y]) for i, y in enumerate(labels)) / 16
    assert abs(loss - direct) < 1e-10


def test_cross_entropy_gradient_formula():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 3))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    labels = np.array([0, 2, 1, 1, 0])
    w = np.array([1.5, 0.5, 2.0])
    _, g = nn.weighted_cross_entropy(probs, labels, w)
    onehot = np.eye(3)[labels]
    want = w[labels][:, None] * (probs - onehot) / 5
    assert np.allclose(g, want, atol=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(nn.LabelOutOfRange):
        nn.weighted_cross_entropy(np.full((2, 2), 0.5), [0, 2], np.ones(2))
    # the model loss runs the same check, negative labels included
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=0)
    x, _ = tr.to_batch(blob_dataset(2, seed=1))
    for labels in ([0, 2], [-1, 0]):
        with pytest.raises(nn.LabelOutOfRange):
            nn.loss_and_grads(spec, weights, x, labels)


def test_cross_entropy_agrees_with_fused_model_loss():
    # dual route: standalone op on model probabilities vs the fused path
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=0, dtype=np.float64)
    data = blob_dataset(8, seed=1)
    x, y = tr.to_batch(data)
    x = x.astype(np.float64)
    wvec = np.array([1.3, 0.6])
    fused_loss, _, probs = nn.loss_and_grads(spec, weights, x, y, wvec, mode="infer")
    solo_loss, _ = nn.weighted_cross_entropy(probs, y, wvec)
    assert abs(fused_loss - solo_loss) < 1e-12


# ------------------------------------------------------------------- adam

def test_adam_zero_gradient_no_motion():
    params = {"L0.kernel": np.array([1.0, -2.0]), "L0.bias": np.array([0.5])}
    grads = {n: np.zeros_like(p) for n, p in params.items()}
    state = tr.init_adam(params)
    new_params, new_state = tr.adam_step(params, grads, state, 0.1, quick_config())
    for n in params:
        assert np.array_equal(new_params[n], params[n])
        assert not new_state.m[n].any() and not new_state.v[n].any()
    assert new_state.t == 1


def test_adam_first_step_closed_form():
    cfg = quick_config()
    params = {"L0.bias": np.array([2.0])}
    grads = {"L0.bias": np.array([1.0])}
    new_params, _ = tr.adam_step(params, grads, tr.init_adam(params), 0.01, cfg)
    # bias correction makes mhat = vhat = 1 at t=1, so the move is
    # -lr * 1/(1 + eps)
    want = 2.0 - 0.01 * 1.0 / (1.0 + cfg.epsilon)
    assert abs(float(new_params["L0.bias"][0]) - want) < 1e-15


def test_adam_does_not_mutate_inputs():
    params = {"L0.bias": np.array([1.0])}
    grads = {"L0.bias": np.array([3.0])}
    state = tr.init_adam(params)
    tr.adam_step(params, grads, state, 0.1, quick_config())
    assert params["L0.bias"][0] == 1.0
    assert state.t == 0 and not state.m["L0.bias"].any()


# --------------------------------------------------------------- schedule

def test_lr_schedule_values():
    cfg = tr.TrainConfig()
    assert lr0_exact(cfg) == 1e-4
    assert abs(tr.lr_schedule(2, cfg) - 1e-4 * 0.9409) < 1e-15
    flat = tr.TrainConfig(decay_rate=1.0)
    assert tr.lr_schedule(50, flat) == flat.lr0


def lr0_exact(cfg):
    return tr.lr_schedule(0, cfg)


def test_lr_sequence_non_increasing_in_history():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=1)
    data = blob_dataset(16, seed=2)
    _, hist = tr.fit(spec, weights, data, data, quick_config(max_epochs=4, patience=3))
    lrs = [h.lr for h in hist]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


# ------------------------------------------------------------- early stop

def H(*vals):
    return [tr.EpochStats(i, 1.0, 0.5, 1.0, v, 1e-4) for i, v in enumerate(vals)]


def test_early_stop_improving_continues():
    assert not tr.early_stop(H(0.1, 0.2, 0.3, 0.4), patience=3)


def test_early_stop_flat_after_peak_stops():
    hist = H(*([0.9] + [0.9] * 15))
    assert tr.early_stop(hist, patience=15)


def test_early_stop_boundary_improvement_continues():
    vals = [0.5] + [0.5] * 13 + [0.6]  # improvement at epoch patience-1
    assert not tr.early_stop(H(*vals), patience=15)


def test_early_stop_val_loss_monitor():
    hist = [tr.EpochStats(i, 1.0, 0.5, loss, 0.5, 1e-4)
            for i, loss in enumerate([1.0, 0.8, 0.8, 0.8])]
    assert tr.early_stop(hist, patience=2, monitor="val_loss")
    assert not tr.early_stop(hist, patience=3, monitor="val_loss")


def test_early_stop_ties_do_not_count_as_improvement():
    assert tr.early_stop(H(0.7, 0.7, 0.7), patience=2)


# ------------------------------------------------------------------- fit

def test_fit_zero_epochs_returns_init():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=3)
    data = blob_dataset(8, seed=3)
    cfg = quick_config(max_epochs=0, patience=0)
    best, hist = tr.fit(spec, weights, data, data, cfg)
    assert hist == []
    for n in weights:
        assert np.array_equal(best[n], weights[n])
        assert best[n] is not weights[n]  # a copy, not the caller's array


def test_fit_empty_dataset_raises():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=4)
    with pytest.raises(tr.EmptyDataset):
        tr.fit(spec, weights, [], blob_dataset(4, 0), quick_config())


def test_fit_bad_label_raises():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=5)
    data = blob_dataset(8, seed=5)
    data[3].label = 7
    with pytest.raises(tr.LabelOutOfRange):
        tr.fit(spec, weights, data, data, quick_config())


def test_fit_stops_on_non_finite_loss():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=13)
    weights["L0.kernel"] = np.full_like(weights["L0.kernel"], np.nan)
    data = blob_dataset(16, seed=13)
    with pytest.raises(tr.NonFiniteLoss, match="nan at epoch 0, batch 0"):
        tr.fit(spec, weights, data, data, quick_config())


def test_fit_deterministic_same_seed():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=6)
    data = blob_dataset(16, seed=6)
    val = blob_dataset(8, seed=7)
    cfg = quick_config(max_epochs=3, patience=2, seed=11)
    best_a, hist_a = tr.fit(spec, weights, data, val, cfg)
    best_b, hist_b = tr.fit(spec, weights, data, val, cfg)
    assert hist_a == hist_b
    for n in best_a:
        assert np.array_equal(best_a[n], best_b[n]), n


def test_fit_does_not_mutate_initial_weights():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=8)
    snapshot = {n: w.copy() for n, w in weights.items()}
    data = blob_dataset(16, seed=8)
    tr.fit(spec, weights, data, data, quick_config(max_epochs=2, patience=1))
    for n in weights:
        assert np.array_equal(weights[n], snapshot[n]), n


def test_fit_loss_decreases_over_first_epochs():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=9)
    data = blob_dataset(32, seed=9)
    cfg = quick_config(max_epochs=5, patience=4, seed=1)
    _, hist = tr.fit(spec, weights, data, data, cfg)
    losses = [h.train_loss for h in hist]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_fit_overfits_blob_dataset():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=10)
    data = blob_dataset(40, seed=10)
    cfg = quick_config(max_epochs=120, patience=30, seed=2)
    _, hist = tr.fit(spec, weights, data, data, cfg)
    assert max(h.train_acc for h in hist) == 1.0
    assert len(hist) <= 120


def test_fit_with_augmentation_runs_and_is_deterministic():
    from ctscreen.augment import AugmentPolicy
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=11)
    data = blob_dataset(16, seed=11)
    policy = AugmentPolicy(seed=3, elastic_sigma=0.0)  # keep the fast menu
    cfg_kw = dict(max_epochs=2, patience=1, seed=5)
    _, h1 = tr.fit(spec, weights, data, data, quick_config(augment=policy, **cfg_kw))
    _, h2 = tr.fit(spec, weights, data, data, quick_config(augment=policy, **cfg_kw))
    assert h1 == h2


def test_evaluate_keeps_running_stats_frozen():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=12)
    data = blob_dataset(16, seed=12)
    best, _ = tr.fit(spec, weights, data, data, quick_config(max_epochs=1, patience=0))
    stats_before = {n: best[n].copy() for n in best if "running" in n}
    tr.evaluate(spec, best, data, np.ones(2))
    for n in stats_before:
        assert np.array_equal(best[n], stats_before[n]), n


def test_monitor_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(monitor="train_loss")
    with pytest.raises(ValueError):
        tr.TrainConfig(patience=200, max_epochs=200)


# ------------------------------------------------------------ progressive

def test_build_progressive_default_doubling():
    small = tiny_spec()
    sw = nn.init_weights(small, seed=13)
    large, lw = nn.build_progressive(small, sw)
    assert large.input_shape == (1, 12, 24, 24)


def test_build_progressive_source_untouched():
    small = tiny_spec()
    sw = nn.init_weights(small, seed=14)
    snapshot = {n: w.copy() for n, w in sw.items()}
    _, lw = nn.build_progressive(small, sw, large_input=(1, 8, 16, 16))
    for n in sw:
        assert np.array_equal(sw[n], snapshot[n])
    # and the copies are independent storage
    carried = f"L{nn.STEM_LAYER_COUNT}.kernel"
    lw[carried][0, 0, 0, 0, 0] += 1.0
    assert np.array_equal(sw["L0.kernel"], snapshot["L0.kernel"])


def test_build_progressive_full_resolution_ladder_shapes():
    base = nn.base_model((1, 20, 128, 128), 2)
    bw = nn.init_weights(base, seed=15)
    mid, mw = nn.build_progressive(base, bw, large_input=(1, 27, 256, 256))
    assert mid.input_shape == (1, 27, 256, 256)
    top, _ = nn.build_progressive(mid, mw, large_input=(1, 36, 512, 512))
    assert top.input_shape == (1, 36, 512, 512)
    nn.model_shapes(top)  # whole ladder is shape-legal


def ladder_levels():
    return [PatchSpec("T1", (8, 8, 4), 4), PatchSpec("T2", (12, 12, 6), 2),
            PatchSpec("T3", (16, 16, 8), 1)]


def ladder_datasets(seed=0):
    out = {}
    for i, lv in enumerate(ladder_levels()):
        out[lv.level] = (blob_dataset(16, seed + i, shape=lv.shape, level=lv.level),
                         blob_dataset(8, seed + 50 + i, shape=lv.shape, level=lv.level))
    return out


def test_progressive_fit_single_level_equals_plain_fit():
    lv = PatchSpec("T2", (12, 12, 6), 2)
    data = {lv.level: (blob_dataset(16, 20, shape=lv.shape),
                       blob_dataset(8, 21, shape=lv.shape))}
    cfg = quick_config(max_epochs=2, patience=1, seed=9)
    final, results = tr.progressive_fit([lv], data, cfg, class_count=2,
                                        channels=(4, 8))
    spec = nn.base_model((1, 6, 12, 12), 2, channels=(4, 8))
    init = nn.init_weights(spec, seed=cfg.seed)
    best, hist = tr.fit(spec, init, *data[lv.level], cfg)
    assert results[0].history == hist
    for n in best:
        assert np.array_equal(final[n], best[n]), n


def test_progressive_fit_carries_weights_bit_exact():
    cfg = quick_config(max_epochs=2, patience=1, seed=4)
    _, results = tr.progressive_fit(ladder_levels(), ladder_datasets(), cfg,
                                    class_count=2, channels=(4, 8))
    assert [r.level for r in results] == ["T1", "T2", "T3"]
    for prev, cur in zip(results, results[1:]):
        for name, tensor in prev.best_weights.items():
            i, suffix = name[1:].split(".", 1)
            shifted = f"L{int(i) + nn.STEM_LAYER_COUNT}.{suffix}"
            assert np.array_equal(cur.init_weights[shifted], tensor), (cur.level, name)


def test_progressive_fit_rejects_shrinking_ladder():
    levels = [PatchSpec("T2", (12, 12, 6), 2), PatchSpec("T1", (8, 8, 4), 4)]
    with pytest.raises(tr.IncompatibleSpec):
        tr.progressive_fit(levels, ladder_datasets(), quick_config(),
                           class_count=2, channels=(4, 8))


# ---------------------------------------------------------------- history

def history_from_csv(text):
    """Inverse of train.history_to_csv, for the round-trip check."""
    histories = {}
    for r in list(csv.reader(io.StringIO(text)))[1:]:
        histories.setdefault(r[0], []).append(tr.EpochStats(
            int(r[1]), float(r[2]), float(r[3]), float(r[4]), float(r[5]),
            float(r[6])))
    return histories


def test_history_csv_round_trip():
    hist = {"T1": [tr.EpochStats(0, 0.9, 0.5, 1.1, 0.4, 1e-4),
                   tr.EpochStats(1, 0.7, 0.75, 0.9, 0.6, 9.7e-5)],
            "T2": [tr.EpochStats(0, 0.6, 0.8, 0.7, 0.7, 9.4e-5)]}
    text = tr.history_to_csv(hist)
    assert text.splitlines()[0] == \
        "level,epoch,train_loss,train_acc,val_loss,val_acc,lr"
    back = history_from_csv(text)
    assert back == hist and list(back) == ["T1", "T2"]
