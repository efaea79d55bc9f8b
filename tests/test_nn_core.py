"""Layer-by-layer oracle and finite-difference tests for the 3D CNN engine.

Every backward pass is checked against central differences at 64-bit; every
structured forward (conv, pool) is checked against a naive nested-loop
reimplementation.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ctscreen import nn_core as nn, parallel


# ---------------------------------------------------------------- oracles

def conv_loop_oracle(x, kernel, bias, stride, padding):
    sd, sh, sw = stride
    pd, ph, pw = padding
    B, Ci, D, H, W = x.shape
    Co, _, kd, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    Do = (D + 2 * pd - kd) // sd + 1
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, Co, Do, Ho, Wo))
    for b in range(B):
        for o in range(Co):
            for d in range(Do):
                for h in range(Ho):
                    for w in range(Wo):
                        acc = 0.0
                        for c in range(Ci):
                            for i in range(kd):
                                for j in range(kh):
                                    for k in range(kw):
                                        acc += xp[b, c, d * sd + i, h * sh + j,
                                                  w * sw + k] * kernel[o, c, i, j, k]
                        out[b, o, d, h, w] = acc + (bias[o] if bias is not None else 0.0)
    return out


def pool_loop_oracle(x, window, stride):
    kd, kh, kw = window
    sd, sh, sw = stride
    B, C, D, H, W = x.shape
    Do = (D - kd) // sd + 1
    Ho = (H - kh) // sh + 1
    Wo = (W - kw) // sw + 1
    out = np.zeros((B, C, Do, Ho, Wo))
    for b in range(B):
        for c in range(C):
            for d in range(Do):
                for h in range(Ho):
                    for w in range(Wo):
                        out[b, c, d, h, w] = x[b, c, d * sd:d * sd + kd,
                                               h * sh:h * sh + kh,
                                               w * sw:w * sw + kw].max()
    return out


def fd_grad(fun, arr, h=1e-5):
    """Central-difference gradient of scalar fun() w.r.t. every arr entry."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = fun()
        flat[i] = old - h
        fm = fun()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * h)
    return g


def max_rel_err(a, b, floor=1e-4):
    """Worst relative disagreement; tiny entries compare on a floor scale."""
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


# ------------------------------------------------------------------- conv

def test_conv_unit_kernel_identity():
    x = np.random.default_rng(0).standard_normal((2, 3, 4, 5, 5))
    k = np.zeros((3, 3, 1, 1, 1))
    for c in range(3):
        k[c, c, 0, 0, 0] = 1.0
    out = nn.conv3d_forward(x, k, np.zeros(3), 1, 0)
    assert np.allclose(out, x, atol=1e-14)


def test_conv_ones_counts_support():
    x = np.ones((1, 1, 5, 5, 5))
    k = np.ones((1, 1, 3, 3, 3))
    out = nn.conv3d_forward(x, k, np.zeros(1), 1, 0)
    assert out.shape == (1, 1, 3, 3, 3)
    assert np.all(out == 27.0)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for stride, padding in [((1, 1, 1), (0, 0, 0)), ((1, 1, 1), (1, 1, 1)),
                            ((2, 2, 2), (1, 1, 1)), ((1, 2, 1), (0, 1, 1))]:
        x = rng.standard_normal((2, 3, 4, 5, 5))
        k = rng.standard_normal((4, 3, 3, 3, 3))
        b = rng.standard_normal(4)
        got = nn.conv3d_forward(x, k, b, stride, padding)
        want = conv_loop_oracle(x, k, b, stride, padding)
        assert np.max(np.abs(got - want)) < 1e-10, (stride, padding)


def test_conv_channel_mismatch_raises():
    with pytest.raises(nn.ShapeMismatch):
        nn.conv3d_forward(np.zeros((1, 2, 4, 4, 4)), np.zeros((1, 3, 3, 3, 3)))


def test_conv_backward_zero_grad():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 4, 4, 4))
    k = rng.standard_normal((3, 2, 3, 3, 3))
    gx, gk, gb = nn.conv3d_backward(x, k, np.zeros((1, 3, 2, 2, 2)), 1, 0)
    assert not gx.any() and not gk.any() and not gb.any()


def test_conv_backward_bias_is_channel_sum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 2, 4, 4, 4))
    k = rng.standard_normal((3, 2, 3, 3, 3))
    g = rng.standard_normal((2, 3, 2, 2, 2))
    _, _, gb = nn.conv3d_backward(x, k, g, 1, 0)
    assert np.allclose(gb, g.sum(axis=(0, 2, 3, 4)), atol=1e-12)


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 2, 3, 4, 4))
    k = rng.standard_normal((2, 2, 2, 3, 3))
    b = rng.standard_normal(2)
    proj = rng.standard_normal((2, 2, 2, 2, 2))  # fixed projection -> scalar

    def objective():
        return float((nn.conv3d_forward(x, k, b, (1, 2, 2), (0, 1, 1)) * proj).sum())

    out = nn.conv3d_forward(x, k, b, (1, 2, 2), (0, 1, 1))
    assert out.shape == proj.shape
    gx, gk, gb = nn.conv3d_backward(x, k, proj, (1, 2, 2), (0, 1, 1))
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6
    assert max_rel_err(gk, fd_grad(objective, k)) < 1e-6
    assert max_rel_err(gb, fd_grad(objective, b)) < 1e-6


CONV_CASES = [((1, 1, 1), (0, 0, 0)), ((1, 1, 1), (1, 1, 1)),
              ((2, 2, 2), (1, 1, 1)), ((1, 2, 1), (0, 1, 1))]


@pytest.mark.parametrize("ci,co", [(1, 1), (1, 4), (2, 3), (16, 8)])
def test_conv_matches_loop_oracle_at_channel_counts(ci, co):
    """Both lowerings (one input channel, several) in float64 and float32.

    Inputs are float32-representable, so one float64 oracle serves both;
    float32 in gives float32 out, gradients included.
    """
    rng = np.random.default_rng(10 + ci)
    for stride, padding in CONV_CASES:
        x = rng.standard_normal((2, ci, 4, 5, 5)).astype(np.float32)
        k = rng.standard_normal((co, ci, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(co).astype(np.float32)
        want = conv_loop_oracle(x.astype(np.float64), k.astype(np.float64),
                                b.astype(np.float64), stride, padding)
        got64 = nn.conv3d_forward(x.astype(np.float64), k.astype(np.float64),
                                  b.astype(np.float64), stride, padding)
        assert np.max(np.abs(got64 - want)) < 1e-10, (stride, padding)
        got32 = nn.conv3d_forward(x, k, b, stride, padding)
        np.testing.assert_allclose(got32, want, rtol=1e-5,
                                   atol=1e-5 * np.abs(want).max(),
                                   err_msg=str((stride, padding)))
        grads = nn.conv3d_backward(x, k, np.ones_like(got32), stride, padding)
        assert [a.dtype for a in (got32,) + grads] == [np.float32] * 4


def test_conv_backward_one_channel_matches_finite_differences():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 1, 3, 4, 4))
    k = rng.standard_normal((3, 1, 2, 3, 3))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((2, 3, 2, 2, 2))

    def objective():
        return float((nn.conv3d_forward(x, k, b, (1, 2, 2), (0, 1, 1)) * proj).sum())

    assert nn.conv3d_forward(x, k, b, (1, 2, 2), (0, 1, 1)).shape == proj.shape
    gx, gk, gb = nn.conv3d_backward(x, k, proj, (1, 2, 2), (0, 1, 1))
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6
    assert max_rel_err(gk, fd_grad(objective, k)) < 1e-6
    assert max_rel_err(gb, fd_grad(objective, b)) < 1e-6


def test_conv_backward_rejects_mismatched_shapes():
    x = np.zeros((2, 3, 6, 6, 6))
    k = np.zeros((4, 3, 3, 3, 3))
    assert nn.conv3d_forward(x, k, None, 1, 1).shape == (2, 4, 6, 6, 6)
    nn.conv3d_backward(x, k, np.zeros((2, 4, 6, 6, 6)), 1, 1)
    for grad_shape in [(2, 4, 5, 6, 6), (2, 3, 6, 6, 6), (1, 4, 6, 6, 6)]:
        with pytest.raises(nn.ShapeMismatch):
            nn.conv3d_backward(x, k, np.zeros(grad_shape), 1, 1)
    with pytest.raises(nn.ShapeMismatch):
        nn.conv3d_backward(x, np.zeros((4, 2, 3, 3, 3)), np.zeros((2, 4, 6, 6, 6)), 1, 1)


def test_conv_forward_rejects_bias_of_wrong_length():
    x = np.ones((1, 3, 4, 4, 4))
    k = np.zeros((4, 3, 3, 3, 3))
    for bias in (np.ones(1), np.ones(3), np.ones((4, 1))):
        with pytest.raises(nn.ShapeMismatch):
            nn.conv3d_forward(x, k, bias, 1, 1)


def unblocked_one_channel_forward(x, kernel, bias, stride, padding):
    """The ci == 1 forward as it was before slabs, kept as a byte oracle: one
    multiply-add per kernel offset over the whole batch."""
    (sd, sh, sw), padding = nn._triple(stride), nn._triple(padding)
    co = kernel.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    do, ho, wo = ((n - k) // s + 1 for n, k, s in zip(xp.shape[2:], kernel.shape[2:],
                                                        (sd, sh, sw)))
    out = np.zeros((x.shape[0], co, do, ho, wo), dtype=x.dtype)
    term = np.empty(out.shape, dtype=np.result_type(x, kernel))
    for i, j, k in np.ndindex(*kernel.shape[2:]):
        np.multiply(xp[:, :, i:i + sd * do:sd, j:j + sh * ho:sh, k:k + sw * wo:sw],
                    kernel[:, 0, i, j, k].reshape(1, co, 1, 1, 1), out=term)
        out += term
    out += bias.reshape(1, -1, 1, 1, 1)
    return out


# chunk sizes (on this test's 9x8 grid, 11x10 wide positions per padded
# plane) that take one row, two rows (so 9 rows end on a short chunk), one
# plane, six planes (so 7 planes end on a short chunk), an odd count that
# holds one sample (so 3 samples take 3 chunks), and the module's own
@pytest.mark.parametrize("chunk", [1, 25, 110, 700, 1501, nn.CHUNK_ELEMENTS])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slabbed_one_channel_forward_is_byte_equal_to_the_unblocked_loop(
        chunk, dtype, monkeypatch):
    monkeypatch.setattr(nn, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(50)
    for parts in (1, 2, 3):
        monkeypatch.setattr(parallel, "CPUS", parts)
        for b in (1, 3):
            for co in (1, 16):
                for stride, padding in [(1, 1), (2, 1), ((2, 1, 2), (0, 1, 1))]:
                    x = rng.standard_normal((b, 1, 7, 9, 8)).astype(dtype)
                    k = rng.standard_normal((co, 1, 3, 3, 3)).astype(dtype)
                    bias = rng.standard_normal(co).astype(dtype)
                    got = nn.conv3d_forward(x, k, bias, stride, padding)
                    want = unblocked_one_channel_forward(x, k, bias, stride, padding)
                    assert same_bytes(got, want), (parts, b, co, stride)


@pytest.mark.parametrize("rows", [1, 3, nn.PAD_ROWS])
def test_padded_copy_is_np_pad_of_any_view(parts, rows, monkeypatch):
    monkeypatch.setattr(nn, "PAD_ROWS", rows)
    rng = np.random.default_rng(52)
    grid = rng.standard_normal((9, 7, 5)).astype(np.float32)
    batch = rng.standard_normal((2, 1, 5, 9, 7))
    # a transposed scan as the model input makes it, a batch, and a strided view
    for x in (grid.transpose(2, 0, 1)[None, None], batch, batch[:, :, ::2, 1:, ::-1]):
        for padding in [(1, 1, 1), (0, 2, 1), (0, 0, 0)]:
            want = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
            assert same_bytes(nn._padded(x, padding), want), (x.shape, padding)


@pytest.mark.parametrize("ci", [1, 3])
def test_conv_backward_can_skip_the_input_gradient(ci):
    rng = np.random.default_rng(51)
    x = rng.standard_normal((2, ci, 5, 6, 6)).astype(np.float32)
    k = rng.standard_normal((4, ci, 3, 3, 3)).astype(np.float32)
    g = rng.standard_normal((2, 4, 3, 3, 3)).astype(np.float32)
    gx, gk, gb = nn.conv3d_backward(x, k, g, 2, 1)
    none, gk_only, gb_only = nn.conv3d_backward(x, k, g, 2, 1, input_grad=False)
    assert gx.shape == x.shape and none is None
    assert same_bytes(gk_only, gk) and same_bytes(gb_only, gb)


def test_loss_and_grads_skips_only_the_model_input_gradient(monkeypatch):
    small = nn.base_model((1, 4, 8, 8), 2, channels=(4, 8))
    spec, weights = nn.build_progressive(small, nn.init_weights(small))
    asked = []
    backward = nn.conv3d_backward

    def recording(*args, input_grad=True):
        asked.append(input_grad)
        return backward(*args, input_grad=input_grad)
    monkeypatch.setattr(nn, "conv3d_backward", recording)
    x = np.random.default_rng(52).standard_normal((2,) + spec.input_shape).astype(np.float32)
    nn.loss_and_grads(spec, weights, x, [0, 1])
    assert asked == [True, True, False]


CONV_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from ctscreen import nn_core as nn
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for ci, co, grid in [(16, 32, (6, 16, 16)), (32, 64, (3, 8, 8)), (1, 16, (12, 32, 32))]:
    x = rng.standard_normal((8, ci) + grid).astype(np.float32)
    k = rng.standard_normal((co, ci, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(co).astype(np.float32)
    out = nn.conv3d_forward(x, k, b, 1, 1)
    grad = rng.standard_normal(out.shape).astype(np.float32)
    for arr in (out,) + nn.conv3d_backward(x, k, grad, 1, 1):
        digest.update(arr.tobytes())
print(digest.hexdigest())
"""


def test_conv_bytes_do_not_depend_on_blas_threads():
    """BLAS sums the multi-channel conv; its thread count must not show."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nn.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", CONV_DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


ONE_CPU_SCRIPT = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from ctscreen import nn_core as nn, segmentation as seg
x = np.ones((2, 1, 6, 8, 8), dtype=np.float32)
y = nn.conv3d_forward(x, np.ones((1, 1, 3, 3, 3), dtype=np.float32), None, 1, 1)
nn.maxpool3d_forward(y, 2)
seg.morph_close(seg.remove_border_components(x[0, 0] > 0), 1)
print(threading.active_count())
"""


def test_one_cpu_starts_no_pool_thread():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nn.__file__)))
    proc = subprocess.run([sys.executable, "-c", ONE_CPU_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=300, check=True)
    assert proc.stdout.strip() == "1"


# ------------------------------------------------------------------- pool

def test_pool_window_one_identity():
    x = np.random.default_rng(5).standard_normal((2, 2, 3, 3, 3))
    out, _ = nn.maxpool3d_forward(x, 1)
    assert np.array_equal(out, x)


def test_pool_constant_routes_to_first_voxel():
    x = np.full((1, 1, 4, 4, 4), 2.5)
    out, cache = nn.maxpool3d_forward(x, 2)
    assert np.all(out == 2.5)
    g = np.ones_like(out)
    gx = nn.maxpool3d_backward(g, cache)
    # every window is tied; the whole gradient lands on window origins
    assert gx.sum() == g.sum()
    expect = np.zeros_like(x)
    expect[:, :, ::2, ::2, ::2] = 1.0
    assert np.array_equal(gx, expect)


def test_pool_matches_loop_oracle():
    rng = np.random.default_rng(6)
    for window, stride in [((2, 2, 2), (2, 2, 2)), ((3, 2, 2), (1, 2, 1)),
                           ((2, 2, 2), (1, 1, 1))]:
        x = rng.standard_normal((2, 3, 5, 6, 4))
        out, _ = nn.maxpool3d_forward(x, window, stride)
        assert np.array_equal(out, pool_loop_oracle(x, window, stride)), (window, stride)


def argmax_pool_forward(x, window, stride):
    """maxpool3d_forward as it was before the pool split it, kept as a byte
    oracle: np.argmax over a copy of every window."""
    xw = sliding_window_view(x, window, axis=(2, 3, 4))
    xw = xw[:, :, ::stride[0], ::stride[1], ::stride[2]]
    flat = xw.reshape(xw.shape[:5] + (-1,))
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def add_at_pool_backward(grad_out, cache):
    """maxpool3d_backward as it was before it walked the forward's views,
    kept as a byte oracle: np.add.at into index grids from np.unravel_index."""
    x_shape, window, stride, idx = cache
    di, hi, wi = np.unravel_index(idx, window)
    do, ho, wo = idx.shape[2:]
    b = np.arange(x_shape[0]).reshape(-1, 1, 1, 1, 1)
    c = np.arange(x_shape[1]).reshape(1, -1, 1, 1, 1)
    d = np.arange(do).reshape(1, 1, -1, 1, 1) * stride[0] + di
    h = np.arange(ho).reshape(1, 1, 1, -1, 1) * stride[1] + hi
    w = np.arange(wo).reshape(1, 1, 1, 1, -1) * stride[2] + wi
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    np.add.at(grad_x, (np.broadcast_to(b, idx.shape), np.broadcast_to(c, idx.shape),
                       d, h, w), grad_out)
    return grad_x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_bytes_do_not_depend_on_the_part_count(parts, dtype):
    rng = np.random.default_rng(9)
    clamp = nn.LayerSpec("maxpool3d", window=2, clamp_window=True)
    for shape in [(2, 3, 7, 6, 5), (2, 2, 2, 4, 4), (1, 2, 1, 5, 1)]:
        x = rng.standard_normal(shape).astype(dtype)
        x[0, 0, :, :2] = np.nan  # whole windows of NaN, and NaN beside numbers
        x[0, 0, :, 3:] = -np.nan
        x[1 % shape[0], 1] = rng.choice([-0.0, 0.0, 1.0], shape[2:])  # signed-zero ties
        x[-1, -1, ::2] = 2.0  # ties of equal numbers
        for window, stride in [nn._pool_geometry(shape[2:], clamp),
                               ((1, 2, 1), (1, 1, 1)), ((1, 1, 1), (2, 3, 1))]:
            out, cache = nn.maxpool3d_forward(x, window, stride)
            want, want_idx = argmax_pool_forward(x, window, stride)
            assert same_bytes(out, want) and same_bytes(cache[3], want_idx), (shape, window)
            # finite, with signed zeros: where windows overlap (the (1, 2, 1)
            # window), a voxel sums two terms, which add alike in either order
            g = rng.choice([-0.0, 0.0, 0.5, -1.5], out.shape).astype(dtype)
            assert same_bytes(nn.maxpool3d_backward(g, cache),
                              add_at_pool_backward(g, cache)), (shape, window)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_backward_without_overlap_is_byte_equal_to_add_at(dtype):
    """Every window of up to 3 voxels a side, with every stride from the
    window to two voxels past it: each voxel gets 0.0 + g at most once."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 2, 7, 6, 5)).astype(dtype)
    x[0, 0, :3] = 1.0  # ties of equal numbers
    x[1, 1, 3:] = np.nan
    for window in itertools.product((1, 2, 3), repeat=3):
        for extra in itertools.product((0, 1, 2), repeat=3):
            stride = tuple(w + e for w, e in zip(window, extra))
            out, cache = nn.maxpool3d_forward(x, window, stride)
            g = rng.standard_normal(out.shape).astype(dtype)
            g.flat[::3] = -0.0
            g.flat[1::5] = np.nan
            g.flat[2::7] = -np.nan
            assert same_bytes(nn.maxpool3d_backward(g, cache),
                              add_at_pool_backward(g, cache)), (window, stride)


def test_pool_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 4, 4, 4))
    proj = rng.standard_normal((1, 2, 2, 2, 2))

    def objective():
        return float((nn.maxpool3d_forward(x, 2)[0] * proj).sum())

    _, cache = nn.maxpool3d_forward(x, 2)
    gx = nn.maxpool3d_backward(proj, cache)
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6


def test_pool_overlapping_windows_accumulate():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 1, 4, 4, 4))
    proj = rng.standard_normal((1, 1, 3, 3, 3))

    def objective():
        return float((nn.maxpool3d_forward(x, 2, 1)[0] * proj).sum())

    _, cache = nn.maxpool3d_forward(x, 2, 1)
    gx = nn.maxpool3d_backward(proj, cache)
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6


def test_pool_window_exceeding_extent_raises():
    with pytest.raises(nn.ShapeMismatch):
        nn.maxpool3d_forward(np.zeros((1, 1, 2, 4, 4)), 3)


# -------------------------------------------------------------- batchnorm

def test_batchnorm_train_standardizes():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3, 5, 6, 6)) * 3.0 + 7.0
    out, _, _, _ = nn.batchnorm3d_forward(x, np.ones(3), np.zeros(3), "train",
                                          np.zeros(3), np.ones(3))
    mean = out.mean(axis=(0, 2, 3, 4))
    var = out.var(axis=(0, 2, 3, 4))
    assert np.max(np.abs(mean)) < 1e-6
    assert np.max(np.abs(var - 1.0)) < 1e-4


def test_batchnorm_infer_constant_gives_beta():
    x = np.full((2, 2, 3, 3, 3), 5.0)
    beta = np.array([1.5, -2.0])
    out, _, _, _ = nn.batchnorm3d_forward(x, np.ones(2), beta, "infer",
                                          np.full(2, 5.0), np.ones(2))
    assert np.allclose(out[:, 0], 1.5) and np.allclose(out[:, 1], -2.0)


def test_batchnorm_running_stat_blend():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 2, 4, 4, 4))
    rm, rv = np.array([1.0, -1.0]), np.array([2.0, 3.0])
    _, _, new_rm, new_rv = nn.batchnorm3d_forward(
        x, np.ones(2), np.zeros(2), "train", rm, rv, momentum=0.1)
    mu = x.mean(axis=(0, 2, 3, 4))
    var = x.var(axis=(0, 2, 3, 4))
    assert np.allclose(new_rm, 0.9 * rm + 0.1 * mu, atol=1e-12)
    assert np.allclose(new_rv, 0.9 * rv + 0.1 * var, atol=1e-12)


def test_batchnorm_backward_train_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 2, 3, 3, 3))
    gamma = rng.uniform(0.5, 1.5, 2)
    beta = rng.standard_normal(2)
    proj = rng.standard_normal(x.shape)

    def objective():
        out, _, _, _ = nn.batchnorm3d_forward(x, gamma, beta, "train",
                                              np.zeros(2), np.ones(2))
        return float((out * proj).sum())

    _, cache, _, _ = nn.batchnorm3d_forward(x, gamma, beta, "train",
                                            np.zeros(2), np.ones(2))
    gx, gg, gb = nn.batchnorm3d_backward(proj, cache)
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6
    assert max_rel_err(gg, fd_grad(objective, gamma)) < 1e-6
    assert max_rel_err(gb, fd_grad(objective, beta)) < 1e-6


def test_batchnorm_backward_infer_matches_finite_differences():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 2, 3, 3, 3))
    gamma = rng.uniform(0.5, 1.5, 2)
    beta = rng.standard_normal(2)
    rm, rv = rng.standard_normal(2), rng.uniform(0.5, 2.0, 2)
    proj = rng.standard_normal(x.shape)

    def objective():
        out, _, _, _ = nn.batchnorm3d_forward(x, gamma, beta, "infer", rm, rv)
        return float((out * proj).sum())

    _, cache, _, _ = nn.batchnorm3d_forward(x, gamma, beta, "infer", rm, rv)
    gx, gg, gb = nn.batchnorm3d_backward(proj, cache)
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6
    assert max_rel_err(gg, fd_grad(objective, gamma)) < 1e-6
    assert max_rel_err(gb, fd_grad(objective, beta)) < 1e-6


def test_batchnorm_degenerate_batch_raises():
    with pytest.raises(ValueError, match="need at least 2 values per channel"):
        nn.batchnorm3d_forward(np.zeros((1, 2, 1, 1, 1)), np.ones(2), np.zeros(2),
                               "train", np.zeros(2), np.ones(2))


# ------------------------------------ relu / gap / dense / dropout / softmax

def small_layer(kind, x, weights=None, mode="train", seed=0, **fields):
    """(output, backward) of one layer written in the engine's dispatch,
    as layer 0 of a model."""
    return nn._layer(0, nn.LayerSpec(kind, **fields), weights or {}, x, mode, seed)


def test_gap_constant_and_mean_oracle():
    assert np.allclose(small_layer("gap", np.full((2, 3, 2, 2, 2), 4.0))[0], 4.0)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 3, 4, 5, 5))
    out, _ = small_layer("gap", x)
    for b in range(2):
        for c in range(3):
            assert abs(out[b, c] - x[b, c].mean()) < 1e-12


def test_gap_backward_uniform_and_fd():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 2, 3, 3, 3))
    proj = rng.standard_normal((2, 2))

    def objective():
        return float((small_layer("gap", x)[0] * proj).sum())

    gx, _ = small_layer("gap", x)[1](proj)
    assert np.allclose(gx, proj[:, :, None, None, None] / 27, atol=1e-15)
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6


def test_dense_backward_matches_finite_differences():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    proj = rng.standard_normal((3, 5))
    weights = {"L0.weight": w, "L0.bias": b}

    def objective():
        return float((small_layer("dense", x, weights, units=5)[0] * proj).sum())

    gx, grads = small_layer("dense", x, weights, units=5)[1](proj)
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6
    assert max_rel_err(grads["L0.weight"], fd_grad(objective, w)) < 1e-6
    assert max_rel_err(grads["L0.bias"], fd_grad(objective, b)) < 1e-6


def test_relu_backward_matches_finite_differences():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((4, 6))
    x[np.abs(x) < 1e-3] += 0.5  # stay clear of the kink
    proj = rng.standard_normal(x.shape)

    def objective():
        return float((small_layer("relu", x)[0] * proj).sum())

    gx, _ = small_layer("relu", x)[1](proj)
    assert max_rel_err(gx, fd_grad(objective, x)) < 1e-6


def test_dropout_rate_zero_and_infer_identity():
    x = np.random.default_rng(17).standard_normal((3, 5))
    for out, _ in (small_layer("dropout", x, mode="train", seed=1, rate=0.0),
                   small_layer("dropout", x, mode="infer", seed=1, rate=0.5)):
        assert np.array_equal(out, x)


def test_dropout_seed_determinism():
    x = np.ones((4, 8))
    a, _ = small_layer("dropout", x, seed=42, rate=0.5)
    b, _ = small_layer("dropout", x, seed=42, rate=0.5)
    c, _ = small_layer("dropout", x, seed=43, rate=0.5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_expectation_approaches_identity():
    c = 3.0
    x = np.full((1, 1), c)
    draws = 10000
    total = 0.0
    for s in range(draws):
        out, _ = small_layer("dropout", x, seed=s, rate=0.5)
        total += float(out[0, 0])
    mean = total / draws
    se = c * 1.0 / np.sqrt(draws)  # std of c*Bern(0.5)/0.5 is exactly c
    assert abs(mean - c) < 3 * se


def test_softmax_symmetry_and_rows():
    p, back = small_layer("softmax", np.array([[0.0, 0.0]]))
    assert np.allclose(p, 0.5, atol=1e-15)
    assert back is None  # loss_and_grads folds softmax into the logits gradient
    z = np.random.default_rng(18).standard_normal((5, 4)) * 10
    p, _ = small_layer("softmax", z)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------ model specs

def tiny_spec(class_count=2, in_shape=(1, 4, 6, 6), dropout=False):
    layers = [
        nn.LayerSpec("conv3d", kernel=3, padding=1, out_channels=2),
        nn.LayerSpec("relu"),
        nn.LayerSpec("maxpool3d", window=2),
        nn.LayerSpec("batchnorm3d"),
        nn.LayerSpec("gap"),
        nn.LayerSpec("dense", units=4),
    ]
    if dropout:
        layers.append(nn.LayerSpec("dropout", rate=0.25))
    layers += [nn.LayerSpec("dense", units=class_count), nn.LayerSpec("softmax")]
    return nn.ModelSpec(in_shape, tuple(layers), class_count)


def test_model_spec_validation():
    good = tiny_spec()
    assert good.layers[-1].kind == "softmax"
    with pytest.raises(ValueError):
        nn.ModelSpec((1, 4, 4, 4), (nn.LayerSpec("gap"), nn.LayerSpec("dense", units=2)), 2)
    with pytest.raises(ValueError):  # dense before gap
        nn.ModelSpec((1, 4, 4, 4),
                     (nn.LayerSpec("dense", units=2), nn.LayerSpec("gap"),
                      nn.LayerSpec("softmax")), 2)
    with pytest.raises(ValueError):  # no gap bridge
        nn.ModelSpec((1, 4, 4, 4), (nn.LayerSpec("relu"), nn.LayerSpec("softmax")), 2)


def test_model_spec_json_round_trip():
    spec = tiny_spec(dropout=True)
    back = nn.ModelSpec.from_json(spec.to_json())
    assert back == spec


def test_shape_algebra_matches_observed_shapes():
    rng = np.random.default_rng(20)
    for trial in range(100):
        ci = int(rng.integers(1, 3))
        d, h, w = (int(rng.integers(3, 7)) for _ in range(3))
        layers = []
        for _ in range(int(rng.integers(1, 4))):
            pickk = rng.integers(0, 4)
            if pickk == 0:
                layers.append(nn.LayerSpec("conv3d", kernel=int(rng.integers(1, 3)),
                                           padding=1, out_channels=int(rng.integers(1, 4))))
            elif pickk == 1:
                layers.append(nn.LayerSpec("relu"))
            elif pickk == 2:
                layers.append(nn.LayerSpec("maxpool3d", window=2, clamp_window=True))
            else:
                layers.append(nn.LayerSpec("batchnorm3d"))
        layers += [nn.LayerSpec("gap"), nn.LayerSpec("dense", units=2),
                   nn.LayerSpec("softmax")]
        spec = nn.ModelSpec((ci, d, h, w), tuple(layers), 2)
        shapes = nn.model_shapes(spec)
        weights = nn.init_weights(spec, seed=trial, dtype=np.float64)

        cur = rng.standard_normal((2, ci, d, h, w))
        for i, layer in enumerate(spec.layers):
            cur, _ = nn._layer(i, layer, weights, cur, "infer", 0)
            assert cur.shape[1:] == shapes[i], (trial, i, layer.kind)


def test_model_forward_identical_rows_for_identical_samples():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=1, dtype=np.float64)
    x1 = np.random.default_rng(21).standard_normal((1,) + spec.input_shape)
    x = np.concatenate([x1, x1], axis=0)
    p = nn.model_forward(spec, weights, x)
    assert np.array_equal(p[0], p[1])


def test_model_forward_matches_layer_by_layer_oracle():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=2, dtype=np.float64)
    # make running stats non-trivial so infer-mode batchnorm is exercised
    rng = np.random.default_rng(22)
    for n in list(weights):
        if n.endswith("running_mean"):
            weights[n] = rng.standard_normal(weights[n].shape)
        if n.endswith("running_var"):
            weights[n] = rng.uniform(0.5, 2.0, weights[n].shape)
    x = rng.standard_normal((3,) + spec.input_shape)
    got = nn.model_forward(spec, weights, x)

    # independent recomputation from first principles
    cur = conv_loop_oracle(x, weights["L0.kernel"], weights["L0.bias"],
                           (1, 1, 1), (1, 1, 1))
    cur = np.maximum(cur, 0)
    cur = pool_loop_oracle(cur, (2, 2, 2), (2, 2, 2))
    rm, rv = weights["L3.running_mean"], weights["L3.running_var"]
    g3, b3 = weights["L3.gamma"], weights["L3.beta"]
    sh = (1, -1, 1, 1, 1)
    cur = g3.reshape(sh) * (cur - rm.reshape(sh)) / np.sqrt(rv.reshape(sh) + 1e-5) \
        + b3.reshape(sh)
    cur = cur.mean(axis=(2, 3, 4))
    cur = cur @ weights["L5.weight"] + weights["L5.bias"]
    cur = cur @ weights["L6.weight"] + weights["L6.bias"]
    e = np.exp(cur - cur.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    assert np.max(np.abs(got - want)) < 1e-10


def test_model_rows_sum_to_one_and_class_dims():
    for k in (2, 4):
        spec = tiny_spec(class_count=k)
        weights = nn.init_weights(spec, seed=3)
        x = np.random.default_rng(23).standard_normal(
            (4,) + spec.input_shape).astype(np.float32)
        p = nn.model_forward(spec, weights, x)
        assert p.shape == (4, k)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-6


def test_model_rejects_wrong_batch_shape():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=4)
    with pytest.raises(nn.ShapeMismatch):
        nn.model_forward(spec, weights, np.zeros((1, 1, 5, 6, 6), dtype=np.float32))


def test_infer_forward_leaves_running_stats():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=5, dtype=np.float64)
    before = {n: w.copy() for n, w in weights.items()}
    x = np.random.default_rng(24).standard_normal((2,) + spec.input_shape)
    nn.model_forward(spec, weights, x)
    for n in before:
        assert np.array_equal(weights[n], before[n]), n


def test_train_forward_updates_running_stats():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=6, dtype=np.float64)
    before = weights["L3.running_mean"].copy()
    x = np.random.default_rng(25).standard_normal((2,) + spec.input_shape) + 3.0
    nn.loss_and_grads(spec, weights, x, [0, 1])
    assert not np.array_equal(weights["L3.running_mean"], before)


# -------------------------------------------------------- loss and grads

def test_loss_matches_manual_weighted_cross_entropy():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=7, dtype=np.float64)
    x = np.random.default_rng(26).standard_normal((4,) + spec.input_shape)
    labels = np.array([0, 1, 1, 0])
    wvec = np.array([2.0, 0.5])
    loss, _, probs = nn.loss_and_grads(spec, weights, x, labels, wvec, mode="infer")
    manual = np.mean([wvec[y] * -np.log(probs[i, y]) for i, y in enumerate(labels)])
    assert abs(loss - manual) < 1e-12


def test_uniform_weights_equal_unweighted_loss():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=8, dtype=np.float64)
    x = np.random.default_rng(27).standard_normal((4,) + spec.input_shape)
    labels = [1, 0, 1, 1]
    a, _, _ = nn.loss_and_grads(spec, weights, x, labels, np.ones(2), mode="infer")
    b, _, _ = nn.loss_and_grads(spec, weights, x, labels, None, mode="infer")
    assert abs(a - b) < 1e-12


def test_loss_gradients_match_finite_differences():
    # dropout included: with a pinned seed the mask is a constant, so the
    # loss stays differentiable in the parameters
    spec = tiny_spec(dropout=True)
    weights = nn.init_weights(spec, seed=9, dtype=np.float64)
    for n in list(weights):
        if n.endswith(".bias"):
            weights[n] = weights[n] + 0.3  # keep relu inputs off the kink
    x = np.random.default_rng(28).standard_normal((3,) + spec.input_shape)
    labels = [0, 1, 0]
    wvec = np.array([1.5, 0.75])

    def objective():
        w2 = {n: w.copy() for n, w in weights.items()}  # protect running stats
        loss, _, _ = nn.loss_and_grads(spec, w2, x, labels, wvec, mode="train", seed=5)
        return loss

    w_frozen = {n: w.copy() for n, w in weights.items()}
    _, grads, _ = nn.loss_and_grads(spec, w_frozen, x, labels, wvec,
                                    mode="train", seed=5)
    for name in nn.trainable_names(weights):
        got = grads[name]
        want = fd_grad(objective, weights[name])
        assert max_rel_err(got, want) < 1e-5, name


# ------------------------------------------- the per-kind dispatch, kept

# The engine before `_layer`: a forward that fills one context tuple per
# layer, a backward that dispatches on kind again to read it, an
# init_weights that walks the layers itself, and the two-branch batchnorm.
# The engine must reproduce their bytes.

def legacy_batchnorm3d_forward(x, gamma, beta, mode, running_mean, running_var,
                               momentum=0.1, eps=1e-5):
    shape = (1, -1, 1, 1, 1)
    if mode == "train":
        n = x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]
        if n < 2:
            raise ValueError("need at least 2 values per channel to normalize")
        mean = x.mean(axis=(0, 2, 3, 4))
        var = x.var(axis=(0, 2, 3, 4))
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
        out = gamma.reshape(shape) * xhat + beta.reshape(shape)
        new_rm = (1 - momentum) * running_mean + momentum * mean
        new_rv = (1 - momentum) * running_var + momentum * var
        return out, ("train", xhat, inv, gamma), new_rm, new_rv
    inv = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean.reshape(shape)) * inv.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    return out, ("infer", xhat, inv, gamma), running_mean, running_var


def legacy_batchnorm3d_backward(grad_out, cache):
    shape = (1, -1, 1, 1, 1)
    if cache[0] == "train":
        _, xhat, inv, gamma = cache
        axes = (0, 2, 3, 4)
        grad_gamma = (grad_out * xhat).sum(axis=axes)
        grad_beta = grad_out.sum(axis=axes)
        n = grad_out.size // grad_out.shape[1]
        grad_x = (gamma * inv).reshape(shape) * (
            grad_out - (grad_beta / n).reshape(shape)
            - xhat * (grad_gamma / n).reshape(shape))
        return grad_x, grad_gamma, grad_beta
    _, xhat, inv, gamma = cache
    grad_x = grad_out * (gamma * inv).reshape(shape)
    return grad_x, (grad_out * xhat).sum(axis=(0, 2, 3, 4)), \
        grad_out.sum(axis=(0, 2, 3, 4))


def legacy_gap_backward(grad_out, x_shape):
    n = x_shape[2] * x_shape[3] * x_shape[4]
    return np.broadcast_to(grad_out[:, :, None, None, None] / n, x_shape).astype(
        grad_out.dtype).copy()


def legacy_dropout_forward(x, rate, mode, seed):
    if mode != "train" or rate == 0.0:
        return x.copy(), None
    mask = (np.random.default_rng(seed).random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask.astype(x.dtype)


def legacy_softmax_forward(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def legacy_forward(spec, weights, x, mode, seed, caches=None):
    cur = x
    for i, layer in enumerate(spec.layers):
        k = layer.kind
        if k == "conv3d":
            stride = layer.stride or (1, 1, 1)
            padding = layer.padding or (0, 0, 0)
            out = nn.conv3d_forward(cur, weights[f"L{i}.kernel"], weights[f"L{i}.bias"],
                                    stride, padding)
            ctx = (cur,)
        elif k == "relu":
            out = np.maximum(cur, 0)
            ctx = (cur > 0,)
        elif k == "maxpool3d":
            window, stride = nn._pool_geometry(cur.shape[2:], layer)
            out, pc = nn.maxpool3d_forward(cur, window, stride)
            ctx = (pc,)
        elif k == "batchnorm3d":
            out, bc, rm, rv = legacy_batchnorm3d_forward(
                cur, weights[f"L{i}.gamma"], weights[f"L{i}.beta"], mode,
                weights[f"L{i}.running_mean"], weights[f"L{i}.running_var"],
                layer.momentum, layer.eps)
            if mode == "train":
                dt = weights[f"L{i}.running_mean"].dtype
                weights[f"L{i}.running_mean"] = rm.astype(dt)
                weights[f"L{i}.running_var"] = rv.astype(dt)
            ctx = (bc,)
        elif k == "gap":
            out = cur.mean(axis=(2, 3, 4))
            ctx = (cur.shape,)
        elif k == "dense":
            out = cur @ weights[f"L{i}.weight"] + weights[f"L{i}.bias"]
            ctx = (cur,)
        elif k == "dropout":
            out, m = legacy_dropout_forward(cur, layer.rate, mode, [int(seed), i])
            ctx = (m,)
        else:
            out = legacy_softmax_forward(cur)
            ctx = ()
        if caches is not None:
            caches.append(ctx)
        cur = out
    return cur


def legacy_backward_from(spec, weights, caches, grad, start):
    grads = {}
    for i in range(start, -1, -1):
        layer = spec.layers[i]
        k = layer.kind
        ctx = caches[i]
        if k == "conv3d":
            stride = layer.stride or (1, 1, 1)
            padding = layer.padding or (0, 0, 0)
            grad, gk, gb = nn.conv3d_backward(ctx[0], weights[f"L{i}.kernel"], grad,
                                              stride, padding)
            grads[f"L{i}.kernel"], grads[f"L{i}.bias"] = gk, gb
        elif k == "relu":
            grad = grad * ctx[0]
        elif k == "maxpool3d":
            grad = nn.maxpool3d_backward(grad, ctx[0])
        elif k == "batchnorm3d":
            grad, gg, gb = legacy_batchnorm3d_backward(grad, ctx[0])
            grads[f"L{i}.gamma"], grads[f"L{i}.beta"] = gg, gb
        elif k == "gap":
            grad = legacy_gap_backward(grad, ctx[0])
        elif k == "dense":
            w = weights[f"L{i}.weight"]
            grad, gw, gb = grad @ w.T, ctx[0].T @ grad, grad.sum(axis=0)
            grads[f"L{i}.weight"], grads[f"L{i}.bias"] = gw, gb
        elif k == "dropout":
            grad = grad.copy() if ctx[0] is None else grad * ctx[0]
    return grads, grad


def legacy_loss_and_grads(spec, weights, x, labels, class_weight_vec, mode, seed):
    caches = []
    probs = legacy_forward(spec, weights, x, mode, seed, caches)
    loss, grad_logits = nn.weighted_cross_entropy(probs, labels, class_weight_vec)
    grads, _ = legacy_backward_from(spec, weights, caches, grad_logits.astype(x.dtype),
                                    len(spec.layers) - 2)
    return loss, grads, probs


def legacy_init_weights(spec, seed=0, dtype=np.float32):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    weights = {}
    cur = spec.input_shape
    for i, layer in enumerate(spec.layers):
        out = nn.layer_output_shape(cur, layer)
        if layer.kind == "conv3d":
            kd, kh, kw = layer.kernel
            ci, co = cur[0], layer.out_channels
            fan_in, fan_out = ci * kd * kh * kw, co * kd * kh * kw
            std = np.sqrt(2.0 / (fan_in + fan_out))
            weights[f"L{i}.kernel"] = rng.normal(0, std, (co, ci, kd, kh, kw)).astype(dtype)
            weights[f"L{i}.bias"] = np.zeros(co, dtype=dtype)
        elif layer.kind == "batchnorm3d":
            c = cur[0]
            weights[f"L{i}.gamma"] = np.ones(c, dtype=dtype)
            weights[f"L{i}.beta"] = np.zeros(c, dtype=dtype)
            weights[f"L{i}.running_mean"] = np.zeros(c, dtype=dtype)
            weights[f"L{i}.running_var"] = np.ones(c, dtype=dtype)
        elif layer.kind == "dense":
            fan_in, fan_out = cur[0], layer.units
            std = np.sqrt(2.0 / (fan_in + fan_out))
            weights[f"L{i}.weight"] = rng.normal(0, std, (fan_in, layer.units)).astype(dtype)
            weights[f"L{i}.bias"] = np.zeros(layer.units, dtype=dtype)
        cur = out
    return weights


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.reshape(-1).view(np.uint8), b.reshape(-1).view(np.uint8)))


def test_dispatch_reproduces_legacy_bytes_on_a_progressive_model():
    # a 1->1 stem in front of a base model whose first conv is 1->16, with
    # the dropout head: every layer kind and both conv lowerings, float32
    small = nn.base_model((1, 4, 8, 8), 3, channels=(16, 8))
    spec, weights = nn.build_progressive(small, nn.init_weights(small, seed=40), seed=41)
    rng = np.random.default_rng(42)
    for n in list(weights):  # batchnorm with non-trivial affine and stats
        if n.split(".")[1] in ("gamma", "beta", "running_mean"):
            weights[n] = rng.uniform(-1.0, 1.0, weights[n].shape).astype(np.float32)
    x = rng.standard_normal((4,) + spec.input_shape).astype(np.float32)
    labels, wvec = [0, 2, 1, 2], np.array([0.5, 1.25, 2.0])

    new_w = {n: w.copy() for n, w in weights.items()}
    old_w = {n: w.copy() for n, w in weights.items()}
    loss, grads, probs = nn.loss_and_grads(spec, new_w, x, labels, wvec,
                                           mode="train", seed=7)
    want_loss, want_grads, want_probs = legacy_loss_and_grads(
        spec, old_w, x, labels, wvec, "train", 7)
    assert same_bytes(loss, want_loss)
    assert same_bytes(probs, want_probs)
    assert list(grads) == list(want_grads)
    assert sorted(grads) == nn.trainable_names(weights)
    for name in grads:
        assert same_bytes(grads[name], want_grads[name]), name
    for name in weights:  # running stats blended the same way
        assert same_bytes(new_w[name], old_w[name]), name

    got = nn.model_forward(spec, weights, x)
    assert same_bytes(got, legacy_forward(spec, weights, x, "infer", 0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_weights_reproduces_legacy_bytes(dtype):
    specs = [tiny_spec(), tiny_spec(class_count=4, dropout=True),
             nn.base_model((1, 6, 16, 16), 2),
             nn.base_model((2, 27, 16, 16), 3, channels=(2, 3, 4, 5, 6)),
             nn.build_progressive(nn.base_model((1, 4, 8, 8), 2),
                                  nn.init_weights(nn.base_model((1, 4, 8, 8), 2)))[0]]
    for spec in specs:
        for seed in (0, 1, 123):
            got = nn.init_weights(spec, seed=seed, dtype=dtype)
            want = legacy_init_weights(spec, seed=seed, dtype=dtype)
            assert list(got) == list(want)
            assert list(nn.param_shapes(spec)) == list(want)
            for name in want:
                assert same_bytes(got[name], want[name]), (spec, seed, name)


# ------------------------------------------------- progressive & reference

def test_base_model_structure():
    spec = nn.base_model((1, 20, 128, 128), 2)
    kinds = [l.kind for l in spec.layers]
    assert kinds.count("conv3d") == 4
    assert kinds.count("gap") == 1
    assert kinds[-1] == "softmax"
    shapes = nn.model_shapes(spec)
    assert shapes[-1] == (2,)
    assert shapes[kinds.index("gap")] == (128,)


def test_base_model_runs_on_small_analog():
    spec = nn.base_model((1, 6, 16, 16), 4, channels=(4, 8))
    weights = nn.init_weights(spec, seed=10)
    x = np.random.default_rng(29).random((2,) + spec.input_shape).astype(np.float32)
    p = nn.model_forward(spec, weights, x)
    assert p.shape == (2, 4)


def test_progressive_carries_weights_bit_exact():
    small = nn.base_model((1, 5, 8, 8), 2, channels=(4, 8))
    sw = nn.init_weights(small, seed=11)
    large_spec, lw = nn.build_progressive(small, sw, seed=12)
    assert large_spec.input_shape == (1, 10, 16, 16)
    assert len(large_spec.layers) == len(small.layers) + nn.STEM_LAYER_COUNT
    for name, tensor in sw.items():
        i, suffix = name[1:].split(".", 1)
        carried = lw[f"L{int(i) + nn.STEM_LAYER_COUNT}.{suffix}"]
        assert np.array_equal(carried, tensor), name
        assert carried.dtype == tensor.dtype


def test_progressive_non_dyadic_input():
    # depth ladder here is 5 -> 7, deliberately not a factor of two; pooled
    # extents bottom out at 1 and the clamped windows keep the net legal
    small = nn.base_model((1, 5, 8, 8), 2, channels=(4, 8))
    sw = nn.init_weights(small, seed=13)
    large_spec, lw = nn.build_progressive(small, sw, large_input=(1, 7, 16, 16))
    x = np.random.default_rng(30).random((2, 1, 7, 16, 16)).astype(np.float32)
    p = nn.model_forward(large_spec, lw, x)
    assert p.shape == (2, 2)


def test_progressive_rejects_channel_change():
    small = nn.base_model((1, 5, 8, 8), 2, channels=(4,))
    sw = nn.init_weights(small, seed=14)
    with pytest.raises(nn.ShapeMismatch):
        nn.build_progressive(small, sw, large_input=(2, 10, 16, 16))


def test_deep_clamped_ladder_stays_legal():
    # 27 -> 13 -> 6 -> 3 -> 1 -> 1: the fifth pool only fits by clamping
    spec = nn.base_model((1, 27, 16, 16), 2, channels=(2, 2, 2, 2, 2))
    shapes = nn.model_shapes(spec)
    assert shapes[[l.kind for l in spec.layers].index("gap")] == (2,)
    weights = nn.init_weights(spec, seed=15)
    x = np.random.default_rng(31).random((1, 1, 27, 16, 16)).astype(np.float32)
    assert nn.model_forward(spec, weights, x).shape == (1, 2)


# ------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip():
    spec = tiny_spec(dropout=True)
    weights = nn.init_weights(spec, seed=16)
    weights["L3.running_mean"] = np.random.default_rng(32).standard_normal(2).astype(np.float32)
    spec2, weights2 = nn.load_checkpoint(nn.save_checkpoint(spec, weights))
    assert spec2 == spec
    assert set(weights2) == set(weights)
    for n in weights:
        assert np.array_equal(weights2[n], weights[n]), n
        assert weights2[n].dtype == weights[n].dtype


def test_checkpoint_bytes_deterministic():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=17)
    assert nn.save_checkpoint(spec, weights) == nn.save_checkpoint(spec, weights)


def test_checkpoint_rejects_bad_magic():
    spec = tiny_spec()
    blob = bytearray(nn.save_checkpoint(spec, nn.init_weights(spec, seed=18)))
    blob[:4] = b"XXXX"
    with pytest.raises(ValueError):
        nn.load_checkpoint(bytes(blob))


def test_checkpoint_rejects_missing_tensor():
    spec = tiny_spec()
    weights = nn.init_weights(spec, seed=19)
    del weights["L0.bias"]
    blob = nn.save_checkpoint(spec, weights)
    with pytest.raises(ValueError):
        nn.load_checkpoint(blob)
