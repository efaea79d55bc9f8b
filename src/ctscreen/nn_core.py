"""From-scratch 3D CNN engine: forward passes, analytic backward passes.

Tensors are numpy arrays shaped (batch, channels, depth, height, width).
"Convolution" is cross-correlation (no kernel flip) with zero padding.
The layer set is closed: conv3d, relu, maxpool3d, batchnorm3d, gap, dense,
dropout, softmax. Models are a flat list of LayerSpec applied in order,
with global average pooling bridging the convolutional stack to the dense
classifier head.

Each layer kind is dispatched once, in `_layer`: the forward pass can record,
per layer, the function that inverts it, and `loss_and_grads` runs those in
reverse. `param_shapes` is the one table of tensor names and shapes that
`init_weights` fills and `load_checkpoint` checks files against.

Everything is dtype-polymorphic: float32 for training, float64 when the
finite-difference tests need headroom.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeMismatch(ValueError):
    pass


class LabelOutOfRange(ValueError):
    pass


class DegenerateBatch(ValueError):
    """Batch statistics need at least two values per channel."""


def _triple(v):
    if v is None:
        return None
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected scalar or 3-tuple, got {v!r}")
    return t


# ------------------------------------------------------------------ layers

def _conv_extents(extents, kernel, stride, padding):
    """Output extents floor((n + 2p - k)/s) + 1 of a window sliding over
    zero-padded extents: a conv3d, or a maxpool3d with p = 0."""
    for n, k, p in zip(extents, kernel, padding):
        if n + 2 * p < k:
            raise ShapeMismatch(f"window {k} exceeds padded extent {n + 2 * p}")
    return tuple((n + 2 * p - k) // s + 1
                 for n, k, s, p in zip(extents, kernel, stride, padding))


def _conv_geometry(x, kernel, stride, padding):
    """Checked (stride, padding, output extents) of one conv3d call."""
    if x.ndim != 5 or kernel.ndim != 5:
        raise ShapeMismatch("conv3d expects 5D input and kernel")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects "
                            f"{kernel.shape[1]}")
    stride, padding = _triple(stride), _triple(padding)
    return stride, padding, _conv_extents(x.shape[2:], kernel.shape[2:], stride, padding)


def _offsets(kernel, stride, dims):
    """Each kernel offset (i, j, k), in C order, with the spatial slices of
    the padded input that this offset meets across the output grid."""
    for off in np.ndindex(*kernel.shape[2:]):
        yield off, tuple(slice(o, o + s * n, s) for o, s, n in zip(off, stride, dims))


def _interior(shape, padding):
    """Spatial slices of a padded grid that hold the unpadded input."""
    return tuple(slice(p, p + n) for n, p in zip(shape[2:], padding))


def _pad_channels_last(x, padding):
    """Zero-padded copy of x as (batch, depth, height, width, channels)."""
    return np.pad(x.transpose(0, 2, 3, 4, 1),
                  ((0, 0),) + tuple((p, p) for p in padding) + ((0, 0),))


# outputs per slab of the ci == 1 forward: a float32 slab and its product
# buffer take 1 MiB, which stays in a 2 MiB L2 cache
SLAB_ELEMENTS = 1 << 17


def conv3d_forward(x, kernel, bias=None, stride=1, padding=0):
    """Cross-correlation; output extent = floor((n + 2p - k)/s) + 1.

    The lowering is chosen by the input channel count alone, and both make
    one pass per kernel offset, so memory stays O(one input copy):

    - ci > 1: channels-last, one BLAS GEMM per offset,
      acc(N, co) += window(N, ci) @ W[i,j,k](ci, co);
    - ci == 1 (the progressive stems and the first base conv): a per-offset
      multiply-add in the channel-first layout, one cache-sized slab of
      output at a time (see SLAB_ELEMENTS); each output still sums its
      offsets in the same order, so the slabs change no bits. These layers are
      memory-bound, a GEMM/GEMV there is slower for co == 1, a full im2col
      of a 36x512x512 scan would need about 1 GB, and their float32 bits
      are kept as they were: the ladder-beats-baseline acceptance test
      (test_c09) holds at its seed only with them.
    """
    stride, padding, dims = _conv_geometry(x, kernel, stride, padding)
    b, (co, ci) = x.shape[0], kernel.shape[:2]
    if bias is not None and np.shape(bias) != (co,):
        raise ShapeMismatch(f"bias {np.shape(bias)} != ({co},) output channels")
    if ci == 1:
        xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
        out = np.zeros((b, co) + dims, dtype=x.dtype)
        # slabs of about SLAB_ELEMENTS outputs: a run of axis-0 rows of one
        # sample, or whole samples when one sample is smaller than that
        rows = min(max(SLAB_ELEMENTS // (co * dims[1] * dims[2]), 1), dims[0])
        samples = min(max(SLAB_ELEMENTS // (co * math.prod(dims)), 1), b)
        term = np.empty((samples, co, rows) + dims[1:], dtype=np.result_type(x, kernel))
        for b0 in range(0, b, samples):
            for d0 in range(0, dims[0], rows):
                slab = out[b0:b0 + samples, :, d0:d0 + rows]
                t = term[:slab.shape[0], :, :slab.shape[2]]
                src = xp[b0:b0 + samples, :, stride[0] * d0:]
                for off, view in _offsets(kernel, stride, slab.shape[2:]):
                    np.multiply(src[(Ellipsis,) + view],
                                kernel[(slice(None), 0) + off].reshape(1, co, 1, 1, 1), out=t)
                    slab += t
    else:
        xp = _pad_channels_last(x, padding)
        w = np.ascontiguousarray(kernel.transpose(2, 3, 4, 1, 0))  # (kd, kh, kw, ci, co)
        window = np.empty((b,) + dims + (ci,), dtype=x.dtype)
        rows = window.reshape(-1, ci)
        acc = np.zeros((rows.shape[0], co), dtype=x.dtype)
        for off, view in _offsets(kernel, stride, dims):
            np.copyto(window, xp[(slice(None),) + view])
            acc += rows @ w[off]
        out = np.ascontiguousarray(
            acc.reshape((b,) + dims + (co,)).transpose(0, 4, 1, 2, 3))
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1, 1)
    return out


def conv3d_backward(x, kernel, grad_out, stride=1, padding=0, input_grad=True):
    """Gradients of conv3d_forward w.r.t. (input, kernel, bias), with the
    same lowering by input channel count. With `input_grad` false the input
    gradient is not computed and comes back as None; the kernel gradient
    never reads it, so the other two are the same."""
    stride, padding, dims = _conv_geometry(x, kernel, stride, padding)
    b, (co, ci) = x.shape[0], kernel.shape[:2]
    if grad_out.shape != (b, co) + dims:
        raise ShapeMismatch(f"grad_out {grad_out.shape} != conv output "
                            f"{(b, co) + dims}")
    grad_k = np.zeros_like(kernel)
    if ci == 1:
        xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
        grad_xp = np.zeros_like(xp) if input_grad else None
        for off, view in _offsets(kernel, stride, dims):
            sub = (Ellipsis,) + view
            grad_k[(Ellipsis,) + off] = np.einsum("bcdhw,bodhw->oc", xp[sub], grad_out)
            if input_grad:
                grad_xp[sub] += np.einsum("bodhw,oc->bcdhw", grad_out,
                                          kernel[(Ellipsis,) + off])
        grad_x = grad_xp[(Ellipsis,) + _interior(x.shape, padding)] if input_grad else None
    else:
        xp = _pad_channels_last(x, padding)
        w = np.ascontiguousarray(kernel.transpose(2, 3, 4, 1, 0))
        g = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 4, 1)).reshape(-1, co)
        grad_xp = np.zeros_like(xp) if input_grad else None
        window = np.empty((b,) + dims + (ci,), dtype=x.dtype)
        rows = window.reshape(-1, ci)
        for off, view in _offsets(kernel, stride, dims):
            sub = (slice(None),) + view
            np.copyto(window, xp[sub])
            grad_k[(Ellipsis,) + off] = g.T @ rows
            if input_grad:
                grad_xp[sub] += (g @ w[off].T).reshape(window.shape)
        grad_x = grad_xp[(slice(None),) + _interior(x.shape, padding)].transpose(
            0, 4, 1, 2, 3) if input_grad else None
    if input_grad:
        grad_x = np.ascontiguousarray(grad_x)
    return grad_x, grad_k, grad_out.sum(axis=(0, 2, 3, 4))


def maxpool3d_forward(x, window, stride=None):
    """Max per window; ties resolve to the lowest linear in-window index."""
    window = _triple(window)
    stride = _triple(stride) if stride is not None else window
    if x.ndim != 5:
        raise ShapeMismatch("maxpool3d expects 5D input")
    for n, k in zip(x.shape[2:], window):
        if k > n:
            raise ShapeMismatch(f"pool window {window} exceeds extent {x.shape[2:]}")
    xw = sliding_window_view(x, window, axis=(2, 3, 4))
    xw = xw[:, :, ::stride[0], ::stride[1], ::stride[2]]
    flat = xw.reshape(xw.shape[:5] + (-1,))
    idx = flat.argmax(axis=-1)  # first maximum = lowest linear index
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), (x.shape, window, stride, idx)


def maxpool3d_backward(grad_out, cache):
    x_shape, window, stride, idx = cache
    di, hi, wi = np.unravel_index(idx, window)
    do, ho, wo = idx.shape[2:]
    b = np.arange(x_shape[0]).reshape(-1, 1, 1, 1, 1)
    c = np.arange(x_shape[1]).reshape(1, -1, 1, 1, 1)
    d = np.arange(do).reshape(1, 1, -1, 1, 1) * stride[0] + di
    h = np.arange(ho).reshape(1, 1, 1, -1, 1) * stride[1] + hi
    w = np.arange(wo).reshape(1, 1, 1, 1, -1) * stride[2] + wi
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    # windows may overlap when stride < window, so scatter must accumulate
    np.add.at(grad_x, (np.broadcast_to(b, idx.shape), np.broadcast_to(c, idx.shape),
                       d, h, w), grad_out)
    return grad_x


def batchnorm3d_forward(x, gamma, beta, mode, running_mean, running_var,
                        momentum=0.1, eps=1e-5):
    """Per-channel standardization.

    Train mode normalizes by batch statistics (biased variance) and blends
    running stats toward them; infer mode uses the running stats untouched.
    Returns (out, cache, new_running_mean, new_running_var).
    """
    shape, axes = (1, -1, 1, 1, 1), (0, 2, 3, 4)
    if mode == "train":
        n = x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]
        if n < 2:
            raise DegenerateBatch("need at least 2 values per channel to normalize")
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        running_mean = (1 - momentum) * running_mean + momentum * mean
        running_var = (1 - momentum) * running_var + momentum * var
    elif mode == "infer":
        mean, var = running_mean, running_var
    else:
        raise ValueError(f"mode must be train or infer, got {mode!r}")
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    return out, (mode, xhat, inv, gamma), running_mean, running_var


def batchnorm3d_backward(grad_out, cache):
    mode, xhat, inv, gamma = cache
    shape, axes = (1, -1, 1, 1, 1), (0, 2, 3, 4)
    grad_gamma = (grad_out * xhat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)
    if mode == "train":
        n = grad_out.size // grad_out.shape[1]
        # d/dx of ((x - mean)/std): both stats depend on every batch element
        grad_out = (grad_out - (grad_beta / n).reshape(shape)
                    - xhat * (grad_gamma / n).reshape(shape))
    # in infer mode the running stats are constants: only the affine part
    return (gamma * inv).reshape(shape) * grad_out, grad_gamma, grad_beta


def gap_forward(x):
    """Mean over (depth, height, width) per channel: the bridge layer."""
    if x.ndim != 5:
        raise ShapeMismatch("gap expects 5D input")
    return x.mean(axis=(2, 3, 4)), x.shape


def gap_backward(grad_out, x_shape):
    n = x_shape[2] * x_shape[3] * x_shape[4]
    return np.broadcast_to(grad_out[:, :, None, None, None] / n, x_shape).astype(
        grad_out.dtype).copy()


def relu_forward(x):
    return np.maximum(x, 0), x > 0


def relu_backward(grad_out, mask):
    return grad_out * mask


def dense_forward(x, weight, bias):
    if x.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeMismatch(f"dense: input {x.shape} vs weight {weight.shape}")
    return x @ weight + bias, x


def dense_backward(grad_out, weight, x):
    return grad_out @ weight.T, x.T @ grad_out, grad_out.sum(axis=0)


def dropout_forward(x, rate, mode, seed):
    """Inverted dropout: train-time scaling by 1/(1-rate), infer is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0,1)")
    if mode != "train" or rate == 0.0:
        return x.copy(), None
    seq = seed if isinstance(seed, (list, tuple)) else [int(seed)]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seq)))
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask.astype(x.dtype)


def dropout_backward(grad_out, mask):
    if mask is None:
        return grad_out.copy()
    return grad_out * mask


def softmax_forward(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return p, p


def softmax_backward(grad_out, p):
    inner = (grad_out * p).sum(axis=1, keepdims=True)
    return p * (grad_out - inner)


# ------------------------------------------------------------------- specs

KINDS = ("conv3d", "relu", "maxpool3d", "batchnorm3d", "gap", "dense",
         "dropout", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    kernel: tuple = None        # conv3d: (kd, kh, kw)
    stride: tuple = None        # conv3d/maxpool3d; pool default = window
    padding: tuple = None       # conv3d
    out_channels: int = None    # conv3d
    window: tuple = None        # maxpool3d
    clamp_window: bool = False  # maxpool3d: shrink window to fit small extents
    rate: float = 0.5           # dropout
    units: int = None           # dense
    momentum: float = 0.1       # batchnorm3d
    eps: float = 1e-5           # batchnorm3d

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in ("kernel", "stride", "padding", "window"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _triple(v))
        if self.kind == "conv3d":
            if self.kernel is None or self.out_channels is None:
                raise ValueError("conv3d needs kernel and out_channels")
            if min(self.kernel) < 1 or self.out_channels < 1:
                raise ValueError("conv3d kernel/out_channels must be positive")
        if self.kind == "maxpool3d" and (self.window is None or min(self.window) < 1):
            raise ValueError("maxpool3d needs a positive window")
        if self.stride is not None and min(self.stride) < 1:
            raise ValueError("stride must be positive")
        if self.kind == "dense" and (self.units is None or self.units < 1):
            raise ValueError("dense needs positive units")
        if self.kind == "dropout" and not 0.0 <= self.rate < 1.0:
            raise ValueError("dropout rate must be in [0,1)")

@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple          # (channels, depth, height, width)
    layers: tuple
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 4 or min(self.input_shape) < 1:
            raise ValueError(f"input_shape must be 4 positive ints, got {self.input_shape}")
        if self.class_count < 2:
            raise ValueError("need at least two classes")
        kinds = [l.kind for l in self.layers]
        if not kinds or kinds[-1] != "softmax":
            raise ValueError("final layer must be softmax")
        if kinds.count("gap") != 1:
            raise ValueError("exactly one gap bridge layer is required")
        bridge = kinds.index("gap")
        head = {"dense", "relu", "dropout", "softmax"}
        body = {"conv3d", "relu", "maxpool3d", "batchnorm3d"}
        for i, k in enumerate(kinds):
            if i < bridge and k not in body:
                raise ValueError(f"layer {i} ({k}) not allowed before the gap bridge")
            if i > bridge and k not in head:
                raise ValueError(f"layer {i} ({k}) not allowed after the gap bridge")

    def to_json(self):
        return json.dumps({
            "input_shape": list(self.input_shape),
            "class_count": self.class_count,
            "layers": [{k: v for k, v in asdict(l).items() if v is not None}
                       for l in self.layers],
        }, sort_keys=True)

    @staticmethod
    def from_json(text):
        d = json.loads(text)
        return ModelSpec(tuple(d["input_shape"]),
                         tuple(LayerSpec(**l) for l in d["layers"]),
                         d["class_count"])


def _pool_geometry(extent, layer):
    """(window, stride) of a maxpool3d layer over the given extents."""
    window = layer.window
    if layer.clamp_window:
        window = tuple(min(w, n) for w, n in zip(window, extent))
    stride = layer.stride if layer.stride is not None else window
    return window, stride


def layer_output_shape(in_shape, layer: LayerSpec):
    """Shape algebra for one layer of a ModelSpec; raises ShapeMismatch when
    impossible."""
    k = layer.kind
    if k == "conv3d":
        return (layer.out_channels,) + _conv_extents(
            in_shape[1:], layer.kernel, layer.stride or (1, 1, 1),
            layer.padding or (0, 0, 0))
    if k == "maxpool3d":
        window, stride = _pool_geometry(in_shape[1:], layer)
        return (in_shape[0],) + _conv_extents(in_shape[1:], window, stride, (0, 0, 0))
    if k == "gap":
        return (in_shape[0],)
    if k == "dense":
        return (layer.units,)
    return tuple(in_shape)  # relu, batchnorm3d, dropout, softmax


def model_shapes(spec: ModelSpec):
    """Per-layer output shapes, starting from spec.input_shape."""
    shapes = []
    cur = spec.input_shape
    for layer in spec.layers:
        cur = layer_output_shape(cur, layer)
        shapes.append(cur)
    if shapes[-1] != (spec.class_count,):
        raise ShapeMismatch(f"model emits {shapes[-1]}, expected ({spec.class_count},)")
    return shapes


# ----------------------------------------------------------------- weights

def param_shapes(spec: ModelSpec):
    """{tensor name: shape} for every tensor the spec's layers own.

    Names are L<layer index>.<role>. The class count is not checked here,
    so a model whose head has the wrong width still gets its tensors.
    """
    shapes = {}
    cur = spec.input_shape
    for i, layer in enumerate(spec.layers):
        if layer.kind == "conv3d":
            shapes[f"L{i}.kernel"] = (layer.out_channels, cur[0]) + layer.kernel
            shapes[f"L{i}.bias"] = (layer.out_channels,)
        elif layer.kind == "batchnorm3d":
            for role in ("gamma", "beta", "running_mean", "running_var"):
                shapes[f"L{i}.{role}"] = (cur[0],)
        elif layer.kind == "dense":
            shapes[f"L{i}.weight"] = (cur[0], layer.units)
            shapes[f"L{i}.bias"] = (layer.units,)
        cur = layer_output_shape(cur, layer)
    return shapes


def init_weights(spec: ModelSpec, seed=0, dtype=np.float32):
    """Xavier-normal conv/dense kernels, unit batchnorm, zero biases.

    A kernel shaped (fan_out, fan_in, *taps) or a dense weight shaped
    (fan_in, fan_out) gets std sqrt(2 / ((fan_in + fan_out) * taps)).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    weights = {}
    for name, shape in param_shapes(spec).items():
        role = name.split(".")[1]
        if role in ("kernel", "weight"):
            std = np.sqrt(2.0 / (sum(shape[:2]) * math.prod(shape[2:])))
            weights[name] = rng.normal(0, std, shape).astype(dtype)
        elif role in ("gamma", "running_var"):
            weights[name] = np.ones(shape, dtype=dtype)
        else:
            weights[name] = np.zeros(shape, dtype=dtype)
    return weights


TRAINABLE_SUFFIXES = ("kernel", "bias", "gamma", "beta", "weight")


def trainable_names(weights):
    return sorted(n for n in weights if n.split(".")[1] in TRAINABLE_SUFFIXES)


# ----------------------------------------------------------------- forward

def _layer(i, layer, weights, x, mode, seed):
    """Layer i's output for input x, and the function grad_out -> (grad_in,
    {tensor name: grad}) that inverts it.

    Train mode commits batchnorm running stats back into `weights`.
    """
    name = f"L{i}."
    k = layer.kind
    if k == "conv3d":
        kernel = weights[name + "kernel"]
        stride, padding = layer.stride or (1, 1, 1), layer.padding or (0, 0, 0)

        def back(g):
            # nothing reads the gradient of the model's input
            g, gk, gb = conv3d_backward(x, kernel, g, stride, padding, input_grad=i > 0)
            return g, {name + "kernel": gk, name + "bias": gb}
        return conv3d_forward(x, kernel, weights[name + "bias"], stride, padding), back
    if k == "relu":
        out, mask = relu_forward(x)
        return out, lambda g: (relu_backward(g, mask), {})
    if k == "maxpool3d":
        out, cache = maxpool3d_forward(x, *_pool_geometry(x.shape[2:], layer))
        return out, lambda g: (maxpool3d_backward(g, cache), {})
    if k == "batchnorm3d":
        out, cache, rm, rv = batchnorm3d_forward(
            x, weights[name + "gamma"], weights[name + "beta"], mode,
            weights[name + "running_mean"], weights[name + "running_var"],
            layer.momentum, layer.eps)
        if mode == "train":
            dt = weights[name + "running_mean"].dtype
            weights[name + "running_mean"] = rm.astype(dt)
            weights[name + "running_var"] = rv.astype(dt)

        def back(g):
            g, gg, gb = batchnorm3d_backward(g, cache)
            return g, {name + "gamma": gg, name + "beta": gb}
        return out, back
    if k == "gap":
        out, x_shape = gap_forward(x)
        return out, lambda g: (gap_backward(g, x_shape), {})
    if k == "dense":
        weight = weights[name + "weight"]
        out, x_in = dense_forward(x, weight, weights[name + "bias"])

        def back(g):
            g, gw, gb = dense_backward(g, weight, x_in)
            return g, {name + "weight": gw, name + "bias": gb}
        return out, back
    if k == "dropout":
        out, mask = dropout_forward(x, layer.rate, mode, [int(seed), i])
        return out, lambda g: (dropout_backward(g, mask), {})
    out, p = softmax_forward(x)
    return out, lambda g: (softmax_backward(g, p), {})


def _forward(spec, weights, x, mode, seed, backward=None):
    """Run all layers; when `backward` is a list, each layer appends to it
    the function that inverts it (see `_layer`)."""
    if x.ndim != 5 or tuple(x.shape[1:]) != spec.input_shape:
        raise ShapeMismatch(f"batch shape {x.shape[1:]} != model input "
                            f"{spec.input_shape}")
    for i, layer in enumerate(spec.layers):
        x, back = _layer(i, layer, weights, x, mode, seed)
        if backward is not None:
            backward.append(back)
    return x


def model_forward(spec, weights, x, mode="infer", seed=0):
    """Class probabilities for a batch; rows sum to 1."""
    return _forward(spec, weights, x, mode, seed)


LOG_FLOOR = 1e-12  # probabilities are clamped here before the log


def weighted_cross_entropy(probs, labels, weights):
    """loss = mean_b w[y_b] * -log(max(p_b[y_b], LOG_FLOOR)); also the
    gradient w[y] * (p - onehot) / B the loss induces at the softmax input."""
    probs = np.asarray(probs)
    labels = np.asarray(labels, dtype=np.int64)
    k = probs.shape[1]
    if labels.min() < 0 or labels.max() >= k:
        raise LabelOutOfRange(f"labels must lie in [0,{k}), got "
                              f"[{labels.min()},{labels.max()}]")
    w = np.asarray(weights, dtype=np.float64)
    b = probs.shape[0]
    picked = probs[np.arange(b), labels]
    loss = float((w[labels] * -np.log(np.maximum(picked, LOG_FLOOR))).sum() / b)
    grad_logits = probs.astype(np.float64).copy()
    grad_logits[np.arange(b), labels] -= 1.0
    grad_logits *= (w[labels] / b)[:, None]
    return loss, grad_logits


def loss_and_grads(spec, weights, x, labels, class_weight_vec=None,
                   mode="train", seed=0):
    """Weighted cross-entropy loss plus gradients for every trainable tensor.

    The softmax layer is folded into the loss gradient at the logits, so
    the last explicit backward starts just below it.
    """
    if class_weight_vec is None:
        class_weight_vec = np.ones(spec.class_count)
    if np.shape(class_weight_vec) != (spec.class_count,):
        raise ShapeMismatch("class weight vector length must equal class_count")
    backward = []
    probs = _forward(spec, weights, x, mode, seed, backward)
    loss, grad_logits = weighted_cross_entropy(probs, labels, class_weight_vec)
    grad, grads = grad_logits.astype(x.dtype), {}
    for back in reversed(backward[:-1]):
        grad, layer_grads = back(grad)
        grads.update(layer_grads)
    return loss, grads, probs


# ---------------------------------------------------- reference architecture

BASE_CHANNELS = (16, 32, 64, 128)
BASE_DENSE_UNITS = 64
BASE_DROPOUT = 0.5


def conv_block(out_channels):
    return [LayerSpec("conv3d", kernel=3, stride=1, padding=1, out_channels=out_channels),
            LayerSpec("relu"),
            LayerSpec("maxpool3d", window=2, clamp_window=True),
            LayerSpec("batchnorm3d")]


def base_model(input_shape, class_count, channels=BASE_CHANNELS):
    """Four conv blocks, GAP bridge, small dense head."""
    layers = []
    for ch in channels:
        layers += conv_block(ch)
    layers += [LayerSpec("gap"),
               LayerSpec("dense", units=BASE_DENSE_UNITS),
               LayerSpec("dropout", rate=BASE_DROPOUT),
               LayerSpec("dense", units=class_count),
               LayerSpec("softmax")]
    return ModelSpec(tuple(input_shape), tuple(layers), class_count)


STEM_LAYER_COUNT = 3  # conv3d, maxpool3d, batchnorm3d


def build_progressive(small_spec: ModelSpec, small_weights, large_input=None,
                      seed=0):
    """Wrap a trained model for a larger input.

    A stem block (conv3d k=3 stride 1 -> maxpool 2 -> batchnorm) is
    prepended to map the larger grid down toward the old one; every carried
    layer keeps its weights bit-for-bit. The stem's output channel count
    equals the small model's input channels, which is what makes the carry
    possible. Default large input doubles each spatial extent.
    """
    ci = small_spec.input_shape[0]
    if large_input is None:
        large_input = (ci,) + tuple(2 * n for n in small_spec.input_shape[1:])
    large_input = tuple(int(v) for v in large_input)
    if large_input[0] != ci:
        raise ShapeMismatch("enlarged input must keep the channel count")
    stem = [LayerSpec("conv3d", kernel=3, stride=1, padding=1, out_channels=ci),
            LayerSpec("maxpool3d", window=2, clamp_window=True),
            LayerSpec("batchnorm3d")]
    large_spec = ModelSpec(large_input, tuple(stem) + small_spec.layers,
                           small_spec.class_count)
    dtype = next(iter(small_weights.values())).dtype
    large_weights = init_weights(large_spec, seed=seed, dtype=dtype)
    for name, tensor in small_weights.items():
        idx, suffix = name[1:].split(".", 1)
        large_weights[f"L{int(idx) + STEM_LAYER_COUNT}.{suffix}"] = tensor.copy()
    return large_spec, large_weights


# -------------------------------------------------------------- checkpoints

CHECKPOINT_MAGIC = b"CTCK"
CHECKPOINT_VERSION = 1


def save_checkpoint(spec: ModelSpec, weights):
    """Self-describing binary: spec JSON, then named little-endian tensors."""
    spec_bytes = spec.to_json().encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<HI", CHECKPOINT_VERSION, len(spec_bytes)),
             spec_bytes, struct.pack("<I", len(weights))]
    for name in sorted(weights):
        arr = np.ascontiguousarray(weights[name])
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        dt = le.dtype.str.encode()
        parts.append(struct.pack("<H", len(name)) + name.encode())
        parts.append(struct.pack("<H", len(dt)) + dt)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(le.tobytes())
    return b"".join(parts)


class ByteCursor:
    """Bounds-checked little-endian reader over one binary container's bytes.

    A read past the end raises ValueError, never struct.error, and `end`
    rejects trailing bytes; `.pack` and `.ctck` files are both read with it.
    """

    def __init__(self, data, what):
        self.view = memoryview(data)
        self.what = what
        self.off = 0

    def take(self, n):
        if n > len(self.view) - self.off:
            raise ValueError(f"{self.what} truncated at byte {self.off}")
        self.off += n
        return self.view[self.off - n:self.off]

    def unpack(self, fmt):
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.take(struct.calcsize(fmt)))

    def text(self, encoding):
        """A string stored as a u16 byte length, then the bytes."""
        return str(self.take(self.unpack("H")[0]), encoding)

    def array(self, dtype, shape):
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        return np.frombuffer(self.take(nbytes),
                             dtype=dtype).reshape(shape).copy()

    def end(self):
        if self.off != len(self.view):
            raise ValueError(f"{len(self.view) - self.off} trailing bytes "
                             f"after the {self.what}")


def load_checkpoint(data):
    """Inverse of save_checkpoint, from the file's bytes; checks magic,
    version and exact byte length, and that the tensors are exactly the ones
    the spec's layers own, with their shapes."""
    cur = ByteCursor(data, "checkpoint")
    if cur.take(4) != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    version, spec_len = cur.unpack("HI")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    spec_text = str(cur.take(spec_len), "utf-8")
    try:
        spec = ModelSpec.from_json(spec_text)
        model_shapes(spec)
        expected = param_shapes(spec)
    except (KeyError, TypeError, OverflowError, ShapeMismatch) as exc:
        raise ValueError(f"bad model spec: {exc!r}") from exc
    count, = cur.unpack("I")
    weights = {}
    for _ in range(count):
        name = cur.text("utf-8")
        dtype = cur.text("ascii")
        if dtype not in ("<f2", "<f4", "<f8"):  # float weights, as saved
            raise ValueError(f"tensor {name}: unsupported dtype {dtype!r}")
        ndim, = cur.unpack("B")
        weights[name] = cur.array(dtype, cur.unpack(f"{ndim}I"))
    cur.end()
    if {n: w.shape for n, w in weights.items()} != expected:
        raise ValueError("checkpoint tensors do not match the declared model spec")
    return spec, weights
