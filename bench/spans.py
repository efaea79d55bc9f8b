"""Span tracing for the traced run, kept in the benchmark's own files.

`Tracer.install` wraps the public functions of each ctscreen layer. Every
module attribute that refers to a wrapped function is replaced, so names
that another module took with ``from ... import`` (as `cli` does with
`segment_lung`, `standardize_volume`, `extract_patches` and
`trilinear_resample`) are traced too. Spans stay in memory until `write`.
"""

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc

# (metric name, unit, better); the order is the order of the printed metrics
PER_LAYER = [
    ("nn_core.conv3d_fwd_c1_s", "s", "lower"),
    ("nn_core.conv3d_bwd_c1_s", "s", "lower"),
    ("nn_core.conv3d_fwd_cn_s", "s", "lower"),
    ("nn_core.conv3d_bwd_cn_s", "s", "lower"),
    ("nn_core.conv3d_gmac", "GMAC", "lower"),
    ("nn_core.conv3d_gmac_per_s", "GMAC/s", "higher"),
    ("nn_core.maxpool3d_fwd_s", "s", "lower"),
    ("nn_core.maxpool3d_bwd_s", "s", "lower"),
    ("nn_core.batchnorm3d_fwd_s", "s", "lower"),
    ("nn_core.batchnorm3d_bwd_s", "s", "lower"),
    ("nn_core.loss_and_grads_s", "s", "lower"),
    ("nn_core.model_forward_s", "s", "lower"),
    ("nn_core.load_checkpoint_s", "s", "lower"),
    ("train.adam_step_s", "s", "lower"),
    ("train.evaluate_s", "s", "lower"),
    ("train.steps", "count", "lower"),
    ("augment.augment_sample_s", "s", "lower"),
    ("augment.augment_sample_calls", "count", "lower"),
    ("segmentation.segment_lung_s", "s", "lower"),
    ("segmentation.threshold_lung_s", "s", "lower"),
    ("segmentation.remove_border_components_s", "s", "lower"),
    ("segmentation.largest_components_s", "s", "lower"),
    ("segmentation.morph_erode_s", "s", "lower"),
    ("segmentation.morph_close_s", "s", "lower"),
    ("segmentation.fill_holes_s", "s", "lower"),
    ("segmentation.component_count_s", "s", "lower"),
    ("patch_sampler.standardize_volume_s", "s", "lower"),
    ("patch_sampler.trilinear_resample_s", "s", "lower"),
    ("patch_sampler.extract_patches_s", "s", "lower"),
    ("patch_sampler.standardize_peak_mb", "MB", "lower"),
    ("nifti_io.read_raw_s", "s", "lower"),
    ("nifti_io.write_mask_s", "s", "lower"),
    ("nifti_io.read_mb", "MB", "lower"),
    ("nifti_io.write_mb", "MB", "lower"),
    ("cli.write_pack_s", "s", "lower"),
    ("cli.pack_mb", "MB", "lower"),
    ("cli.cpu_per_wall", "s/s", "higher"),
    ("cli.read_pack_s", "s", "lower"),
]

MB = 1e6


def _conv_name(stage):
    def name(args, kwargs):
        return f"nn_core.conv3d_{stage}_{'c1' if args[0].shape[1] == 1 else 'cn'}"
    return name


def _conv_macs(factor):
    # forward: one MAC per output voxel per (input channel, kernel tap);
    # backward: the same count once for the input and once for the kernel
    def count(tracer, args, result):
        kernel = args[1]
        out_voxels = (result if factor == 1 else args[2]).size
        tracer.add("nn_core.conv3d_mac", factor * out_voxels * kernel[0].size)
    return count


def _read_bytes(tracer, args, result):
    src = args[0]
    tracer.add("nifti_io.read_bytes",
               os.path.getsize(src) if isinstance(src, str) else len(src))


def _result_bytes(counter):
    def count(tracer, args, result):
        tracer.add(counter, len(result))
    return count


# (module, function, span name or name(args, kwargs), after(tracer, args, result))
LAYERS = [
    ("nn_core", "conv3d_forward", _conv_name("fwd"), _conv_macs(1)),
    ("nn_core", "conv3d_backward", _conv_name("bwd"), _conv_macs(2)),
    ("nn_core", "maxpool3d_forward", "nn_core.maxpool3d_fwd", None),
    ("nn_core", "maxpool3d_backward", "nn_core.maxpool3d_bwd", None),
    ("nn_core", "batchnorm3d_forward", "nn_core.batchnorm3d_fwd", None),
    ("nn_core", "batchnorm3d_backward", "nn_core.batchnorm3d_bwd", None),
    ("nn_core", "loss_and_grads", "nn_core.loss_and_grads", None),
    ("nn_core", "model_forward", "nn_core.model_forward", None),
    ("nn_core", "load_checkpoint", "nn_core.load_checkpoint", None),
    ("train", "adam_step", "train.adam_step", None),
    ("train", "evaluate", "train.evaluate", None),
    ("augment", "augment_sample", "augment.augment_sample", None),
    ("segmentation", "segment_lung", "segmentation.segment_lung", None),
    ("segmentation", "threshold_lung", "segmentation.threshold_lung", None),
    ("segmentation", "remove_border_components",
     "segmentation.remove_border_components", None),
    ("segmentation", "largest_components", "segmentation.largest_components", None),
    ("segmentation", "morph_erode", "segmentation.morph_erode", None),
    ("segmentation", "morph_close", "segmentation.morph_close", None),
    ("segmentation", "fill_holes", "segmentation.fill_holes", None),
    ("segmentation", "component_count", "segmentation.component_count", None),
    ("patch_sampler", "standardize_volume", "patch_sampler.standardize_volume", None),
    ("patch_sampler", "trilinear_resample", "patch_sampler.trilinear_resample", None),
    ("patch_sampler", "extract_patches", "patch_sampler.extract_patches", None),
    ("nifti_io", "read_raw", "nifti_io.read_raw", _read_bytes),
    ("nifti_io", "write_mask", "nifti_io.write_mask", _result_bytes("nifti_io.write_bytes")),
    ("cli", "write_pack", "cli.write_pack", _result_bytes("cli.pack_bytes")),
    ("cli", "read_pack", "cli.read_pack", None),
]


class Tracer:
    """In-memory spans and counters.

    A span is (id, parent id, round, name, start, end, thread); the worker
    sets `round` before each round, so spans of one round share it.
    """

    def __init__(self):
        self.round = 0
        self.spans = []
        self.counters = {}
        self.standardize_peak = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._peak_calls = 0
        self._origin = time.perf_counter()

    def add(self, counter, amount):
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            label = name(args, kwargs) if callable(name) else name
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, tracer.round, label, start,
                                     end, threading.get_ident()))
            if after is not None:
                after(tracer, args, result)
            return result
        return traced

    def _wrap_peak(self, fn):
        """Records the tracemalloc peak while any call of `fn` is running.

        The peak is reset when a call starts with no other call running.
        Under `--jobs 2` two calls can overlap, and the peak is then their
        joint peak, which is what sets the process's resident-memory peak.
        """
        tracer = self

        @functools.wraps(fn)
        def peaked(*args, **kwargs):
            with tracer._lock:
                if tracer._peak_calls == 0:
                    tracemalloc.reset_peak()
                tracer._peak_calls += 1
                base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                with tracer._lock:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tracer.standardize_peak = max(tracer.standardize_peak, peak)
                    tracer._peak_calls -= 1
        return peaked

    def install(self):
        """Wrap every layer function wherever a ctscreen module refers to it.

        tracemalloc runs for the whole traced run: starting and stopping it
        while pool threads allocate can crash the interpreter.
        """
        tracemalloc.start()
        for module, function, name, after in LAYERS:
            home = importlib.import_module(f"ctscreen.{module}")
            original = getattr(home, function)
            wrapped = self._wrap(original, name, after)
            if function == "standardize_volume":
                wrapped = self._wrap_peak(wrapped)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "ctscreen":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, round_, name, start, end, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "round": round_,
                                     "name": name, "start_s": start - self._origin,
                                     "end_s": end - self._origin,
                                     "thread": thread}) + "\n")

    def metrics(self, rounds, cpu_per_wall):
        """Per-layer metrics per round; layers that did no work read 0."""
        busy, calls = {}, {}
        for _, _, _, name, start, end, _ in self.spans:
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        conv_s = sum(v for k, v in busy.items() if k.startswith("nn_core.conv3d_"))
        gmac = self.counters.get("nn_core.conv3d_mac", 0) / 1e9
        values = {name + "_s": seconds / rounds for name, seconds in busy.items()}
        values.update({
            "nn_core.conv3d_gmac": gmac / rounds,
            "nn_core.conv3d_gmac_per_s": gmac / conv_s if conv_s else 0.0,
            "train.steps": calls.get("train.adam_step", 0) / rounds,
            "augment.augment_sample_calls": calls.get("augment.augment_sample", 0) / rounds,
            "patch_sampler.standardize_peak_mb": self.standardize_peak / MB,
            "nifti_io.read_mb": self.counters.get("nifti_io.read_bytes", 0) / MB / rounds,
            "nifti_io.write_mb": self.counters.get("nifti_io.write_bytes", 0) / MB / rounds,
            "cli.pack_mb": self.counters.get("cli.pack_bytes", 0) / MB / rounds,
            "cli.cpu_per_wall": cpu_per_wall,
        })
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit, _ in PER_LAYER}
