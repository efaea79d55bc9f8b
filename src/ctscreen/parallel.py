"""One thread pool, shared by the whole-grid kernels of `nn_core`,
`segmentation`, `patch_sampler` and `nifti_io`, and sized once from this
process's CPU affinity.

A kernel cuts its work into disjoint parts. Each part writes only its own
slice of buffers the kernel allocated before the split, and every output
value goes through the same operations in the same order whatever the cut,
so no output byte depends on the number of parts. Parts allocate nothing
large: glibc gives each thread its own arena, which would keep what a part
freed.

Work is split only on the main thread. A kernel called from any other
thread, such as the `--jobs` workers that each take one scan, runs as one
part, so the cores are not asked for more threads than they have.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_pool = None


def _parts():
    """How many parts a kernel called on this thread may cut its work into."""
    return CPUS if threading.current_thread() is threading.main_thread() else 1


def _submit(part, *args):
    global _pool
    if _pool is None:
        # only the main thread submits work, so no lock
        _pool = ThreadPoolExecutor(CPUS - 1, thread_name_prefix="ctscreen")
    return _pool.submit(part, *args)


def cuts(extent):
    """Bounds [b0, ..., bn] of the parts a kernel called on this thread cuts
    `extent` items into: part p takes [bp, bp+1), and n is the pool's size on
    the main thread and 1 on any other, but never more than `extent`."""
    n = min(_parts(), extent)
    return [p * extent // n for p in range(n + 1)]


def run(part, n):
    """part(0), ..., part(n - 1): the first on this thread, the others on the
    pool. Returns when every part has ended, raising the first error."""
    futures = [_submit(part, i) for i in range(1, n)]
    try:
        part(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def overlap(items, part):
    """part(item) for each item the iterator `items` makes. On the main
    thread of a process with more than one CPU the pool runs each call while
    this thread makes the next item; elsewhere each runs here as soon as its
    item is made. Returns when every call has ended, raising the first error,
    or the error that stopped `items`."""
    if _parts() == 1:
        for item in items:
            part(item)
        return
    futures = []
    try:
        for item in items:
            futures.append(_submit(part, item))
    finally:
        wait(futures)
    for future in futures:
        future.result()
