"""One thread pool, shared by the whole-grid kernels of `nn_core` and
`segmentation`, and sized once from this process's CPU affinity.

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


def cuts(extent):
    """Bounds [b0, ..., bn] of the parts a kernel called on this thread cuts
    `extent` items into: part p takes [bp, bp+1), and n is the pool's size on
    the main thread and 1 on any other, but never more than `extent`."""
    n = min(CPUS if threading.current_thread() is threading.main_thread() else 1, extent)
    return [p * extent // n for p in range(n + 1)]


def run(part, n):
    """part(0), ..., part(n - 1): the first on this thread, the others on the
    pool. Returns when every part has ended, raising the first error."""
    global _pool
    if n > 1 and _pool is None:
        # only the main thread asks for more than one part, so no lock
        _pool = ThreadPoolExecutor(CPUS - 1, thread_name_prefix="ctscreen")
    futures = [_pool.submit(part, i) for i in range(1, n)]
    try:
        part(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()
