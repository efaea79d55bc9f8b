"""The one rule for how a kernel cuts its work into the pool's parts."""

import threading

from ctscreen import parallel


def test_cuts_cover_the_extent_once_on_the_main_thread(parts):
    for extent in range(1, 8):
        bounds = parallel.cuts(extent)
        assert len(bounds) - 1 == min(parts, extent)
        covered = [i for a, b in zip(bounds, bounds[1:]) for i in range(a, b)]
        assert covered == list(range(extent)), bounds
        assert all(a < b for a, b in zip(bounds, bounds[1:])), bounds


def test_cuts_make_one_part_on_another_thread(parts):
    got = []
    thread = threading.Thread(target=lambda: got.append(parallel.cuts(5)))
    thread.start()
    thread.join()
    assert got == [[0, 5]]
