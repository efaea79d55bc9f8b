"""The rules by which a kernel hands its work to the pool."""

import threading

import pytest

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


def test_overlap_runs_every_item_once(parts):
    seen = []
    parallel.overlap(iter(range(20)), seen.append)
    assert sorted(seen) == list(range(20))


def test_overlap_raises_the_error_of_a_call_or_of_the_items(parts):
    def bad(item):
        if item == 3:
            raise KeyError(item)
    with pytest.raises(KeyError):
        parallel.overlap(iter(range(6)), bad)

    def items():
        yield 1
        raise ValueError("the items stopped")
    seen = []
    with pytest.raises(ValueError, match="stopped"):
        parallel.overlap(items(), seen.append)
    assert seen == [1]


def test_overlap_uses_the_pool_only_from_the_main_thread(parts):
    def where(into):
        return lambda _: into.append(threading.current_thread())
    main, other = [], []
    parallel.overlap(iter(range(4)), where(main))
    assert ({t is threading.main_thread() for t in main}
            == ({True} if parts == 1 else {False}))
    thread = threading.Thread(target=lambda: parallel.overlap(iter(range(4)), where(other)))
    thread.start()
    thread.join()
    assert other == [thread] * 4
