import pytest

from ctscreen import parallel


@pytest.fixture(params=[1, 2, 3])
def parts(request, monkeypatch):
    """The pool's kernels cut their work into this many parts, whatever the
    machine's core count."""
    monkeypatch.setattr(parallel, "CPUS", request.param)
    return request.param
