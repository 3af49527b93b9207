import os

import numpy as np
import pytest
from hypothesis import settings

import porelife.forks
from porelife.material_point import ALSI7MG

# Property tests without their own deadline run under this profile; a failing
# example prints its reproduction blob, so it can be replayed from a CI log
# with @reproduce_failure.
settings.register_profile("porelife", deadline=None, print_blob=True)
settings.load_profile("porelife")


@pytest.fixture
def material():
    return ALSI7MG


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class UsableCpus:
    """What ``porelife.forks.usable_cpus`` returns during a test (``n``), and the forks made since it was set."""

    def __init__(self, monkeypatch):
        self.n, self.forks, self._monkeypatch = 1, [], monkeypatch
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: self.forks.append(None) or fork())

    def set(self, n: int) -> "UsableCpus":
        """See ``n`` usable CPUs from now on, with no fork counted yet."""
        self.n, self.forks = n, []
        self._monkeypatch.setattr(porelife.forks, "usable_cpus", lambda: n)
        return self


@pytest.fixture
def usable_cpus(monkeypatch):
    """A :class:`UsableCpus` for a test that sets the count itself, such as one comparing counts in its body."""
    return UsableCpus(monkeypatch)


@pytest.fixture(params=[1, 2])
def cpus(request, usable_cpus):
    """The test on 1 and on 2 usable CPUs: a :class:`UsableCpus` (indirect parametrization gives other counts)."""
    return usable_cpus.set(request.param)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.

    ``calibrate`` forks; the benchmark refuses a run that leaves a process behind.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"left a child process behind ({f'pid {pid}, unreaped' if pid else 'still running'})")
