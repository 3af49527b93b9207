import os

import numpy as np
import pytest
from hypothesis import settings

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
