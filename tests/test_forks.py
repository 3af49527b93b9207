"""``fork_map`` is the serial list comprehension on 1, 2 and 3 usable CPUs: its results, its errors, its children."""
import errno
import os
import signal

import pytest

from porelife.forks import fork_map


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square_where(x):
    """``x * x`` and the process that computed it."""
    return x * x, os.getpid()


class ItemError(Exception):
    """Raised by an item; its constructor takes two arguments, so a pickled copy would not load."""

    def __init__(self, item, where):
        super().__init__(f"item {item} failed in {where}")


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("n_items", range(0, 8))
def test_results_in_input_order(cpus, n_items):
    results = fork_map(square_where, range(n_items))
    assert [square for square, _ in results] == [x * x for x in range(n_items)]
    used = max(1, min(n_items, cpus.n))
    assert len(cpus.forks) == used - 1
    # the items k::used ran in child k, the items 0::used here
    pids = [pid for _, pid in results]
    assert all((pid == os.getpid()) == (i % used == 0) for i, pid in enumerate(pids))
    assert len(set(pids)) == min(n_items, cpus.n)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("failing", [(1, 3), (1, 4), (2, 3), (0, 1), (4, 5), (3, 0)])
def test_the_first_failing_item_raises_its_own_exception(cpus, failing):
    """Every listed item raises; the first in input order wins, wherever it and the others ran."""
    parent, raised_here = os.getpid(), []

    def run(x):
        if x in failing:
            try:
                raise KeyError(x)
            except KeyError as cause:
                exc = ItemError(x, "here" if os.getpid() == parent else "a child")
                if os.getpid() == parent:
                    raised_here.append(exc)
                raise exc from cause
        return x

    with pytest.raises(ItemError) as caught:
        fork_map(run, range(6))
    assert str(caught.value) == f"item {min(failing)} failed in here"  # raised here, even where it failed in a child
    assert caught.value is raised_here[-1]  # the genuine exception, not a copy
    assert isinstance(caught.value.__cause__, KeyError) and caught.value.__cause__.args == (min(failing),)
    assert len(cpus.forks) == cpus.n - 1
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3], indirect=True)
def test_items_whose_fork_failed_run_here(monkeypatch, cpus):
    forks, fork = [], os.fork

    def fork_once():
        if forks:
            raise BlockingIOError(errno.EAGAIN, "no process to be had")
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    results = fork_map(square_where, range(7))
    assert [square for square, _ in results] == [x * x for x in range(7)]
    # child 1 was forked; every other share ran here
    assert [pid != os.getpid() for _, pid in results] == [i % cpus.n == 1 for i in range(7)]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3], indirect=True)
def test_a_child_that_dies_is_run_again_here(cpus):
    parent = os.getpid()

    def run(x):
        if os.getpid() != parent and x == 1 + cpus.n:  # child 1's second item
            os.kill(os.getpid(), signal.SIGKILL)
        return square_where(x)

    results = fork_map(run, range(7))
    assert [square for square, _ in results] == [x * x for x in range(7)]
    # child 1's whole share ran again here; any other child's results came back
    assert [pid == parent for _, pid in results] == [i % cpus.n in (0, 1) for i in range(7)]
    assert_no_child_left()


def test_a_result_that_does_not_pickle_is_made_here(usable_cpus):
    usable_cpus.set(2)
    results = fork_map(lambda x: (lambda: x), range(4))  # a lambda does not pickle
    assert [make() for make in results] == list(range(4))
    assert_no_child_left()


def test_children_killed_when_an_item_here_raises_first(usable_cpus):
    parent = os.getpid()

    def run(x):
        if os.getpid() == parent:
            raise ArithmeticError(f"item {x} failed")
        signal.pause()  # a child that is not killed holds the map up

    usable_cpus.set(3)
    with pytest.raises(ArithmeticError, match="item 0 failed"):
        fork_map(run, range(3))
    assert_no_child_left()
