import atexit
import errno
import math
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from porelife.likelihood import (
    CalibrationDegeneracyError,
    FatigueObservation,
    Homogeneous,
    ensure_failures,
    homogeneous_objective,
    structure_for,
)
import porelife.forks
from porelife.optimize import (
    _from_internal,
    _to_internal,
    CalibrationProblem,
    calibrate,
    nelder_mead,
    one_line_mask,
    write_trace_csv,
)
from porelife.strain_life import StrainLifeParams
from oracles import list_calibrate, list_nelder_mead

TRUE = StrainLifeParams(m=2.0, A=0.0172, alpha=0.254, C=6e-4, V0=593.0)
LEVELS = (80.0, 95.0, 110.0, 125.0, 140.0, 150.0)


def synth_observations(true, seed, n_per_level=37, runout=2e6):
    rng = np.random.default_rng(seed)
    out = []
    for level in LEVELS:
        struct = structure_for(true, Homogeneous(volume=true.V0), level)
        draws = struct.scale * (-np.log1p(-rng.random(n_per_level))) ** (1.0 / true.m)
        for value in draws:
            if value >= runout:
                out.append(FatigueObservation(level, runout, True))
            else:
                out.append(FatigueObservation(level, float(value), False))
    return out


#: A small homogeneous likelihood, for runs that only compare two optimizers.
SMALL_OBJECTIVE = homogeneous_objective(synth_observations(TRUE, seed=6, n_per_level=4), TRUE.V0)


class TestNelderMead:
    def test_quadratic_bowl(self):
        center = np.array([1.0, -2.0, 0.5])
        result = nelder_mead(lambda x: -np.sum((x - center) ** 2), center + 0.3, budget=400)
        assert_allclose(result.x, center, atol=1e-6)

    def test_1d_from_far_start(self):
        result = nelder_mead(lambda x: -((x[0] - 3.0) ** 2), np.array([0.0]), budget=400)
        assert_allclose(result.x, [3.0], atol=1e-6)

    def test_rosenbrock_valley(self):
        def f(x):
            return -(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

        result = nelder_mead(f, np.array([-1.2, 1.0]), budget=2000)
        assert result.fun > -1e-6

    def test_trace_best_nondecreasing(self):
        result = nelder_mead(lambda x: -np.sum(x**2), np.array([2.0, 2.0]), budget=300)
        values = [v for _, _, v in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_budget_respected(self):
        result = nelder_mead(lambda x: -np.sum(x**2), np.array([5.0, 1.0, -3.0]), budget=17)
        assert result.iterations <= 17
        assert len(result.trace) <= 17


    def test_nan_region_never_reported_best(self):
        def f(x):
            return math.nan if x[0] > 0.02 else -((x[0] - 1.0) ** 2)

        result = nelder_mead(f, np.array([0.0]), budget=200)
        assert not math.isnan(result.fun)
        assert result.x[0] <= 0.02
        assert all(not math.isnan(v) for _, _, v in result.trace)


def rosenbrock(x):
    if x.size == 1:
        return -((1.0 - x[0]) ** 2)
    return -float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def quadratic(x):
    return -float(np.sum((x - 0.7) ** 2))


def with_nan_region(objective, coordinate, threshold):
    """``objective``, but NaN wherever ``x[coordinate]`` exceeds ``threshold``."""
    return lambda x: math.nan if x[min(coordinate, x.size - 1)] > threshold else objective(x)


def recorded(objective, calls):
    """``objective`` that appends the bytes of every point it is given to ``calls``."""
    def f(x):
        calls.append(np.asarray(x).tobytes())
        return objective(x)
    return f


def as_bytes(value):
    return np.float64(value).tobytes()


def assert_same_trace(new, old):
    assert len(new) == len(old)
    for (it_new, x_new, f_new), (it_old, x_old, f_old) in zip(new, old):
        assert it_new == it_old
        assert x_new.tobytes() == x_old.tobytes()
        assert as_bytes(f_new) == as_bytes(f_old)


def assert_same_run(new, old):
    assert new.x.tobytes() == old.x.tobytes()
    assert as_bytes(new.fun) == as_bytes(old.fun)
    assert new.iterations == old.iterations
    assert new.evaluations == old.evaluations
    assert new.stop == old.stop
    assert_same_trace(new.trace, old.trace)


START = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


class TestSimplexArray:
    """The simplex held in one array runs exactly as the list-based copy in ``oracles``."""

    @settings(max_examples=120)
    @given(
        x0=st.integers(1, 6).flatmap(lambda dim: st.lists(START, min_size=dim, max_size=dim)),
        budget=st.integers(0, 400),
        objective=st.sampled_from([quadratic, rosenbrock]),
        nan_region=st.one_of(st.none(), st.tuples(st.integers(0, 5), st.floats(-1.0, 2.0))),
    )
    @example(x0=[-1.2, 1.0, 0.5], budget=400, objective=rosenbrock, nan_region=None)
    @example(x0=[0.0] * 4, budget=400, objective=rosenbrock, nan_region=None)
    @example(x0=[0.0], budget=200, objective=lambda x: -((x[0] - 1.0) ** 2), nan_region=(0, 0.02))
    def test_equals_list_copy(self, x0, budget, objective, nan_region):
        if nan_region is not None:
            objective = with_nan_region(objective, *nan_region)
        calls_new, calls_old = [], []
        new = nelder_mead(recorded(objective, calls_new), np.array(x0), budget=budget)
        old = list_nelder_mead(recorded(objective, calls_old), np.array(x0), budget=budget)
        assert_same_run(new, old)
        assert calls_new == calls_old

    @settings(max_examples=25)
    @given(
        n_starts=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(0, 120),
        free_mask=st.lists(st.booleans(), min_size=6, max_size=6).filter(any),
    )
    def test_calibrate_equals_list_copy(self, n_starts, seed, budget, free_mask):
        problem = CalibrationProblem(objective=SMALL_OBJECTIVE, x0=TRUE, free_mask=free_mask, budget=budget)
        new = calibrate(problem, n_starts=n_starts, seed=seed)
        old = list_calibrate(problem, n_starts=n_starts, seed=seed)
        assert len(new.start_results) == len(old.start_results) == n_starts
        for run_new, run_old in zip(new.start_results, old.start_results):
            assert_same_run(run_new, run_old)
        assert_same_trace(new.trace, old.trace)


def workers(monkeypatch, n):
    """Make ``calibrate`` see ``n`` usable CPUs, and count its forks in the returned list."""
    forks, fork = [], os.fork
    monkeypatch.setattr(porelife.forks, "usable_cpus", lambda: n)
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


def logged(objective, path):
    """``objective`` that appends the bytes of every parameter vector it is given to the file ``path``.

    Each record is one ``O_APPEND`` write, so the calls of forked children land in the file too.
    """
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)

    def f(params):
        os.write(fd, params.as_vector().tobytes())
        return objective(params)
    return f, fd


def logged_calls(path):
    """The multiset of logged parameter vectors, as sorted bytes."""
    data = path.read_bytes()
    return sorted(data[i:i + 48] for i in range(0, len(data), 48))  # six float64 per call


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def start_point(problem, n_starts, seed, k):
    """The parameter vector at which start ``k`` of ``calibrate`` makes its first evaluation."""
    free_idx = [i for i, b in enumerate(problem.free_mask) if b]
    pinned = problem.x0.as_vector()
    y0 = _to_internal(pinned, free_idx)
    jitter = np.random.default_rng(seed).standard_normal((n_starts - 1, y0.size))
    return _from_internal(y0 + 0.25 * jitter[k - 1], free_idx, pinned)


class TestForkedStarts:
    """The starts run in forked children, one share per usable CPU, exactly as the serial list copy."""

    @pytest.mark.parametrize("n_starts", range(1, 7))
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_equals_list_copy(self, monkeypatch, tmp_path, n_workers, n_starts):
        forks = workers(monkeypatch, n_workers)
        objective_new, fd_new = logged(SMALL_OBJECTIVE, tmp_path / "new")
        objective_old, fd_old = logged(SMALL_OBJECTIVE, tmp_path / "old")
        try:
            new = calibrate(CalibrationProblem(objective=objective_new, x0=TRUE, budget=60), n_starts=n_starts, seed=7)
            old = list_calibrate(CalibrationProblem(objective=objective_old, x0=TRUE, budget=60), n_starts=n_starts, seed=7)
        finally:
            os.close(fd_new)
            os.close(fd_old)
        assert len(forks) == min(n_workers, n_starts) - 1
        assert len(new.start_results) == len(old.start_results) == n_starts
        for run_new, run_old in zip(new.start_results, old.start_results):
            assert_same_run(run_new, run_old)
        assert_same_trace(new.trace, old.trace)
        assert new.params.as_vector().tobytes() == old.params.as_vector().tobytes()
        assert as_bytes(new.log_likelihood) == as_bytes(old.log_likelihood)
        assert logged_calls(tmp_path / "new") == logged_calls(tmp_path / "old")
        assert_no_child_left()

    def test_evaluations_are_the_objective_calls_of_each_start(self, monkeypatch, tmp_path):
        counts = []
        for n_workers in (1, 2):
            forks = workers(monkeypatch, n_workers)
            objective, fd = logged(SMALL_OBJECTIVE, tmp_path / f"calls{n_workers}")
            try:
                result = calibrate(CalibrationProblem(objective=objective, x0=TRUE, budget=60), n_starts=3, seed=7)
            finally:
                os.close(fd)
            assert len(forks) == n_workers - 1
            counts.append([r.evaluations for r in result.start_results])
            assert sum(counts[-1]) == len(logged_calls(tmp_path / f"calls{n_workers}"))
        assert counts[0] == counts[1]
        assert_no_child_left()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_each_start_records_why_it_stopped(self, monkeypatch, n_workers):
        forks = workers(monkeypatch, n_workers)
        stops = {}
        for budget in (3, 200):  # m and A free: every start converges in fewer than 70 iterations
            problem = CalibrationProblem(objective=SMALL_OBJECTIVE, x0=TRUE, free_mask=(True, True) + (False,) * 4,
                                         budget=budget)
            stops[budget] = [(r.stop, r.iterations < budget) for r in calibrate(problem, n_starts=3, seed=7).start_results]
        assert len(forks) == 2 * (n_workers - 1)
        assert stops == {3: [("budget", False)] * 3, 200: [("spread", True)] * 3}
        assert_no_child_left()

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_unpicklable_error_in_a_child_share_raised_as_serially(self, monkeypatch, n_workers):
        class Unpicklable(RuntimeError):  # local, and its constructor takes two arguments
            def __init__(self, start, value):
                super().__init__(f"start {start} failed at m = {value!r}")

        problem = CalibrationProblem(objective=SMALL_OBJECTIVE, x0=TRUE, budget=40)
        failing_m = start_point(problem, 4, 3, 1)[0]  # start 1 runs in child 1

        def objective(params):
            if params.m == failing_m:
                raise Unpicklable(1, params.m)
            return SMALL_OBJECTIVE(params)

        problem.objective = objective
        workers(monkeypatch, 1)
        with pytest.raises(Unpicklable) as serial:
            calibrate(problem, n_starts=4, seed=3)
        forks = workers(monkeypatch, n_workers)
        with pytest.raises(Unpicklable) as forked:
            calibrate(problem, n_starts=4, seed=3)
        assert len(forks) == n_workers - 1
        assert str(forked.value) == str(serial.value)
        assert_no_child_left()

    def test_killed_child_share_run_again_here(self, monkeypatch):
        parent, calls = os.getpid(), []

        def objective(params):
            calls.append(None)
            if os.getpid() != parent and len(calls) == 25:
                os.kill(os.getpid(), signal.SIGKILL)
            return SMALL_OBJECTIVE(params)

        forks = workers(monkeypatch, 3)
        problem = CalibrationProblem(objective=objective, x0=TRUE, budget=60)
        new = calibrate(problem, n_starts=5, seed=2)
        old = list_calibrate(CalibrationProblem(objective=SMALL_OBJECTIVE, x0=TRUE, budget=60), n_starts=5, seed=2)
        assert len(forks) == 2
        for run_new, run_old in zip(new.start_results, old.start_results):
            assert_same_run(run_new, run_old)
        assert_same_trace(new.trace, old.trace)
        assert_no_child_left()

    def test_children_killed_when_this_process_share_raises(self, monkeypatch):
        parent = os.getpid()

        def objective(params):
            if os.getpid() == parent:
                raise ArithmeticError("start 0 failed")
            time.sleep(60)  # a child that is not killed holds the call up

        workers(monkeypatch, 3)
        started = time.perf_counter()
        with pytest.raises(ArithmeticError, match="start 0 failed"):
            calibrate(CalibrationProblem(objective=objective, x0=TRUE, budget=10), n_starts=3)
        assert time.perf_counter() - started < 30.0
        assert_no_child_left()

    def test_exit_hooks_do_not_run_in_children(self, monkeypatch, tmp_path):
        marker = tmp_path / "hook-ran"

        def hook():
            marker.write_text(str(os.getpid()))

        atexit.register(hook)
        try:
            workers(monkeypatch, 2)
            calibrate(CalibrationProblem(objective=SMALL_OBJECTIVE, x0=TRUE, budget=20), n_starts=2)
        finally:
            atexit.unregister(hook)
        assert not marker.exists()
        assert_no_child_left()

    def test_share_without_a_process_runs_here(self, monkeypatch):
        forks, fork = [], os.fork

        def fork_once():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "no process to be had")
            forks.append(None)
            return fork()

        monkeypatch.setattr(porelife.forks, "usable_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", fork_once)
        problem = CalibrationProblem(objective=SMALL_OBJECTIVE, x0=TRUE, budget=60)
        new, old = calibrate(problem, n_starts=5, seed=4), list_calibrate(problem, n_starts=5, seed=4)
        assert len(forks) == 1
        for run_new, run_old in zip(new.start_results, old.start_results):
            assert_same_run(run_new, run_old)
        assert_same_trace(new.trace, old.trace)
        assert_no_child_left()

    def test_one_worker_without_fork_or_beside_other_threads(self, monkeypatch):
        assert porelife.forks.usable_cpus() == len(os.sched_getaffinity(0))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            assert porelife.forks.usable_cpus() == 1
        finally:
            release.set()
            thread.join(10.0)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert porelife.forks.usable_cpus() == 1


class TestInternalTransform:
    def test_extreme_coordinates_clamped(self):
        pinned = np.array([2.0, 0.01, 0.0, 0.2, 0.0, 3e-4])
        for y in (800.0, -800.0, 1e6):
            vec = _from_internal(np.array([y, y]), [0, 5], pinned)
            assert np.all(np.isfinite(vec))
            assert vec[0] > 0.0 and vec[5] >= 0.0

    def test_unbounded_objective_does_not_overflow(self):
        problem = CalibrationProblem(
            objective=lambda p: p.m, x0=TRUE, free_mask=(True, False, False, False, False, False), budget=200
        )
        result = calibrate(problem, n_starts=1)
        assert math.isfinite(result.params.m) and math.isfinite(result.log_likelihood)


class TestCalibrate:
    def test_recovery_one_seed(self):
        obs = synth_observations(TRUE, seed=0)
        problem = CalibrationProblem(
            objective=homogeneous_objective(obs, TRUE.V0),
            x0=StrainLifeParams(m=1.0, A=0.05, alpha=0.4, C=2e-4, V0=TRUE.V0),
            free_mask=one_line_mask(),
            budget=400,
        )
        result = calibrate(problem, n_starts=5, seed=0)
        assert abs(result.params.A - TRUE.A) / TRUE.A < 0.2
        assert abs(result.params.alpha - TRUE.alpha) / TRUE.alpha < 0.2
        assert abs(result.params.C - TRUE.C) / TRUE.C < 0.2
        assert abs(result.params.m - TRUE.m) / TRUE.m < 0.35
        assert result.params.B == 0.0 and result.params.beta == 0.0

    def test_candidates_always_feasible(self):
        obs = synth_observations(TRUE, seed=1, n_per_level=10)
        base = homogeneous_objective(obs, TRUE.V0)
        seen = []

        def checked(params):
            seen.append(params)
            return base(params)

        problem = CalibrationProblem(
            objective=checked,
            x0=TRUE,
            free_mask=(True,) * 6,
            budget=60,
        )
        calibrate(problem, n_starts=2, seed=3)
        assert seen
        for p in seen:
            assert p.m > 0 and p.A > 0 and p.alpha > 0
            assert p.B >= 0 and p.beta >= 0 and p.C >= 0

    def test_pinned_values_respected(self):
        obs = synth_observations(TRUE, seed=2, n_per_level=10)
        problem = CalibrationProblem(
            objective=homogeneous_objective(obs, TRUE.V0),
            x0=StrainLifeParams(m=2.0, A=0.01, alpha=0.2, B=0.0, beta=0.0, C=5e-4, V0=TRUE.V0),
            free_mask=(False, True, True, True, True, False),
            budget=80,
        )
        result = calibrate(problem, n_starts=1, seed=0)
        assert result.params.m == 2.0
        assert result.params.C == 5e-4

    def test_deterministic(self):
        obs = synth_observations(TRUE, seed=3, n_per_level=8)
        problem = CalibrationProblem(
            objective=homogeneous_objective(obs, TRUE.V0),
            x0=TRUE,
            free_mask=one_line_mask(),
            budget=50,
        )
        a = calibrate(problem, n_starts=3, seed=11)
        b = calibrate(problem, n_starts=3, seed=11)
        assert a.params == b.params
        assert a.log_likelihood == b.log_likelihood
        for (ia, xa, va), (ib, xb, vb) in zip(a.trace, b.trace):
            assert ia == ib and va == vb
            assert np.array_equal(xa, xb)

    def test_two_line_dominates_one_line(self):
        obs = synth_observations(TRUE, seed=4)
        objective = homogeneous_objective(obs, TRUE.V0)
        x0_one = StrainLifeParams(m=1.5, A=0.02, alpha=0.3, C=4e-4, V0=TRUE.V0)
        one = calibrate(
            CalibrationProblem(objective=objective, x0=x0_one, free_mask=one_line_mask(), budget=400),
            n_starts=3,
            seed=0,
        )
        x0_two = StrainLifeParams(
            m=one.params.m, A=one.params.A, alpha=one.params.alpha,
            B=1e-6, beta=0.5, C=one.params.C, V0=TRUE.V0,
        )
        two = calibrate(
            CalibrationProblem(objective=objective, x0=x0_two, free_mask=(True,) * 6, budget=400),
            n_starts=3,
            seed=0,
        )
        assert two.log_likelihood >= one.log_likelihood - 1e-6

    def test_degeneracy_detection(self):
        runouts = [FatigueObservation(80.0, 2e6, True)] * 5
        with pytest.raises(CalibrationDegeneracyError):
            ensure_failures(runouts)
        ensure_failures([FatigueObservation(80.0, 1e4, False)])

    def test_trace_csv(self, tmp_path):
        obs = synth_observations(TRUE, seed=5, n_per_level=5)
        problem = CalibrationProblem(
            objective=homogeneous_objective(obs, TRUE.V0),
            x0=TRUE,
            free_mask=one_line_mask(),
            budget=30,
        )
        result = calibrate(problem, n_starts=1, seed=0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, result.trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,m,A,B,alpha,beta,C,log_likelihood"
        assert len(lines) == len(result.trace) + 1
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            CalibrationProblem(objective=lambda p: 0.0, x0=TRUE, free_mask=(False,) * 6)
        with pytest.raises(ValueError):
            CalibrationProblem(objective=lambda p: 0.0, x0=TRUE, free_mask=(True,) * 5)
