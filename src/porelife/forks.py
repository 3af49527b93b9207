"""One map over independent jobs, forked onto every usable CPU.

:func:`fork_map` runs the fits' Nelder-Mead starts and the per-field jobs
of ``genfield`` and ``criterion``.  It returns what the serial loop returns
and raises what the serial loop raises, however many processes it uses.
"""
from __future__ import annotations

import os
import pickle
import threading


def usable_cpus() -> int:
    """CPUs a map may fork onto: 1 where this process cannot fork, or runs other threads a child would lack."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(run, share) -> list:
    """The results of ``share``'s items up to the first that raises."""
    results = []
    try:
        for x in share:
            results.append(run(x))
    except Exception:  # fork_map runs this item again in its turn
        pass
    return results


def fork_map(run, items) -> list:
    """``[run(x) for x in items]``, with the items ``k::workers`` run in forked child ``k``.

    ``workers`` is ``min(len(items), usable_cpus())``.  Each share runs until
    an item raises: the items ``0::workers`` here, so one worker is the
    serial loop, and the others in children, which pickle their results into
    a pipe and leave through ``os._exit``, so no exception or exit hook runs
    in them.  Then every item takes its turn in input order, and one without
    a result (it raised, or its child could not be forked or did not exit
    cleanly) runs here again: the first item to raise raises its own
    exception, with its chain, as the serial loop would.  A child's results
    are read in its first item's turn; the children left when something
    raises here are killed and reaped.
    """
    items = list(items)
    workers = max(1, min(len(items), usable_cpus()))
    children = {}  # share index -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the items left run here
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as fh:
                        pickle.dump(_run_share(run, items[k::workers]), fh)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[k] = (pid, open(read_fd, "rb"))
        missing = object()
        results = [missing] * len(items)
        done = _run_share(run, items[::workers])
        results[: workers * len(done) : workers] = done
        for i, x in enumerate(items):
            if i in children:  # child i's first item: collect its share
                pid, fh = children[i]
                with fh:
                    payload = fh.read()
                status = os.waitpid(pid, 0)[1]
                del children[i]
                if status == 0:
                    done = pickle.loads(payload)
                    results[i : i + workers * len(done) : workers] = done
            if results[i] is missing:
                results[i] = run(x)
        return results
    finally:
        if children:
            import signal  # only this error path needs it; importing it costs every command memory

            for pid, fh in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                fh.close()
