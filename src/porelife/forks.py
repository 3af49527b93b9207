"""One map over independent jobs, forked onto every usable CPU.

:func:`fork_map` runs the fits' Nelder-Mead starts, and :func:`fork_files`
the per-field jobs of ``genfield`` and ``criterion``.  Each returns, writes
and raises what the serial loop does, however many processes it uses.
"""
from __future__ import annotations

import itertools
import os
import pickle
import threading

#: The result of an item that its caller runs here, in its turn.
_HERE = object()


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
    except Exception:  # its caller runs this item again in its turn
        pass
    return results


def _turns(run, items: list):
    """Each item and its result in input order, with the items ``k::workers`` run ahead in forked child ``k``.

    ``workers`` is ``min(len(items), usable_cpus())``.  Each share runs until
    an item raises: the items ``0::workers`` here, so one worker is the
    serial loop, and the others in children, which pickle their results into
    a pipe and leave through ``os._exit``, so no exception or exit hook runs
    in them.  A child's results are read in its first item's turn.  An item
    without a result (it raised, came after one that did, or its child could
    not be forked or did not exit cleanly) comes with :data:`_HERE`: its
    caller runs it here, in its turn.  Closing the generator kills and reaps
    the children left.
    """
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
        results = [_HERE] * len(items)
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
            yield x, results[i]
    finally:
        if children:
            import signal  # only this error path needs it; importing it costs every command memory

            for pid, fh in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                fh.close()


def fork_map(run, items) -> list:
    """``[run(x) for x in items]``, with the items run ahead as :func:`_turns` runs them.

    An item without a result runs here again in its turn: the first item to
    raise raises its own exception, with its chain, as the serial loop would.
    """
    turns = _turns(run, list(items))
    try:
        return [run(x) if result is _HERE else result for x, result in turns]
    finally:
        turns.close()


def _part(path):
    """Where a job run ahead writes ``path``."""
    return path.with_name(path.name + ".part")


def _into_place(part, path) -> None:
    """Put the file a job run ahead wrote as ``part`` at ``path``, as the serial loop's write would have.

    A rename where ``path`` is a regular file or nothing; else its bytes are
    written to ``path``, which writes through a link and names ``path`` alone
    in an error, such as for a directory standing there.
    """
    if path.is_symlink() or path.exists() and not path.is_file():
        path.write_bytes(part.read_bytes())
        part.unlink()
    else:
        os.replace(part, path)


def fork_files(out, job, paths: list, take, files=lambda path: [path]) -> None:
    """``for i, path in enumerate(paths): take(i, job(i, path))``, with the jobs run ahead as :func:`_turns` runs them.

    ``job(i, to)`` writes item ``i``'s files, ``files(to)``, into the
    directory ``out`` that holds ``paths``, and returns its result.  ``out``
    and the parents it lacks are made before the first fork, and those the
    jobs left empty are removed again if the loop raises.  The first item of
    each distinct path runs ahead with ``to`` its part name, ``path`` +
    ``.part``; in its turn, its part files that exist are put into place
    (:func:`_into_place`) before ``take`` gets its result.  An item without
    a result from ahead, and one whose path an earlier item has, runs here
    in its turn with ``to = path``, as in the serial loop, so the first to
    fail raises its own error and leaves the files of the items before it.
    Every part file, also one an earlier killed run left, is removed before
    the jobs run and at the end.
    """
    made = list(itertools.takewhile(lambda path: not path.exists(), (out, *out.parents)))
    firsts: dict = {}  # path -> index of the first item that writes it
    for i, path in enumerate(paths):
        firsts.setdefault(path, i)
    parts = [part for path in firsts for part in files(_part(path))]
    out.mkdir(parents=True, exist_ok=True)
    turns = _turns(lambda path: job(firsts[path], _part(path)), list(firsts))
    try:
        for part in parts:
            part.unlink(missing_ok=True)
        for i, path in enumerate(paths):
            result = next(turns)[1] if firsts[path] == i else _HERE
            if result is _HERE:
                result = job(i, path)
            else:
                for part, to in zip(files(_part(path)), files(path)):
                    if part.exists():
                        _into_place(part, to)
            take(i, result)
        made = []  # the loop finished: every directory stays
    finally:
        turns.close()
        for part in parts:
            part.unlink(missing_ok=True)
        for path in made:
            try:
                path.rmdir()
            except OSError:
                break
