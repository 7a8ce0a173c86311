"""Independent tasks spread over the CPUs the process may run on."""

from __future__ import annotations

import os
import pickle
import signal


def _cpu_count() -> int:
    # platforms without affinity masks (macOS, Windows) run serially
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _shares(weights: list[float], workers: int) -> list[list[int]]:
    # longest first, each task to the lightest share (fewest tasks on a tie)
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        k = min(range(workers), key=lambda k: (loads[k], len(shares[k])))
        shares[k].append(i)
        loads[k] += weights[i]
    return shares


def _child(fn, items: list, write_fd: int, inherited: list) -> None:
    """Run in a forked child: send ``[fn(x) for x in items]`` or the exception
    it raised, then leave without running the caller's exit handlers.
    ``inherited`` are the caller's read ends, which the child closes."""
    status = 1
    try:
        for pipe in inherited:
            pipe.close()
        try:
            payload = (True, [fn(x) for x in items])
        except BaseException as exc:
            payload = (False, exc)
        try:
            data = pickle.dumps(payload)
        except Exception as exc:
            error = RuntimeError(f"fork_map worker could not pickle its outcome: {exc!r}")
            data = pickle.dumps((False, error))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn, items, weights=None) -> list:
    """Return ``[fn(x) for x in items]``, computed on every CPU in the
    process's affinity mask.

    The items are split into one share per CPU, balanced longest first on
    ``weights`` (default: all equal). The calling process computes the first
    share itself; each other share runs in a child made with ``os.fork``, so
    ``fn`` may be a closure over objects that cannot be pickled, and the child
    starts from the caller's memory, random generators included. Only the
    results travel back, pickled through a pipe. A child's exception is
    raised again here; a child that dies without reporting raises
    ``RuntimeError``. Every child is reaped before this returns or raises.
    With one CPU, or one item, nothing is forked.
    """
    items = list(items)
    workers = min(_cpu_count(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    own, *others = _shares([1.0] * len(items) if weights is None else list(weights), workers)
    results = [None] * len(items)
    children = []  # (pid, read end, share) of each child not yet reaped
    try:
        for share in others:
            read_fd, write_fd = os.pipe()
            pipe = os.fdopen(read_fd, "rb")
            try:
                pid = os.fork()
                if pid == 0:  # the child never returns from _child
                    inherited = [pipe, *(p for _, p, _ in children)]
                    _child(fn, [items[i] for i in share], write_fd, inherited)
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(write_fd)
            children.append((pid, pipe, share))
        for i in own:
            results[i] = fn(items[i])
        while children:
            pid, pipe, share = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(
                    f"fork_map worker {pid} died without a result (exit code {code})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            for i, result in zip(share, value):
                results[i] = result
        return results
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
