"""Child processes that compute a function of each item, read back in item order.

The manifest's series read and the simulations' runs both go through
:func:`run_in_children`.  ``multiprocessing`` is imported only where a
fork is weighed or a child started, so a command that runs everything in
its own process does not load it.
"""

import os
import signal
import threading

import numpy as np


def usable_cpus():
    return len(os.sched_getaffinity(0))


def can_fork():
    """Whether to fork: on Linux, and while no other Python thread runs.

    Linux is told by its CPU affinity call; macOS's system libraries are
    not fork-safe.  A fork copies only the calling thread, and a lock
    another thread holds would stay held in the child.  Native threads are
    not checked: OpenBLAS's pool stops in its own fork handler and restarts
    in a child that calls BLAS.
    """
    import multiprocessing

    forks = "fork" in multiprocessing.get_all_start_methods()
    return forks and hasattr(os, "sched_getaffinity") and threading.active_count() == 1


def fork_workers(items):
    """Forked children for ``items``: one per usable CPU and item, or 1, none."""
    return min(usable_cpus(), len(items)) if can_fork() else 1


def _serve(fn, items, conn):
    """In a child: ``fn`` of each item, an array as its shape, then its bytes.

    The first exception is sent in its item's place and ends the child.
    Ctrl-C reaches the whole process group; the parent ends the child.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        for item in items:
            result = fn(item)
            if isinstance(result, np.ndarray):
                result = np.asarray(result, order="C")
                conn.send(("array", (result.shape, result.dtype)))
                conn.send_bytes(result.reshape(-1).view(np.uint8))
            else:
                conn.send(("value", result))
    except Exception as exc:
        conn.send(("error", exc))


def run_in_children(fn, items, workers, start_method):
    """Yield ``fn(item)`` of each of ``items``, in order, until one raises.

    Child ``k`` of ``n = min(workers, len(items))``, started by
    ``start_method``, computes items ``k``, ``k + n``, ...; this thread
    reads the pipes in item order, each array into one it allocates.  With
    ``n`` below 2 this process computes them, and ``start_method`` is not
    read.  Every child is killed and reaped before this generator ends,
    however it ends.
    """
    workers = min(workers, len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    import multiprocessing

    context = multiprocessing.get_context(start_method)
    pipes, children = [], []
    try:
        for k in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            pipes.append(receiver)
            child = context.Process(target=_serve, args=(fn, items[k::workers], sender))
            child.start()
            children.append(child)
            sender.close()
        for k in range(len(items)):
            pipe, child = pipes[k % workers], children[k % workers]
            try:
                kind, result = pipe.recv()
            except EOFError:  # the child died without a word
                child.join()
                raise RuntimeError(f"worker process ended (exit code {child.exitcode})")
            if kind == "error":
                raise result
            if kind == "array":
                result = np.empty(*result)
                pipe.recv_bytes_into(result.reshape(-1).view(np.uint8))
            yield result
    finally:
        # every wanted result has been read, or none more is wanted
        for child in children:
            child.kill()
            child.join()
        for pipe in pipes:
            pipe.close()
