"""The package's one thread policy: how many threads, and the pool they run on.

Frames split their contour sums into blocks and Monte Carlo its work into
samples; each item writes its own output, and the caller combines them in
item order, so no result depends on the thread count or on which thread
took an item.  The worker threads start on first use, not at import, and
live for the process: a thread that has run eigensolves or block products
keeps its malloc arena and BLAS buffer, so reusing the same threads keeps
that memory from growing call by call.
"""

from __future__ import annotations

import os
import queue
import threading

_tasks: queue.SimpleQueue = queue.SimpleQueue()
_workers: list[threading.Thread] = []
_grow = threading.Lock()
_local = threading.local()


def default_threads() -> int:
    """Threads for sampling and for a frame's contour sums: the usable CPUs
    when BLAS is pinned to one thread, else 1, since a threaded BLAS already
    spreads each eigensolve and product over the cores and more threads
    would oversubscribe them."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if blas != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve() -> None:
    _local.in_pool = True
    while True:
        # a task's references end with _run: an idle worker holds no arrays
        _run(*_tasks.get())


def _run(share, w: int, results: queue.SimpleQueue) -> None:
    try:
        share(w)
    except BaseException as exc:  # handed to the caller, who re-raises it
        results.put(exc)
    else:
        results.put(None)


def run_items(fn, count: int, threads: int) -> None:
    """Call fn(i, w) for every item i < count and return when all are done.

    Up to ``threads`` threads take the items in order, each the next item
    not yet taken whenever it is free, so a thread slowed by other load on
    its CPU takes fewer.  w names the thread: the caller is 0, the pool's
    workers 1, 2, ...; an item can use a buffer of its own thread.  The pool
    grows to threads - 1 workers if it has fewer.  A call made from a pool
    worker takes every item itself, so nested calls cannot wait on a busy
    pool.  The first error is raised once every thread has stopped.
    """
    threads = min(threads, count)
    items = iter(range(count))
    taking = threading.Lock()

    def share(w: int) -> None:
        while True:
            with taking:
                i = next(items, None)
            if i is None:
                return
            fn(i, w)

    if threads <= 1 or getattr(_local, "in_pool", False):
        share(0)
        return
    with _grow:
        while len(_workers) < threads - 1:
            worker = threading.Thread(
                target=_serve, name=f"dbmlab-{len(_workers) + 1}", daemon=True
            )
            worker.start()
            _workers.append(worker)
    results: queue.SimpleQueue = queue.SimpleQueue()
    for w in range(1, threads):
        _tasks.put((share, w, results))
    try:
        share(0)
    finally:
        errors = [results.get() for _ in range(1, threads)]
    for exc in errors:
        if exc is not None:
            raise exc
