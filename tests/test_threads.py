"""The shared worker pool: every item runs once, on a thread of the call,
errors reach the caller, and an item that itself splits work cannot wait
on a busy pool."""

import threading

import pytest

from dbmlab import threads as pool


def _in_thread(target, timeout=30.0):
    # a hang must fail the test, not stop the suite
    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive()


def test_each_item_runs_once_and_the_caller_is_thread_0():
    ran = []
    lock = threading.Lock()

    def item(i, w):
        with lock:
            ran.append((i, w, threading.current_thread()))

    pool.run_items(item, 50, 3)
    assert sorted(i for i, _, _ in ran) == list(range(50))
    assert {w for _, w, _ in ran} <= {0, 1, 2}
    assert all((w == 0) == (t is threading.current_thread()) for _, w, t in ran)


def test_an_error_is_raised_after_every_thread_stopped():
    done = []
    lock = threading.Lock()

    def item(i, w):
        if i == 2:
            raise ValueError("item 2")
        with lock:
            done.append(i)

    with pytest.raises(ValueError, match="item 2"):
        pool.run_items(item, 9, 3)
    assert sorted(done) == [i for i in range(9) if i != 2]


def test_nested_calls_run_on_the_worker_that_made_them():
    # every worker busy with an outer item asks for more threads: each inner
    # call takes its items itself instead of queueing behind the outer ones
    inner = []
    lock = threading.Lock()
    barrier = None

    def outer(i, w):
        barrier.wait(timeout=10)  # one outer item on each thread at once

        def leaf(j, v):
            with lock:
                inner.append((i, j))

        pool.run_items(leaf, 3, 3)

    # the pool grows by one worker, and every worker takes an outer item
    threads = len(pool._workers) + 2
    barrier = threading.Barrier(threads)
    _in_thread(lambda: pool.run_items(outer, threads, threads))
    assert sorted(inner) == [(i, j) for i in range(threads) for j in range(3)]
