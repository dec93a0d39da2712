"""Draws computed ahead by a forked child.

A run's or a Monte Carlo estimate's draws never depend on its iterate, so
a second process can compute them while the first one steps. :func:`fed`
forks one child that fills a ring of shared memory with them, and the
parent reads them back in order. The child makes the very calls the
parent would make, from the state the process had at the fork, so the
draws, and every output built from them, are the bits the parent would
compute itself. Only ``os`` and ``mmap`` are used: a thread would contend
for the interpreter lock the parent steps with, and ``multiprocessing``
costs import time.
"""

from __future__ import annotations

import os
import sys

import numpy as np

# the fewest doubles a run or a Monte Carlo estimate has a child draw ahead.
# Forking, filling and reaping a feeder costs 5-8 ms and a Philox normal
# about 25 ns; on chi-square problems (d = 100, 2-core x86-64) a fed run
# broke even at about 2e5 doubles with B = 16 and 3e5 with B = 1, and a
# fed expected_clipped_grad at about 7e5. At 2**20 each took 8-11% less
# time than unfed, and the benchmark's 5e6-double run 28% less
MIN_DOUBLES = 1 << 20
# the ring: DEPTH blocks of about BLOCK_BYTES (8 MiB in all), each a whole
# number of items and of pages. The parent releases a block's pages as it
# moves past it, so it maps one block at a time, while the child runs up to
# about 50 ms of steps ahead of it, which rides out more of a shared host's
# stalls on the second core (the benchmark's chi-square job, 6 alternating
# runs on 2 cores: a median of 0.287 s with 16 blocks, 0.265 s with 64)
BLOCK_BYTES = 1 << 17
DEPTH = 64


def should_feed(problem, items: int, doubles: int) -> bool:
    """Whether ``items`` draws of ``doubles`` doubles in all are computed
    ahead: the problem has the ``draws`` hook, there is more than one item,
    the draws pay for a fork, and the process can fork, may run on more
    than one CPU and runs no other Python thread, which could hold a lock
    the child's draws take."""
    if problem.draws is None or items < 2 or doubles < MIN_DOUBLES or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    return cpus > 1 and (threading is None or threading.active_count() == 1)


def fed(first: tuple, produce, n: int):
    """Yield the item ``first``, then ``produce(1)``, ..., ``produce(n - 1)``,
    which a forked child computes ahead.

    An item is a tuple of arrays. Each array ``produce(i)`` returns fills
    the leading rows of one shaped like its counterpart in ``first``, and
    that array is what the caller is handed; it is valid until the caller
    takes the next item. A child that fails is a ``RuntimeError`` here, and
    however the caller stops, the child is killed and reaped.
    """
    # imported here: only a process that forks needs them
    import mmap
    import signal
    import warnings

    # an item's arrays start on cache lines, and a block on a page
    sizes = [-(-a.nbytes // 64) * 64 for a in first]
    item = sum(sizes)
    per = max(1, BLOCK_BYTES // item)
    block = -(-per * item // mmap.PAGESIZE) * mmap.PAGESIZE
    depth = min(DEPTH, -(-(n - 1) // per))
    ring = mmap.mmap(-1, depth * block)
    # one view per array of an item, indexed by block and place in the block
    views = [np.ndarray((depth, per) + a.shape, a.dtype, ring, sum(sizes[:j]),
                        (block, item) + np.ascontiguousarray(a).strides)
             for j, a in enumerate(first)]
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork while native threads (a BLAS pool,
        # say) run; should_feed ruled out Python threads, and the child
        # calls only produce and os
        warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
        pid = os.fork()
    if not pid:
        code = 1
        try:
            os.close(ready_r)
            os.close(free_w)
            for i in range(1, n):
                b, j = divmod((i - 1) % (depth * per), per)
                # a block is refilled once the parent has released it
                if i > depth * per and not j and not os.read(free_r, 1):
                    break
                for view, a in zip(views, produce(i)):
                    view[b, j, :len(a)] = a
                if j == per - 1 or i == n - 1:
                    os.write(ready_w, b"+")
            code = 0
        except BaseException as exc:
            # the child never returns into the caller's frames: any
            # exception, an interrupt too, is reported and ends it here
            os.write(ready_w, f"!{type(exc).__name__}: {exc}".encode())
        finally:
            os._exit(code)
    os.close(ready_w)
    os.close(free_r)
    try:
        yield first
        del first  # held here, its arrays would stay allocated all along
        for i in range(1, n):
            b, j = divmod((i - 1) % (depth * per), per)
            if not j:
                if i > 1:
                    # drops the parent's pages of the whole ring, which a
                    # read maps around the page it faults on as well
                    ring.madvise(mmap.MADV_DONTNEED)
                    try:
                        os.write(free_w, b"-")
                    except BrokenPipeError:
                        pass  # the child has exited; its last tokens tell how
                token = os.read(ready_r, 1)
                if token != b"+":
                    # a failed child's message follows its "!"
                    message = b"".join(iter(lambda: os.read(ready_r, 4096), b""))
                    raise RuntimeError("the draw feeder failed: "
                                       + (message.decode(errors="replace") or "it exited"))
            yield tuple(view[b, j] for view in views)
    finally:
        os.close(ready_r)
        os.close(free_w)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped already, as where SIGCHLD is ignored
