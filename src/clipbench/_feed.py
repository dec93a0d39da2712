"""Draws computed ahead, trace rows formatted behind and half of a large
batch run, by a forked child.

A run's or a Monte Carlo estimate's draws never depend on its iterate, so
a second process can compute them while the first one steps. :func:`fed`
forks one child that fills a ring of shared memory with them, and the
parent reads them back in order. The child makes the very calls the
parent would make, from the state the process had at the fork, so the
draws, and every output built from them, are the bits the parent would
compute itself.

A long single run's trace CSV is formatted behind it instead: a
:class:`RowWriter` hands the run its record array in shared memory and
forks a child that turns the records into CSV rows, :func:`csv_rows`, up
to the count of records the run last stored in that memory, into a
memfd. The CLI's copy of the finished trace sets the count where the
child stops, about half of the rows it has not reached, and formats the
rest while the child finishes; it then copies the child's text and its
own rows into the output file. Where the child fails, the CLI formats
every row itself, so the bytes never depend on it. A writer forks only
for 2**12 to 2**19 recorded rows and never for a run that is fed, so a
run has at most one child.

A large lockstep batch runs half of its cells in a child instead:
:func:`split` computes one function in a forked child while the parent
computes another, and pickles the child's result up a pipe. The step loop
runs each cell row by row, so the cells the child runs have the bits the
parent would compute. A batch of cells is never fed and never written by
a :class:`RowWriter`, so it too has at most one child.

Every child is started by :func:`_spawn`, the one gate: it forks only
where the process can fork, may run on more than one CPU and runs no
other Python thread (:func:`can_fork`), and runs the child's work with
warnings as errors, so no child prints. A caller states only what pays
for a child (:func:`should_feed`, the writer's row count, the batch's
work), and a resource that one child alone needs, as the writer's memfd,
that child's caller asks for itself. The feeder and the writer share
their data and counts with the parent in memory and send single bytes
down and up their pipes; :func:`split` pickles its result up its pipe.
Only ``os``, ``mmap``, ``pickle`` and ``ctypes`` are used for the
children: a thread would contend for the interpreter lock
the parent steps with, and ``multiprocessing`` costs import time. All
share one lifecycle, :func:`_spawn` and :func:`_end`, and one contract:
whatever happens to a child, the caller gives the outputs, exceptions
and warnings of one process. Where :func:`_spawn` forks no child, or the
child fails (a warning fails it) or dies, the child is killed and reaped
and the parent does its work itself: the feeder's calls, the writer's
rows or the batch's cells. A child dies with its parent.
"""

from __future__ import annotations

import os
import sys
from contextlib import suppress
from typing import Iterator

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


# a trace whose rows a forked writer formats has ROWS_MIN to ROWS_MAX rows:
# forking and reaping the writer costs 2-3.5 ms, several hundred rows of
# formatting at 4-6 us a row, and below 2**19 rows the text stays under
# about 64 MiB, which the memfd holds in RAM. The run reports its count of
# records every REPORT_ROWS, and the child formats REPORT_ROWS rows at a time
ROWS_MIN = 1 << 12
ROWS_MAX = 1 << 19
REPORT_ROWS = 1024


def can_fork() -> bool:
    """Whether a helper child may be forked: the process can fork, may run
    on more than one CPU and runs no other Python thread, which could hold
    a lock the child takes. Asked by :func:`_spawn` alone, before each
    child."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    return (hasattr(os, "fork") and cpus > 1
            and (threading is None or threading.active_count() == 1))


def should_feed(items: int, doubles: int) -> bool:
    """Whether ``items`` draws of ``doubles`` doubles in all pay for a child
    that computes them ahead: there is more than one item, and the draws
    reach ``MIN_DOUBLES``. Whether the process may fork, :func:`_spawn`
    decides."""
    return items >= 2 and doubles >= MIN_DOUBLES


def _spawn(size: int, body):
    """Fork a child that runs ``body(shared, down, up)``: ``shared`` maps
    ``size`` bytes that parent and child share (None for 0), ``down``
    reads a pipe from the parent and ``up`` writes one to it. The one gate
    of every child: None, with nothing made, where :func:`can_fork` does
    not hold, and None, with what it made closed, where the system refuses
    the memory, a pipe or the fork. Returns the parent's ``(pid, shared,
    down, up)`` otherwise, which writes ``down`` and reads ``up``.

    The child dies with the parent (on Linux), never returns into the
    caller's frames and ends in ``os._exit(0)`` however ``body`` ends, so
    the parent reads how it ended from what it wrote up. It runs ``body``
    with warnings as errors: a child that warns fails and prints nothing,
    and the parent does its work, whose warnings reach the caller."""
    if not can_fork():
        return None
    import ctypes  # numpy has imported it
    import mmap  # here: only a process that forks needs it
    import signal
    import warnings

    # prctl among the process's own symbols, libc's too, looked up here,
    # where ctypes keeps it after the first child: a new child's lookup
    # takes about 0.25 ms, its call about 20 us
    prctl = ctypes.pythonapi.prctl if sys.platform == "linux" else None
    parent, fds = os.getpid(), []
    try:
        shared = mmap.mmap(-1, size) if size else None
        for _ in range(2):
            fds += os.pipe()
        # Python 3.12+ warns on a fork while native threads (a BLAS pool,
        # say) run; can_fork ruled out Python threads, and a child runs
        # only its own code and the BLAS, whose pool OpenBLAS shuts down at
        # a fork
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
            pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    down_r, down_w, up_r, up_w = fds
    if not pid:
        try:
            if prctl:
                prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG: killed when the parent dies
            # a parent that died before that call has left the child to init
            if os.getppid() == parent:
                os.close(down_w)
                os.close(up_r)
                warnings.simplefilter("error")
                body(shared, down_r, up_w)
        finally:
            os._exit(0)
    os.close(down_r)
    os.close(up_w)
    return pid, shared, down_w, up_r


def _end(pid: int, *fds: int | None) -> None:
    """Close the parent's descriptors ``fds`` (None for one it closed
    already), then kill the child ``pid`` and wait for it."""
    import signal  # _spawn has imported it

    for fd in fds:
        if fd is not None:
            os.close(fd)
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass  # reaped already, as where SIGCHLD is ignored


def split(here, there):
    """``(here(), there())``, where a forked child computes ``there()`` while
    this process computes ``here()``.

    The child pickles its result up its pipe, and the parent reads it
    after ``here()`` returns. None where :func:`_spawn` forks no child,
    where the child fails (a warning fails it) or dies, or where ``here()``
    raises an ``Exception``: the caller then computes both itself, which
    gives its one-process outcome, warnings too. However it ends, the
    child is killed and reaped.
    """
    import pickle  # numpy has imported it

    def compute(shared, down: int, up: int) -> None:
        # the child's work
        with open(up, "wb", closefd=False) as pipe:
            pickle.dump(there(), pipe, pickle.HIGHEST_PROTOCOL)

    spawned = _spawn(0, compute)
    if spawned is None:
        return None
    pid, _, down, up = spawned
    try:
        try:
            mine = here()
        except Exception:
            return None
        with open(up, "rb", closefd=False) as pipe:
            data = pipe.read()
    finally:
        _end(pid, down, up)
    try:
        return mine, pickle.loads(data)
    except Exception:
        # the empty or cut-off data of a child that failed or died
        return None


def fed(produce, n: int, doubles: int):
    """Yield ``produce(0)``, ..., ``produce(n - 1)``, the items after the
    first computed ahead by a forked child where ``should_feed(n,
    doubles)``.

    The caller's process makes item 0 when the caller asks for it, so a
    call that raises there raises where the caller asked. An item is a
    tuple of arrays. Each array a later ``produce(i)`` returns fills the
    leading rows of one shaped like its counterpart in item 0, and a fed
    item's array is what the caller is handed; it is valid until the
    caller takes the next item. Where :func:`_spawn` forks no child, or
    where the child fails or dies before item ``i``, the child is reaped
    and the parent makes the calls itself: again ``produce(1)``, ...,
    ``produce(i - 1)``, whose items the child made, as ``produce`` may
    draw from a stream those calls advance, then the rest. So the items,
    and an exception or warning a call raises, are those of one process.
    However the caller stops, the child is killed and reaped.
    """
    import mmap  # here: only a process that forks needs it

    first = produce(0)
    # an item's arrays start on cache lines, and a block on a page
    sizes = [-(-a.nbytes // 64) * 64 for a in first]
    item = sum(sizes)
    per = max(1, BLOCK_BYTES // item)
    block = -(-per * item // mmap.PAGESIZE) * mmap.PAGESIZE
    depth = min(DEPTH, -(-(n - 1) // per))
    layout = [((depth, per) + a.shape, a.dtype, sum(sizes[:j]),
               (block, item) + np.ascontiguousarray(a).strides) for j, a in enumerate(first)]

    def ring_views(ring) -> list[np.ndarray]:
        # one view per array of an item, indexed by block and place in the block
        return [np.ndarray(shape, dtype, ring, offset, strides)
                for shape, dtype, offset, strides in layout]

    def fill(ring, free_r: int, ready_w: int) -> None:
        # the child's loop
        views = ring_views(ring)
        for i in range(1, n):
            b, j = divmod((i - 1) % (depth * per), per)
            # a block is refilled once the parent has released it
            if i > depth * per and not j and not os.read(free_r, 1):
                break
            for view, a in zip(views, produce(i)):
                view[b, j, :len(a)] = a
            if j == per - 1 or i == n - 1:
                os.write(ready_w, b"+")

    spawned = should_feed(n, doubles) and _spawn(depth * block, fill)
    pid, ring, free_w, ready_r = spawned or (None,) * 4
    i = 1  # the first item the parent makes itself
    try:
        yield first
        del first  # held here, its arrays would stay allocated all along
        if pid:
            views = ring_views(ring)
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
                    # a child that failed or died sends no "+" for its block
                    if os.read(ready_r, 1) != b"+":
                        break
                yield tuple(view[b, j] for view in views)
            else:
                return
    finally:
        if pid:
            _end(pid, ready_r, free_w)
    # no child (i = 1), or a child that ended before item i: its
    # calls, made again here, leave any stream produce draws from where the
    # child left it
    for k in range(1, i):
        produce(k)
    yield from map(produce, range(i, n))


def csv_rows(iters: np.ndarray, columns) -> Iterator[str]:
    """The CSV rows of a trace's recorded iterations and its four float
    columns: each float in its shortest round-trip form, each row ended by
    ``\\r\\n``, the text ``csv.writer`` gives for these cells, none of
    which needs quoting."""
    return (f"{t},{fv!r},{g!r},{a!r},{cf!r}\r\n"
            for t, fv, g, a, cf in zip(iters.tolist(), *(a.tolist() for a in columns)))


class RowWriter:
    """A single run's trace rows, formatted by a forked child while it steps.

    The run takes its ``(4, rows, 1)`` record array from :meth:`open` and
    calls :meth:`report` with its count of records every ``REPORT_ROWS``.
    The child formats the rows the run reports, ``REPORT_ROWS`` at a time,
    into a memfd. :meth:`copy`, handed the run's trace, leaves the child
    about half of the rows it has not formatted yet, formats the other half
    while the child finishes, then writes the child's text and its own.
    Used as a context manager: on exit the child is killed and reaped and
    the shared memory and memfd are released, however the caller stopped.
    """

    pid = _counts = _text = _bell = _up = None

    def open(self, ts: np.ndarray) -> np.ndarray | None:
        """The record array of a run that records iterations ``ts``, in
        shared memory, with a child forked to format its rows; None, with
        nothing forked, for a trace too short or too long to pay for the
        child, where ``os`` has no memfd or the system refuses one, or
        where :func:`_spawn` forks no child."""
        if not ROWS_MIN <= ts.size <= ROWS_MAX:
            return None
        try:
            self._text = os.memfd_create("clipbench-trace-rows")
        except (AttributeError, OSError):
            # an os without memfd_create, or a system that refuses one
            return None
        spawned = _spawn(32 * ts.size + 16, lambda *ends: self._format(ts, *ends))
        if spawned is None:
            os.close(self._text)
            return None
        self.pid, shared, self._bell, self._up = spawned
        # after the records, the counts of rows reported and rows formatted
        self._counts = np.ndarray(2, np.int64, shared, 32 * ts.size)
        return np.ndarray((4, ts.size, 1), buffer=shared)

    def _format(self, ts: np.ndarray, shared, bell: int, up: int) -> None:
        # the child's loop: it formats up to the reported count, and waits at
        # the bell where it has formatted every row reported. A report stores
        # its count before it rings, and end of file comes after the last
        # ring, so the loop ends with every reported row formatted. The
        # final count may be below one the child took, so the formatted
        # count never goes down. Its "+" up tells that the memfd holds them
        records = np.ndarray((4, ts.size, 1), buffer=shared)
        counts = np.ndarray(2, np.int64, shared, 32 * ts.size)
        start = 0
        with open(self._text, "w", newline="", closefd=False) as text:
            while start < counts[0] or os.read(bell, 1 << 16):
                stop = min(int(counts[0]), start + REPORT_ROWS)
                text.writelines(csv_rows(ts[start:stop], records[:, start:stop, 0]))
                counts[1] = start = max(start, stop)
        os.write(up, b"+")

    def report(self, k: int) -> int:
        """Tell the child that ``k`` records are written: one store into the
        shared memory and one byte down the pipe. Returns the count to
        report next."""
        self._counts[0] = k
        # a child that failed leaves the rows to copy's caller
        with suppress(BrokenPipeError):
            os.write(self._bell, b".")
        return k + REPORT_ROWS

    def copy(self, out, iters: np.ndarray, columns) -> bool:
        """Append to the open file ``out`` the rows ``csv_rows(iters,
        columns)`` of the run's trace, whose every record is written: the
        child's, then those it left. The child takes about half of the rows
        it has not formatted yet, and past its block in progress; the rest
        are formatted here while it finishes. False, with nothing written,
        where the child did not format its share of this trace."""
        if self.pid is None:
            return False
        k, done = iters.size, int(self._counts[1])
        split = min(k, max(done + REPORT_ROWS, (done + k) // 2))
        self.report(split)
        os.close(self._bell)
        self._bell = None
        # formatted while the child finishes; it may have gone past the split
        rows = list(csv_rows(iters[split:], [a[split:] for a in columns]))
        # a child that failed or was killed sends no "+"
        if os.read(self._up, 1) != b"+":
            return False
        out.flush()
        size, sent = os.fstat(self._text).st_size, 0
        while sent < size:
            sent += os.sendfile(out.fileno(), self._text, sent, size - sent)
        out.writelines(rows[int(self._counts[1]) - split:])
        return True

    def __enter__(self) -> "RowWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self.pid is not None:
            _end(self.pid, self._bell, self._up, self._text)
        # the shared memory is unmapped with its last view, which a
        # traceback through the run may still hold
        self.pid = self._counts = None
