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
forks a child that turns the records into CSV rows, :func:`csv_rows`, as
the run reports them, into a memfd. When the run ends, the parent formats
about half of the rows the child has not reached while the child formats
the rest; the CLI then copies the child's text and the parent's rows into
the output file. Where the child fails, the CLI formats every row itself,
so the bytes never depend on it. A writer forks only for 2**12 to 2**19
recorded rows and never for a run that is fed, so a run has at most one
child.

A large lockstep batch runs half of its cells in a child instead:
:func:`split` computes one function in a forked child while the parent
computes another, and pickles the child's result up a pipe. The step loop
runs each cell row by row, so the cells the child runs have the bits the
parent would compute. A batch of cells is never fed and never written by
a :class:`RowWriter`, so it too has at most one child.

Every child is forked only where the process can fork, may run on more
than one CPU and runs no other Python thread (:func:`can_fork`). Only
``os``, ``mmap`` and ``pickle`` are used: a thread would contend for the
interpreter lock the parent steps with, and ``multiprocessing`` costs
import time. All share one lifecycle, :func:`_spawn` and :func:`_end`,
and one failure policy. Where the system refuses the memory, memfd, pipe
or fork, the parent does the child's work itself, with the same bits. A
feeder child that raises is a ``RuntimeError`` in the caller; a writer
child that fails leaves every row to the CLI, and a batch child that
fails leaves every cell to the parent.
"""

from __future__ import annotations

import os
import sys
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
# about 64 MiB, which the memfd holds in RAM. The run reports its records
# every REPORT_ROWS
ROWS_MIN = 1 << 12
ROWS_MAX = 1 << 19
REPORT_ROWS = 1024


def can_fork() -> bool:
    """Whether a helper child may be forked: the process can fork and make a
    memfd, may run on more than one CPU and runs no other Python thread,
    which could hold a lock the child takes."""
    if not (hasattr(os, "fork") and hasattr(os, "memfd_create")):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    return cpus > 1 and (threading is None or threading.active_count() == 1)


def should_feed(problem, items: int, doubles: int) -> bool:
    """Whether ``items`` draws of ``doubles`` doubles in all are computed
    ahead: the problem has the ``draws`` hook, there is more than one item,
    the draws pay for a fork, and :func:`can_fork`."""
    return (problem.draws is not None and items >= 2 and doubles >= MIN_DOUBLES
            and can_fork())


def _fork() -> int:
    """``os.fork()``. Python 3.12+ warns on a fork while native threads (a
    BLAS pool, say) run; can_fork ruled out Python threads, and a child
    runs only its own code and the BLAS, whose pool OpenBLAS shuts down
    at a fork."""
    import warnings

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
        return os.fork()


def _spawn(size: int, body):
    """Fork a child that runs ``body(shared, down, up)``: ``shared`` maps
    ``size`` bytes that parent and child share (None for 0), ``down``
    reads a pipe from the parent and ``up`` writes one to it. The child
    never returns into the caller's frames: any exception, an interrupt
    too, is written up as ``!Type: message`` and ends it. Returns the
    parent's ``(pid, shared, down, up)``, which writes ``down`` and reads
    ``up``; None, with what it made closed, where the system refuses the
    memory, a pipe or the fork."""
    import mmap  # here: only a process that forks needs it

    fds: list[int] = []
    try:
        shared = mmap.mmap(-1, size) if size else None
        for _ in range(2):
            fds += os.pipe()
        pid = _fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    down_r, down_w, up_r, up_w = fds
    if not pid:
        try:
            os.close(down_w)
            os.close(up_r)
            body(shared, down_r, up_w)
        except BaseException as exc:
            os.write(up_w, f"!{type(exc).__name__}: {exc}".encode())
        finally:
            # the parent reads how the child ended from up, not its status
            os._exit(0)
    os.close(down_r)
    os.close(up_w)
    return pid, shared, down_w, up_r


def _end(pid: int, *fds: int | None) -> None:
    """Close the parent's descriptors ``fds`` (None for one it closed
    already), then kill the child ``pid`` and wait for it."""
    import signal  # here: only a process that forked needs it

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
    after ``here()`` returns. Warnings are errors in the child, so it
    prints nothing. None where the system refuses a pipe or the fork, where
    the child fails, or where ``here()`` raises an ``Exception``: the
    caller then computes both itself, which gives its one-process outcome,
    warnings too. However it ends, the child is killed and reaped.
    """
    import pickle  # numpy has imported it

    def compute(shared, down: int, up: int) -> None:
        # the child's work
        import warnings

        warnings.simplefilter("error")
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
        # a failed child's "!Type: message", or the cut-off data of one killed
        return None


def fed(first: tuple, produce, n: int):
    """Yield the item ``first``, then ``produce(1)``, ..., ``produce(n - 1)``,
    which a forked child computes ahead.

    An item is a tuple of arrays. Each array ``produce(i)`` returns fills
    the leading rows of one shaped like its counterpart in ``first``, and
    that array is what the caller is handed; it is valid until the caller
    takes the next item. A child that fails is a ``RuntimeError`` here, and
    however the caller stops, the child is killed and reaped. Where the
    system refuses the ring, a pipe or the fork, the parent makes the
    child's calls itself, so the items have the same bits.
    """
    import mmap  # here: only a process that forks needs it

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

    spawned = _spawn(depth * block, fill)
    if spawned is None:
        # the system refused a resource: the child's calls, made here, give
        # the same items
        yield first
        del first
        yield from map(produce, range(1, n))
        return
    pid, ring, free_w, ready_r = spawned
    try:
        views = ring_views(ring)
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
        _end(pid, ready_r, free_w)


def csv_rows(iters: np.ndarray, columns) -> Iterator[str]:
    """The CSV rows of a trace's recorded iterations and its four float
    columns: each float in its shortest round-trip form, each row ended by
    ``\\r\\n``, the text ``csv.writer`` gives for these cells, none of
    which needs quoting."""
    return (f"{t},{fv!r},{g!r},{a!r},{cf!r}\r\n"
            for t, fv, g, a, cf in zip(iters.tolist(), *(a.tolist() for a in columns)))


class RowWriter:
    """A single run's trace rows, formatted by a forked child while it steps.

    The run takes its ``(4, rows, 1)`` record array from :meth:`open`,
    calls :meth:`report` with its count of records every ``REPORT_ROWS``
    and :meth:`close` with the final count, however it ends. The child
    formats the rows the run reports, ``REPORT_ROWS`` at a time, into a
    memfd. At :meth:`close` the parent leaves the child about half of the
    rows it has not formatted yet, and :meth:`copy` formats the other half
    while the child finishes, then writes the child's text and its own.
    Used as a context manager: on exit the child is killed and reaped and
    the shared memory and memfd are released, however the caller stopped.
    """

    pid = rows = split = _done = _text = _report_w = _up = None

    def open(self, ts: np.ndarray) -> np.ndarray | None:
        """The record array of a run that records iterations ``ts``, in
        shared memory, with a child forked to format its rows; None, with
        nothing forked, for a trace too short or too long to pay for the
        child, where :func:`can_fork` does not hold or where the system
        refuses the memory, memfd, pipe or process."""
        if not (ROWS_MIN <= ts.size <= ROWS_MAX and can_fork()):
            return None
        try:
            self._text = os.memfd_create("clipbench-trace-rows")
        except OSError:
            return None
        spawned = _spawn(32 * ts.size + 8, lambda *ends: self._format(ts, *ends))
        if spawned is None:
            os.close(self._text)
            return None
        self.pid, shared, self._report_w, self._up = spawned
        # the count of rows the child has formatted, after the records
        self._done = np.ndarray((), np.int64, shared, 32 * ts.size)
        return np.ndarray((4, ts.size, 1), buffer=shared)

    def _format(self, ts: np.ndarray, shared, report_r: int, up: int) -> None:
        # the child's loop. Each report is 8 bytes, written whole, and the
        # last one read is the count to format up to; end of file follows
        # the final one. Between blocks the child takes the reports that
        # have come without waiting, and it waits only when it has formatted
        # every row reported. Its "+" up tells that the memfd holds them
        records = np.ndarray((4, ts.size, 1), buffer=shared)
        self._done = np.ndarray((), np.int64, shared, 32 * ts.size)
        start = target = 0
        ended = False
        with open(self._text, "w", newline="", closefd=False) as text:
            while not ended or start < target:
                if not ended:
                    os.set_blocking(report_r, start >= target)
                    try:
                        data = os.read(report_r, 1 << 16)
                    except BlockingIOError:
                        data = None
                    if data:
                        target = int.from_bytes(data[-8:], "little")
                    ended = data == b""
                stop = min(target, start + REPORT_ROWS)
                if start < stop:
                    text.writelines(csv_rows(ts[start:stop], records[:, start:stop, 0]))
                    self._done[()] = start = stop
        os.write(up, b"+")

    def report(self, k: int) -> int:
        """Tell the child that ``k`` records are written; returns the count
        to report next."""
        try:
            os.write(self._report_w, k.to_bytes(8, "little"))
        except BrokenPipeError:
            pass  # a child that failed; copy leaves the rows to the caller
        return k + REPORT_ROWS

    def close(self, k: int) -> None:
        """End the reports at the run's final count ``k`` of records: the
        child formats about half of the rows it has not yet formatted, and
        past its block in progress; :meth:`copy` formats the rest."""
        done = int(self._done)
        self.rows = k
        self.split = min(k, max(done + REPORT_ROWS, (done + k) // 2))
        self.report(self.split)
        os.close(self._report_w)
        self._report_w = None

    def copy(self, out, iters: np.ndarray, columns) -> bool:
        """Append to the open file ``out`` the rows ``csv_rows(iters,
        columns)`` of the run's trace: the child's, then those it left.
        False, with nothing written, where the child did not format its
        share of this trace."""
        if self.pid is None or iters.size != self.rows:
            return False
        # formatted while the child finishes; it may have gone past the split
        split = self.split
        rows = list(csv_rows(iters[split:], [a[split:] for a in columns]))
        # a child that failed or was killed sends no "+"
        if os.read(self._up, 1) != b"+":
            return False
        out.flush()
        size, sent = os.fstat(self._text).st_size, 0
        while sent < size:
            sent += os.sendfile(out.fileno(), self._text, sent, size - sent)
        out.writelines(rows[int(self._done) - split:])
        return True

    def __enter__(self) -> "RowWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self.pid is not None:
            _end(self.pid, self._report_w, self._up, self._text)
        # the shared memory is unmapped with its last view, which a
        # traceback through the run may still hold
        self.pid = self._done = None
