"""Reference-speed scaling of CPU times on a host whose CPU speed drifts.

On a shared virtual machine the speed of a virtual CPU moves by up to 1.8
times over seconds to minutes, because other tenants share its physical core,
and the guest counts the lost speed as the process's own CPU time: CPU time
and wall time of a busy thread agree to the millisecond, and the same pass
of paper-mvfb took 24 s of CPU in one run and 43 s in another.  A fixed
reference kernel run on the same thread slows down with the program.  Kernel
runs on the other virtual CPU did not (correlation -0.05 with the job's
time), so the kernel runs on the mapping thread itself: a CPU-time timer
interrupts it every 10 ms, wherever it is.  Mapping two jobs over and over
for a minute on a 2-core host, with about 37 and 2 kernel runs inside each,
the spread of their CPU times (interquartile range over median) fell from
0.13 to 0.06 and from 0.26 to 0.10 once scaled.

A scaled time is ``cpu_seconds * REFERENCE_KERNEL_S / mean_kernel_seconds``:
the CPU time the work would take at the speed where the kernel takes
:data:`REFERENCE_KERNEL_S`.  The time of the kernel runs inside a timed
region is subtracted from it first.
"""

from __future__ import annotations

import bisect
import heapq
import mmap
import os
import signal
import struct
import time
from array import array

#: CPU seconds one kernel run takes at the reference speed, about its median
#: inside a job on a quiet 2-core host, so that scaled seconds read like CPU
#: seconds there.
REFERENCE_KERNEL_S = 0.00015

#: CPU seconds between kernel runs: a job of 30 ms gets about three.
SAMPLE_INTERVAL_S = 0.01

#: Kernel runs either side of a job that also count towards its speed, for
#: the short jobs that few runs fall in.
NEIGHBOUR_RUNS = 5

#: Untimed kernel runs first: the interpreter specialises the kernel's
#: bytecode over its first runs, which take up to twice as long.
WARMUP_RUNS = 20


def kernel() -> int:
    """Fixed work on ints, one dict and one heap.  It allocates no object the
    garbage collector has to walk, so its time does not depend on how large
    the program's heap is."""
    table: dict[int, int] = {}
    heap: list[int] = []
    for i in range(400):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, key)
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(table)


class SpeedSampler:
    """Kernel run times on the ``time.thread_time`` clock of this thread, the
    one that maps (with a CPU-time timer armed, the process clock only
    advances in 4 ms steps).

    Inside ``with sampler:`` a ``SIGPROF`` timer runs the kernel every
    :data:`SAMPLE_INTERVAL_S` of CPU time, wherever the thread is, so the
    runs sample the speed the program itself sees, cold caches included.
    :attr:`spent` is the CPU time spent in the kernel so far.
    """

    def __init__(self) -> None:
        self.started_at = array("d")
        self.took = array("d")
        self._previous_handler = None
        self._running = False
        started = time.thread_time()
        for _ in range(WARMUP_RUNS):
            kernel()
        self.spent = time.thread_time() - started

    def _on_timer(self, signum, frame) -> None:
        # After a long native call the next timer can fire inside this run.
        if self._running:
            return
        self._running = True
        started = time.thread_time()
        kernel()
        took = time.thread_time() - started
        self.started_at.append(started)
        self.took.append(took)
        self.spent += took
        self._running = False

    def __enter__(self) -> "SpeedSampler":
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler)

    def kernel_seconds(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]``, widened by the
        :data:`NEIGHBOUR_RUNS` runs either side of it."""
        low = max(0, bisect.bisect_left(self.started_at, start) - NEIGHBOUR_RUNS)
        high = bisect.bisect_right(self.started_at, end) + NEIGHBOUR_RUNS
        window = self.took[low:high]
        if not window:
            raise RuntimeError("no kernel runs to scale by; the sampler never ran")
        return sum(window) / len(window)

    def scale(self, cpu_seconds: float, start: float, end: float) -> float:
        """``cpu_seconds`` spent over ``[start, end]``, at the reference speed."""
        return cpu_seconds * REFERENCE_KERNEL_S / self.kernel_seconds(start, end)


#: One slot per process of a sampled service: pid, kernel runs, kernel seconds.
_SLOT = struct.Struct("=qqd")

#: Slots in a shared record: the server and the workers it forks.
SHARED_SLOTS = 16


class SharedRecord:
    """Kernel runs of several processes, in a memory-mapped file that the
    harness reads while they run."""

    def __init__(self, path: str) -> None:
        if not os.path.exists(path):
            with open(path, "wb") as out:
                out.write(bytes(_SLOT.size * SHARED_SLOTS))
        with open(path, "r+b") as handle:
            self._map = mmap.mmap(handle.fileno(), _SLOT.size * SHARED_SLOTS)

    def close(self) -> None:
        self._map.close()

    def write(self, slot: int, pid: int, runs: int, seconds: float) -> None:
        _SLOT.pack_into(self._map, _SLOT.size * slot, pid, runs, seconds)

    def read(self) -> dict[int, tuple[int, float]]:
        """Kernel runs and kernel seconds so far, per pid."""
        found = {}
        for slot in range(SHARED_SLOTS):
            pid, runs, seconds = _SLOT.unpack_from(self._map, _SLOT.size * slot)
            if pid:
                found[pid] = (runs, seconds)
        return found


def sample_into(path: str) -> None:
    """Run the kernel from a CPU-time timer in this process, and in every
    process it forks from now on, and keep each process's totals in the
    :class:`SharedRecord` at ``path``.  The kernel runs on whichever thread
    Python delivers signals to, the main one."""
    record = SharedRecord(path)
    state = {"slot": 0, "forks": 0, "runs": 0, "seconds": 0.0, "running": False}

    def on_timer(signum, frame) -> None:
        if state["running"]:
            return
        state["running"] = True
        started = time.thread_time()
        kernel()
        state["seconds"] += time.thread_time() - started
        state["runs"] += 1
        record.write(state["slot"], os.getpid(), state["runs"], state["seconds"])
        state["running"] = False

    def before_fork() -> None:
        state["forks"] += 1

    def in_child() -> None:
        # A forked child starts without the parent's timer.
        state.update(slot=min(state["forks"], SHARED_SLOTS - 1), runs=0, seconds=0.0)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    os.register_at_fork(before=before_fork, after_in_child=in_child)
    signal.signal(signal.SIGPROF, on_timer)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
