"""A fixed reference workload that measures how fast the machine runs right now.

The benchmark was written on a shared virtual machine whose other guests
slow this process down, often to two thirds of its speed and at times to a
third, for seconds or minutes at a time; that shows in CPU time as well as
wall time. The harness therefore runs ``chunk`` between pieces of
the program's work, in proportion to the time that work took, and divides
each measured time by the speed factor the chunks show at that moment (see
``Meter``). The chunk is pure Python of the same kind as the simulator's
inner loops: attributes of small objects, dict lookups keyed by integer
addresses, float math and a best-of scan. It tracked the program's
slowdowns better than a variant that walks a working set of megabytes.
It never changes, so it reads the same on the same machine state whatever
the program does.
"""

from __future__ import annotations

import math
import time

clock = time.process_time

#: CPU seconds one chunk takes on an undisturbed core of the reference
#: machine: the fastest it ran on a 2-vCPU Intel Xeon shared VM under
#: CPython 3.11.7. ``Meter.take`` measures against it.
CHUNK_S = 0.0013

#: Chunks run per second of program work timed.
CHUNKS_PER_S = 40


class _Counts:
    __slots__ = ("good", "bad")

    def __init__(self, good: float, bad: float) -> None:
        self.good, self.bad = good, bad

    def mean(self) -> float:
        return (self.good + 1.0) / (self.good + self.bad + 2.0)


_TABLE = {addr: _Counts(0.0, 0.0) for addr in range(48)}
_STEPS = (1, 3, 7, 11, 17)


def chunk() -> float:
    """One unit of reference work; returns a checksum so nothing is optimised away.

    It creates no object the cyclic garbage collector tracks (only floats),
    so it leaves the collector's allocation count, and with it when the
    program's collections run, as it found them.
    """
    acc = 0.0
    table = _TABLE
    for r in range(16):
        for addr in range(48):
            c = table[addr]
            c.good, c.bad = float((addr * 7 + r) % 13), float((addr * 5 + r) % 11)
        for addr in range(48):
            best = table[addr]
            best_score = low = -1.0
            for step in _STEPS:
                peer = table[(addr + step) % 48]
                score = peer.mean() * math.exp(-0.1 * peer.bad) + math.sqrt(peer.good + 1.0)
                if score > best_score:
                    best, best_score = peer, score
                if low < 0.0 or score < low:
                    low = score
            best.good += 1.0
            acc += math.log1p(low) + best.mean()
    return acc


class Meter:
    """Interleaves reference chunks with the program's work and scales its times by them.

    Call ``after(work_s)`` once a piece of work of ``work_s`` CPU seconds is
    done: it runs that work's share of chunks (a fraction is carried over to
    the next piece) and returns the CPU seconds it spent, for the caller to
    leave out of its own timings. ``take()`` returns how much slower than
    the reference machine the chunks ran since the previous ``take()``;
    dividing the work's CPU seconds by it gives reference seconds.
    ``chunks`` and ``chunk_s`` count every chunk so far.
    """

    def __init__(self) -> None:
        self.chunks = 0
        self.chunk_s = 0.0
        self._owed = 0.0
        self._taken = (0, 0.0)

    def after(self, work_s: float) -> float:
        self._owed += work_s * CHUNKS_PER_S
        start = clock()
        while self._owed >= 1.0:
            chunk()
            self._owed -= 1.0
            self.chunks += 1
        spent = clock() - start
        self.chunk_s += spent
        return spent

    def take(self) -> float:
        if self.chunks == self._taken[0]:  # too little work to owe a chunk yet: run one ahead
            self._owed -= 1.0
            start = clock()
            chunk()
            self.chunk_s += clock() - start
            self.chunks += 1
        chunks, chunk_s = self.chunks - self._taken[0], self.chunk_s - self._taken[1]
        self._taken = (self.chunks, self.chunk_s)
        return chunk_s / (chunks * CHUNK_S)
