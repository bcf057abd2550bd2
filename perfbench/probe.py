"""Host-speed probe: converts a model-mode run's wall time to reference time.

On a shared host the processor runs the same repetition at very different
speeds (1.1 s to 2.2 s of wall time for the same simulation, CPU time
tracking wall time), and the slow stretches last from under a second to
minutes, longer than one benchmark run.  Medians over repetitions cannot
remove that.  The probe measures the host's speed while the program runs
instead: every ``PERIOD_S`` of wall time a ``SIGALRM`` handler runs one
fixed round of pure-Python work (a heap of small objects, random access
over a pool of objects and a dict, keyword calls and tuple building) and
times it.  The mean round time over the run is the host's speed during
the run, in the same interpreter and on the same core as the program.

The program's time is then reported at reference speed::

    reference_s = (wall_s - probe_s) * REFERENCE_ROUND_S / mean_round_s

i.e. the seconds the run would take on a host where one round takes
``REFERENCE_ROUND_S``.  A change to the program moves ``wall_s`` and
leaves the rounds alone, so it shows in full; a slower host moves both.
The probe takes ~4% of the run's wall time, which ``probe_s`` removes.

Only model-mode runs use it: a deploy run lasts its configured wall time
whatever the host speed, and the handler would take time from its event
loop.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

#: Wall seconds between two probe rounds.
PERIOD_S = 0.005
#: Round time of the reference host; reference seconds are seconds there.
REFERENCE_ROUND_S = 200e-6


class _Event:
    __slots__ = ("at", "key", "payload")

    def __init__(self, at, key, payload):
        self.at = at
        self.key = key
        self.payload = payload

    def __lt__(self, other):
        return self.at < other.at


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a):
        self.a = a
        self.b = a * 2
        self.c = None


def _call(x, y=1, *, z=2):
    return (x, y, z)


class HostProbe:
    """Times one fixed round of work every ``PERIOD_S`` between start and stop."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._pool = [_Cell(i) for i in range(8192)]
        self._index = [rng.randrange(len(self._pool)) for _ in range(4096)]
        self._keys = [f"k{rng.randrange(8192)}" for _ in range(4096)]
        self._table = {f"k{i}": i for i in range(8192)}
        self.total_s = 0.0
        self.rounds = 0
        self._busy = False

    def _round(self) -> None:
        heap = [_Event(i * 0.1, i, None) for i in range(32)]
        counts = {}
        x = 12345
        for i in range(35):
            event = heapq.heappop(heap)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            counts[event.key] = counts.get(event.key, 0) + 1
            heapq.heappush(heap, _Event(event.at + (x % 1000) * 1e-4, x % 97, (event.key, i)))
        acc = 0
        pool, index, keys, table = self._pool, self._index, self._keys, self._table
        for i in range(60):
            cell = pool[index[i & 4095]]
            acc += cell.b + table.get(keys[(i * 7) & 4095], 0)
            cell.c = (acc, i)
        made = {}
        for i in range(270):
            made_tuple = _call(i, y=i, z=3)
            if isinstance(made_tuple, tuple):
                made[i & 63] = made_tuple

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # an alarm during a stalled round: skip, do not nest
            return
        self._busy = True
        started = time.perf_counter()
        self._round()
        self.total_s += time.perf_counter() - started
        self.rounds += 1
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def mean_round_s(self) -> float:
        return self.total_s / self.rounds

    def reference_s(self, wall_s: float) -> float:
        """``wall_s`` (probe time included) as program seconds at reference speed."""
        return (wall_s - self.total_s) * REFERENCE_ROUND_S / self.mean_round_s
