"""Host speed calibration: a fixed pure-Python probe sampled in-run.

The machines this benchmark runs on change speed by up to 2x within
seconds (shared hosts: the same code takes 9 ms in one second and
16 ms the next).  Raw host times are therefore reported in the
provenance, and the metrics scale them to a reference speed.

:class:`SpeedProbe` samples the machine while the measured code runs:
a ``SIGALRM`` interval timer fires every :data:`PERIOD_S` seconds and
its handler (in the main thread, between bytecodes; no extra thread or
process) times one short fixed probe (:meth:`SpeedProbe.probe`).  A
measured span of ``T`` host seconds during which the probes took
``p_i`` seconds does ``T * mean(1 / p_i)`` probe-units of work, which
is ``T * mean(REFERENCE_S / p_i)`` seconds at the reference speed.
The probes' own time is subtracted from ``T`` first.

The probe uses none of the simulator's code.  It does fixed amounts of
what the simulator leans on: interpreter work (a heap-ordered event
queue, generator resumption, dict traffic, small numpy operations) and
random reads from a 4 MiB buffer, which slow down, as the simulator
does, when other tenants of the machine contend for its shared cache
and memory.  Each tick first does the random reads once untimed, so
the timed probe reads lines that are already in the caches: what the
measured code evicted since the last tick does not change the timed
run, and the probe follows the host, not the measured program's
memory footprint.
"""

from __future__ import annotations

import heapq
import signal
from time import perf_counter

import numpy as np

__all__ = ["PERIOD_S", "REFERENCE_S", "SpeedProbe"]

#: seconds between probes
PERIOD_S = 0.05

#: probe time defining the reference speed: about what one probe takes
#: on a 2-vCPU cloud VM in its fast phase
REFERENCE_S = 0.0015

#: the probe's random reads: a buffer larger than a core's private
#: caches, so contention for the shared cache and memory shows
BUFFER_BYTES = 4 << 20
GATHERS = 32768

#: generators in the probe's event loop
_PROCS = 150

_ARR = np.arange(64, dtype=np.int64)


def _event_loop() -> int:
    """A tiny discrete-event loop: :data:`_PROCS` generators each woken
    4 times."""

    def proc(i):
        total = 0
        for k in range(4):
            total += yield (i * 7 + k * 13) % 97 + 1
        return total

    heap: list = []
    procs = {}
    seq = 0
    for i in range(_PROCS):
        p = proc(i)
        procs[i] = p
        heapq.heappush(heap, (next(p), seq, i))
        seq += 1
    done = 0
    arr = _ARR
    while heap:
        t, _, i = heapq.heappop(heap)
        if seq % 16 == 0:
            arr = np.cumsum(arr[::-1] % 1009)
        try:
            delay = procs[i].send(t)
        except StopIteration as stop:
            done += stop.value
            del procs[i]
            continue
        heapq.heappush(heap, (t + delay, seq, i))
        seq += 1
    return done + int(arr[-1])


class SpeedProbe:
    """Context manager sampling host speed while its body runs.

    ``measure(fn)`` runs ``fn`` and reports the probes' time and the
    speed factor over that span; ``overhead_s`` is the probes' time
    since the probe was entered.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._old = None
        rng = np.random.default_rng(0)
        self._buf = rng.integers(0, 1 << 40, size=BUFFER_BYTES // 8)
        self._idx = rng.integers(0, self._buf.size, size=GATHERS)

    def _gather(self) -> int:
        return int(self._buf[self._idx].sum())

    def probe(self) -> int:
        """The fixed probe work: the event loop, then random reads."""
        return _event_loop() + self._gather()

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._gather()
        t1 = perf_counter()
        self.probe()
        self.samples.append(perf_counter() - t1)
        self.overhead_s += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        # one probe up front, so even a span shorter than a period is
        # scaled by a sample of its own
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def speed(self) -> float:
        """Mean speed factor (reference seconds per host second) so far."""
        return sum(REFERENCE_S / p for p in self.samples) / len(self.samples)

    def measure(self, fn):
        """Run ``fn``; returns ``(result, probe_overhead_s, speed)`` where
        ``speed`` is the mean speed factor of the probes taken meanwhile
        (the last earlier probe if none fired)."""
        n0, o0 = len(self.samples), self.overhead_s
        out = fn()
        samples = self.samples[n0:] or self.samples[-1:]
        speed = sum(REFERENCE_S / p for p in samples) / len(samples)
        return out, self.overhead_s - o0, speed
