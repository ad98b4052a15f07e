"""Host-speed correction: a fixed reference computation timed alongside every timed call.

The benchmark runs on a few cores of a shared host, and the speed of one core
drifts by 15-25% from one second to the next, whatever runs on it.  Timed
alone, the same round of library calls reads 7 s in one run and 9.5 s in the
next.  So the speed of the core is sampled while each call runs, with a
reference computation that does not touch the library: interpreter work,
numpy gathers, and an expectation step of the form the solver spends its
time in, over arrays of the benchmark's largest state space.  A
probe runs just before and just after the call, and a timer interrupts the
call every ``TICK_S`` to run one more reference pass.  A call's corrected
time is

    (raw time - time in the interrupts) x REFERENCE_S / (trimmed mean reference pass time)

that is, the time the call would take on a host where one reference pass
takes ``REFERENCE_S``.  A change to the library moves the corrected time as
much as it moves the raw time, because the reference does not change; a
change in host speed moves both the call and the reference, and cancels.
The raw times are kept next to the corrected ones and printed by the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Nominal time of one reference pass: roughly its median on one core of a
# shared 2.1 GHz Xeon VM.  It only sets the scale of the corrected figures.
REFERENCE_S = 0.006
# Passes per probe; the probe reads their median.
PROBE_PASSES = 3
# Interval of the reference passes run inside a call (SIGALRM, wall clock).
TICK_S = 0.1

# Seconds spent in the interrupts so far, over all clocks.
_interrupted_s = 0.0

_REF_N = 24_025
_rng = np.random.default_rng(0)
_REF_IDX = _rng.integers(0, _REF_N, size=(2, _REF_N))
_REF_VAL = _rng.random(_REF_N)
_REF_VALUES = _rng.random((3, _REF_N))
_REF_TARGETS = _rng.integers(0, _REF_N, size=(_REF_N, 5))
_REF_ROWS = _rng.random((_REF_N, 5))


def reference_pass() -> float:
    """A fixed computation in three parts of about equal time.

    An interpreter loop, numpy gathers within one array of 24 025 entries,
    and one expectation step of three value rows over 5 successors of
    24 025 states: the form of the step ``policy_evaluate`` spends its time
    in (``SystemModel.ev_idle``), on random targets.
    """
    s = 0
    for i in range(8_000):
        s += (i * 7) % 13 if i & 1 else min(i, 3)
    v = _REF_VAL
    for _ in range(3):
        w = np.where(v > 0.5, v[_REF_IDX[0]], v[_REF_IDX[1]]) + 0.1
        v = w - w.min()
        v /= v.max()
    e = np.einsum("rsk,sk->rs", _REF_VALUES[:, _REF_TARGETS], _REF_ROWS)
    return s + float(v[0] + e[0, 0])


def _pass_s() -> float:
    t0 = time.perf_counter()
    reference_pass()
    return time.perf_counter() - t0


def work_clock() -> float:
    """``time.perf_counter()`` less the time spent in the interrupts so far.

    Spans timed with it leave out the reference passes run inside them.
    """
    return time.perf_counter() - _interrupted_s


def _trimmed_mean(samples) -> float:
    """Mean of the samples without their highest and lowest tenth.

    A pass that the scheduler interrupts reads several times too long, and
    it would weigh far more in the mean of 5-ms passes than the same
    interruption weighs in the call.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def probe() -> float:
    """The median time of ``PROBE_PASSES`` reference passes, in seconds."""
    return statistics.median(_pass_s() for _ in range(PROBE_PASSES))


class Clock:
    """Times calls, raw and corrected against the reference.

    Each outermost call appends ``(raw_s, corrected_s)`` to ``calls`` and
    its reference pass times to ``samples``; a call made inside a timed call
    is part of it and is not timed again.
    """

    def __init__(self):
        self.calls = []
        self.samples = []
        self._depth = 0
        self._samples = []
        self._tick_s = 0.0

    def _tick(self, signum, frame):
        global _interrupted_s
        t0 = time.perf_counter()
        self._samples.append(_pass_s())
        spent = time.perf_counter() - t0
        self._tick_s += spent
        _interrupted_s += spent

    def time(self, fn, *args, **kwargs):
        if self._depth:
            return fn(*args, **kwargs)
        self._samples, self._tick_s = [probe()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._depth += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            self._depth -= 1
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw -= self._tick_s
        self._samples.append(probe())
        self.calls.append((raw, raw * REFERENCE_S / _trimmed_mean(self._samples)))
        self.samples.append(self._samples)
        return result

    def wrap(self, fn):
        def timed(*args, **kwargs):
            return self.time(fn, *args, **kwargs)

        return timed

    @property
    def last_s(self) -> float:
        """Corrected seconds of the last call."""
        return self.calls[-1][1]

    def pooled(self, since: int = 0) -> list[tuple[float, float]]:
        """(raw, corrected) seconds of the calls from index ``since`` on, all
        corrected by the pooled reference passes of those calls.

        For a batch of short calls made one after another: a call of a few
        milliseconds has only its two probes, and their noise would be the
        noise of its corrected time.
        """
        pooled = [x for samples in self.samples[since:] for x in samples]
        factor = REFERENCE_S / _trimmed_mean(pooled)
        return [(raw, raw * factor) for raw, _ in self.calls[since:]]

    def totals(self, since: int = 0) -> tuple[float, float]:
        """Summed (raw, corrected) seconds of the calls from index ``since`` on."""
        calls = self.calls[since:]
        return sum(c[0] for c in calls), sum(c[1] for c in calls)
