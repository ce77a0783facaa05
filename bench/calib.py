"""Host-speed calibration: what lets a 20 s run repeat on a shared VM.

The VM this benchmark was written on slows down and speeds up by 20-40 %
for tens of seconds at a time (neighbours on the host: no steal time is
reported, but cache- and memory-bound code suffers most), and a run is too
short to average that out: ten same-code runs of ``read_hot`` spread
their median latency by 12-34 % (interquartile distance over median),
more than any bound the driver accepts.  The slow spells hit all
interpreter-bound work alike, though: a fixed reference loop — JSON,
dict, CRC and struct work over a few MB of objects, the same diet as the
file service — run between operations tracked them so closely that
latency divided by the loop's duration spread by only 4 % (``read_hot``)
and 7 % (``commit_durable``) over the same runs.

So the load generator runs that loop about every 40 ms throughout a run
(under 2 % of the time), and every reported *time* is divided by the
host's **slowness** when it was measured: the median loop duration
around then over :data:`REFERENCE_S`, what the loop takes on this VM when
nothing disturbs it.  Units stay seconds and milliseconds: "on a host at
the reference speed".  The raw values and the slowness are printed beside
the normalised ones and stored by ``--out``.

The slow spells are short — one to three seconds at 1.5-2x, several in a
run — so one slowness for a whole phase is not enough: a percentile above
the median then falls among the operations of the slow spells whenever
those cover more than its share of the run, and reads 40 % higher than in
a run where they cover less.  Each operation is therefore divided by the
slowness of the half second around it (:meth:`Calibrator.slowness_at`),
and elapsed and CPU time are normalised step by step
(:meth:`Calibrator.normalised`).  Over five ten-run sets of ``read_hot``,
both ways computed from the same raw samples, that took the spread of p90
from 13-26 % to 8-16 % and of p95 from 11-27 % to 10-16 %; narrower and
wider windows (0.06-0.5 s either side) made no difference.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import struct
import threading
import time
import zlib

REFERENCE_S = 0.0006
INTERVAL_S = 0.04
MIN_SAMPLES = 5
# slowness_at(): the median over this long either side of the moment,
# recomputed every STEP_S.
HALF_WINDOW_S = 0.25
STEP_S = 0.1


class Calibrator:
    """Runs the reference loop and answers how slow the host was when."""

    def __init__(self) -> None:
        rng = random.Random(1985)
        self._objects = [
            {f"k{i}": [rng.random(), "x" * 40, i, {"a": i, "b": bytes(64)}] for i in range(20)}
            for _ in range(3000)
        ]
        self._blob = rng.randbytes(4096)
        self._at = 0
        self._due = 0.0
        self._lock = threading.Lock()
        self.times: list[float] = []  # when each sample ended ...
        self.durations: list[float] = []  # ... and how long it took
        # Read at every sample while set (the daemon's CPU seconds): what
        # normalised() weighs slice by slice.
        self.probe = None
        self.probed: list[tuple[float, float]] = []  # (when, probe())
        self._local: dict[int, float] = {}

    def sample(self) -> float:
        """Run the reference loop once and record its duration; returns
        the seconds spent."""
        objects, blob = self._objects, self._blob
        start = time.perf_counter()
        for _ in range(12):
            self._at = (self._at + 257) % len(objects)
            entry = objects[self._at]
            json.loads(json.dumps({key: value[:3] for key, value in entry.items()}))
            zlib.crc32(blob)
            struct.pack(">IIQ", 1, 2, 3)
            copy = dict(entry)
            copy.pop("k3")
            sorted(copy)
        end = time.perf_counter()
        self.times.append(end)
        self.durations.append(end - start)
        if self.probe is not None:
            self.probed.append((end, self.probe()))
            end = time.perf_counter()
        self._due = end + INTERVAL_S
        return end - start

    def tick(self) -> float:
        """Sample if one is due and no other thread is sampling; returns
        the seconds spent (0.0 when nothing ran)."""
        if time.perf_counter() < self._due or not self._lock.acquire(blocking=False):
            return 0.0
        try:
            return self.sample()
        finally:
            self._lock.release()

    def burst(self, count: int = 5) -> None:
        """Several samples in a row: brackets one long step (a set-up, a
        restart) that has no operations to sample between."""
        with self._lock:
            for _ in range(count):
                self.sample()

    def slowness(self, start: float, end: float) -> float:
        """Median sample duration within ``[start, end]`` over the
        reference; an interval holding fewer than :data:`MIN_SAMPLES`
        (a 20 ms pass of cold reads) is widened to its nearest ones."""
        if not self.durations:
            return 1.0
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        while high - low < min(MIN_SAMPLES, len(self.times)):
            before = start - self.times[low - 1] if low > 0 else float("inf")
            after = self.times[high] - end if high < len(self.times) else float("inf")
            if before <= after:
                low -= 1
            else:
                high += 1
        return statistics.median(self.durations[low:high]) / REFERENCE_S

    def slowness_at(self, moment: float) -> float:
        """The host's slowness around ``moment`` (call when sampling is
        over: answers are kept per :data:`STEP_S`)."""
        step = int(moment / STEP_S)
        if step not in self._local:
            centre = (step + 0.5) * STEP_S
            self._local[step] = self.slowness(centre - HALF_WINDOW_S, centre + HALF_WINDOW_S)
        return self._local[step]

    def normalised(self, readings: list[tuple[float, float]]) -> float:
        """The growth of a quantity read as ``(when, value)`` — elapsed or
        CPU seconds — with each step divided by the slowness at its end."""
        return sum(
            (value - before) / self.slowness_at(when)
            for (_, before), (when, value) in zip(readings, readings[1:])
        )

    def normalised_seconds(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed."""
        steps = max(1, round((end - start) / STEP_S))
        marks = [start + (end - start) * i / steps for i in range(steps + 1)]
        return self.normalised([(mark, mark) for mark in marks])
