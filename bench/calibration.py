"""Calibration of the benchmark's times against a fixed reference kernel.

On a shared host the same pass runs up to half again as slow in phases
that last from a second to minutes, some longer than a run, while
`time.process_time()` keeps pace with the wall clock (the time is not
stolen; the core itself is slower).  So every pass also times a fixed
kernel of the benchmark's own pure Python (tuple keys in a dict, a set
and a sort, the kind of work the program does), once per INTERVAL_S of
work, between the items it times.  Every time the pass measures is
multiplied by the scale NOMINAL_S / m, where m is the median of the
NEAREST kernel times taken closest to it: the slow phases come and go
within a pass, so the kernel runs nearest in time track them best.

Calibrated seconds are seconds on a host where the kernel takes
NOMINAL_S, which is about its median on the Intel Xeon (2.1 GHz, 2
vCPUs) the benchmark was written on.  The kernel is not program code, so
a change to the program moves the calibrated times as it moves the plain
ones.
"""

import bisect
import contextlib
import statistics
import time

NOMINAL_S = 0.005
INTERVAL_S = 0.1
NEAREST = 3

_KEYS = [("k%d" % i, i % 13) for i in range(400)]


def kernel():
    total = 0
    for _ in range(20):
        counts = {}
        seen = set()
        for key in _KEYS:
            counts[key] = counts.get(key, 0) + 1
            if key[1] not in seen:
                seen.add(key[1])
        pairs = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        total += len(pairs) + len(seen)
    return total


def time_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(samples):
    """Factor that turns the seconds measured next to `samples` (kernel
    times) into calibrated seconds."""
    return NOMINAL_S / statistics.median(samples)


def scale_at(samples, at, nearest=NEAREST):
    """The scale of a time measured around the moment `at`, from the
    `nearest` of `samples` ((moment, kernel time) in time order) taken
    closest to it."""
    index = bisect.bisect(samples, (at,))
    low, high = index, index
    while high - low < min(nearest, len(samples)):
        if low > 0 and (high == len(samples)
                        or at - samples[low - 1][0] <= samples[high][0] - at):
            low -= 1
        else:
            high += 1
    return scale([seconds for _, seconds in samples[low:high]])


class Calibrator:
    """Times the kernel at most once per `interval` seconds, between the
    items of a pass, and keeps (moment, kernel time) samples.  `spent` is
    the time taken by the kernel, which the item or stage that ran it
    leaves out of its own time.  The kernel runs in a span of its own, so
    traced self times leave it out too."""

    def __init__(self, tracer, interval=INTERVAL_S):
        self.tracer = tracer
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._last = None

    def sample(self):
        start = time.perf_counter()
        with self.tracer.span("calibration", keep=False):
            seconds = time_kernel()
        self._last = time.perf_counter()
        self.samples.append((start + seconds / 2, seconds))
        self.spent += self._last - start

    def tick(self):
        if self._last is None or \
                time.perf_counter() - self._last >= self.interval:
            self.sample()

    @contextlib.contextmanager
    def ticking(self, hooks):
        """Rebind each (module, attribute) of `hooks` for the duration of
        the block so that a call to it first ticks, which samples the
        kernel inside items that make many such calls."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr in hooks]

        def ticked(function):
            def call(*args, **kwargs):
                self.tick()
                return function(*args, **kwargs)
            return call

        try:
            for module, attr, original in saved:
                setattr(module, attr, ticked(original))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
