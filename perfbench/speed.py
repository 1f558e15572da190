"""Machine-speed reference: a fixed pure-Python computation timed beside the work.

The benchmark shares its host with other jobs, and the speed of a core
swings by up to 2x over a few seconds as they come and go.  Every timed
sample is therefore reported at the reference speed:

    reported = measured * NOMINAL_ITER_S / (reference time per iteration)

where the reference time is taken by slices of about 1 ms: the median of
five right before and five right after a short sample (`Bracket`), or the
mean of one every SAMPLE_EVERY_S seconds during a long one (`Sampler`).
Next to a sample the median keeps one slice hit by a stall from setting
the scale.  Spread over a sample, the slices hit by a slowdown estimate
the share of the sample's time it took, which only the mean keeps: on
twelve cold `verify wide` processes on a shared 2-CPU host the quartile spread of the scaled
time was 3-4% with the mean, 9-12% with the median and 4-5% with a 10%
trimmed mean.  The garbage collector is off during a slice, so that a
collection over the package's heap is charged to the work, never to the
reference.  The reference does the kind of work the package does
(Fraction arithmetic, tuples, dict lookups) and never changes, so a change
to the package moves the reported time as it moves the measured one.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_ITER_S = 5e-6  # one iteration on an unloaded core of the calibration machine
SLICE_ITERS = 200  # about 1 ms
BRACKET_SLICES = 5
SAMPLE_EVERY_S = 0.1


def _reference(iters: int) -> Fraction:
    acc = Fraction(0)
    seen = {}
    for i in range(1, iters + 1):
        q = Fraction(i % 7 - 3, i % 5 + 1)
        acc += q * q - Fraction(1, i % 97 + 1)
        seen[(i % 31, i % 17)] = acc.numerator % 1009
    return acc + len(seen)


def iter_s(iters: int = SLICE_ITERS) -> float:
    """Seconds one reference iteration takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference(iters)
        return (time.perf_counter() - t0) / iters
    finally:
        if enabled:
            gc.enable()


def _slices() -> list:
    return [iter_s() for _ in range(BRACKET_SLICES)]


class Bracket:
    """Reference slices between consecutive samples.

    `scale()` takes fresh slices and returns the factor for the sample
    timed since the previous ones, from the median of the slices on both
    sides; the fresh slices then open the next sample.
    """

    def __init__(self):
        self.prev = _slices()

    def scale(self) -> float:
        now = _slices()
        factor = NOMINAL_ITER_S / statistics.median(self.prev + now)
        self.prev = now
        return factor


class Sampler:
    """Reference slices from a timer signal while a long sample runs.

    The slices run in the sampled process between bytecodes, so they see
    the machine as the work does; they add about 1% to the sample.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(iter_s())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def iter_s(self) -> float:
        """Mean reference iteration time over the samples, or median of slices now."""
        if self.samples:
            return statistics.fmean(self.samples)
        return statistics.median(_slices())
