"""Host-speed calibration of the timed regions.

The benchmark runs on shared hosts whose speed drifts by tens of per cent
within minutes: the same round of `verify-n3` took 19 s in one run and 27 s
in another, and a pure-Python loop timed in 10 s windows moved by as much.
Raw wall times therefore compare the host at two moments more than the
program at two commits.

So every timed region is calibrated.  A fixed reference pass -- 256 products
in Q[t]/(Phi_5), done by the benchmark's own integer-polynomial code in
`checks.py`, never by the program -- is timed right before and right after
the region, and every PERIOD_S seconds inside it, from a timer signal.  The
host speed of a sample is REF_PASS_S / (its pass time), 1.0 at the reference
speed.  A region's calibrated time is its wall time, less the passes that
ran inside it, times the mean speed of its samples: the seconds the region
would have taken on a host where a pass takes REF_PASS_S.  A faster or
slower program moves it in full, because the reference pass does not run
program code.
"""

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

import checks

REF_PASS_S = 0.0085  # a typical pass on a 2-vCPU Xeon VM at 2.1 GHz
PERIOD_S = 0.2
PASS_PRODUCTS = 256

_rng = random.Random("calibration")


def _rational():
    return Fraction(_rng.choice([-1, 1]) * _rng.randint(1, 99),
                    _rng.randint(1, 30))


_PHI = checks.cyclotomic_poly(5)
_PAIRS = [([_rational() for _ in range(4)], [_rational() for _ in range(4)])
          for _ in range(PASS_PRODUCTS)]


class Region:
    """What one calibrated region measured."""

    def __init__(self):
        self.wall_s = 0.0  # wall time without the passes inside it
        self.speed = 0.0  # mean host speed of its samples
        self.samples = 0
        self.calibrated_s = 0.0


class Calibrator:
    def __init__(self):
        self.passes = []  # seconds per pass, in order
        self.inside_s = 0.0  # total time of the passes run from the timer
        self._pass()  # warm-up: the first pass in an interpreter is slow
        self.timed_pass = self._pass  # what the timer runs; a tracer may wrap it
        self._active = False

    def _pass(self):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for a, b in _PAIRS:
            checks.reference_mul(a, b, _PHI)
        secs = time.perf_counter() - start
        if enabled:
            gc.enable()
        return secs

    def _on_timer(self, signum, frame):
        if not self._active:
            return
        secs = self.timed_pass()
        self.passes.append(secs)
        self.inside_s += secs

    def start(self):
        self.passes.append(self._pass())
        self._first = len(self.passes) - 1
        self._inside0 = self.inside_s
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._active = True
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        self._active = False
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        region = Region()
        region.wall_s = end - self._start - (self.inside_s - self._inside0)
        self.passes.append(self._pass())
        speeds = [REF_PASS_S / s for s in self.passes[self._first:]]
        region.speed = statistics.fmean(speeds)
        region.samples = len(speeds)
        region.calibrated_s = region.wall_s * region.speed
        return region
