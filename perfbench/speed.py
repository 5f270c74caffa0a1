"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of one core drifts by up to 1.75x
over tens of seconds, as neighbours load the host.  A fixed loop timed
just before and just after an operation measures the speed the operation
ran at; its time is then scaled to ``REFERENCE_S``, the loop's time on an
unloaded core.  The loop is the benchmark's own code, so a change to the
package never changes it.  Import this module only after
``env.pin_blas_threads`` has run.
"""

import time

import numpy as np

# seconds the loop takes on an unloaded core of the 2-core x86_64 VM the
# benchmark was sized on (Python 3.11, numpy 2.4); only a unit, it cancels
# when two commits are compared on one machine
REFERENCE_S = 0.15
_ITERATIONS = 60000


def loop_seconds():
    """Wall time of a fixed mix of Python-level work and small numpy products."""
    a = np.arange(96.0).reshape(6, 16) / 96.0
    b = a.T.copy()
    acc = 0.0
    seen = {}
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        c = a @ b
        acc += float(c[0, 0]) + sum(k * k for k in range(20))
        seen[i % 97] = acc
    return time.perf_counter() - start


class Calibrated:
    """Wall times of successive calls, scaled to reference speed.

    The loop runs once at creation and again after every call; a call's
    speed is the mean of the loops on either side of it.
    """

    def __init__(self):
        self.loops = [loop_seconds()]
        self.raw = []
        self.scaled = []

    def add(self, wall):
        """Record a call that has just taken ``wall`` seconds."""
        self.loops.append(loop_seconds())
        self.raw.append(wall)
        self.scaled.append(wall * REFERENCE_S / (0.5 * (self.loops[-2] + self.loops[-1])))
