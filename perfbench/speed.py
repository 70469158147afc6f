"""A clock that runs at a fixed reference speed of the machine.

On a shared machine the speed of one core changes by up to 1.5x in phases
lasting seconds to minutes (the same numpy kernel, timed for a minute,
took from 0.55 s to 1.0 s), so raw times of runs made minutes apart are
not comparable.  ``ReferenceClock`` times a fixed probe kernel between
optimizer iterations, at most every ``INTERVAL_S`` seconds, and advances at
``PROBE_REF_S`` over the mean of the last ``WINDOW`` probe times, times
real time.  A span timed with it reads the seconds it would have taken on
a machine where the probe takes ``PROBE_REF_S``.  The probe's own time is
excluded.  The probe is fixed benchmark code, so changes to the program
do not change it.
"""

import collections
import time

import numpy as np

PROBE_REF_S = 0.010
PROBE_ITERS = 400
INTERVAL_S = 0.25
WINDOW = 3

_rng = np.random.default_rng(0)
_P = _rng.random(64)
_C = _rng.random((64, 10))
_M = _rng.random((10, 10))
_M = _M @ _M.T + 10.0 * np.eye(10)


def probe_seconds():
    """Time of the probe kernel: small numpy kernels plus interpreter work,
    the same mix the optimizers run."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(PROBE_ITERS):
        q = _P / _P.sum()
        e = q @ _C
        d = _C - e
        g = (d * q[:, None]).T @ d
        acc += float(np.linalg.solve(_M + g, e).sum())
        acc += sum(j * 0.5 for j in range(20))
    return time.perf_counter() - start


class ReferenceClock:
    def __init__(self):
        self.probes = []
        self._recent = collections.deque(maxlen=WINDOW)
        self._virtual = 0.0
        self._real = time.perf_counter()
        self._rate = 1.0
        for _ in range(WINDOW):
            self.probe()

    def __call__(self):
        return self._virtual + (time.perf_counter() - self._real) * self._rate

    def probe(self):
        virtual = self()
        seconds = probe_seconds()
        self.probes.append(seconds)
        self._recent.append(seconds)
        self._rate = PROBE_REF_S * len(self._recent) / sum(self._recent)
        self._virtual = virtual
        self._real = time.perf_counter()

    def maybe_probe(self):
        if time.perf_counter() - self._real >= INTERVAL_S:
            self.probe()

    def install(self):
        """Probe between optimizer iterations (each one records a trace row)."""
        from dualnewton import optimizers

        record = optimizers.OptimizerTrace.record
        clock = self

        def probed_record(trace, *args, **kwargs):
            clock.maybe_probe()
            return record(trace, *args, **kwargs)

        self._restore = (optimizers.OptimizerTrace, record)
        optimizers.OptimizerTrace.record = probed_record
        return self

    def uninstall(self):
        cls, record = self._restore
        cls.record = record
