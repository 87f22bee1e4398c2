"""A fixed reference task that gauges how fast the machine runs Python now.

On a shared virtual machine the CPU time of the same call moves by 15% and
more from one minute to the next, with the load that other tenants put on
the host (shared caches and memory bandwidth, a busier hypervisor).  The
medians of one run cannot remove a slowdown that lasts the whole run, so
the benchmark also times a fixed reference task between its calls: pure
Python of the kinds lrbasis runs (products of sparse polynomials keyed by
tuple monomials, a fraction-free integer determinant, a recursive tableau
count), none of it from the package.  Every call's CPU time is scaled by
REFERENCE_S over the reference task's time during that call, which gives
the call's CPU time at the speed the machine had when REFERENCE_S was
measured.  The task and REFERENCE_S are part of the benchmark, so two
versions of lrbasis measured with the same benchmark are scaled alike.
"""

import signal
import statistics
import time

import independent as ind

# CPU time of one reference_task() on a 2-core Xeon virtual machine
# (Python 3.11), rounded from the median sample of the benchmark's runs
# there (0.74 to 0.84 ms).  Any fixed value serves; this one keeps the
# scale near 1 on that machine.
REFERENCE_S = 0.00080
SAMPLE_RUNS = 9            # reference tasks per sample; the sample is their median
SAMPLE_EVERY_S = 0.25      # CPU time of calls between samples
SAMPLE_WINDOW = 3          # samples a short call is scaled by: the latest ones

_POLY = {tuple((v, 1) for v in range(k, k + 2)): 2 * k - 5 for k in range(6)}
_POLY[()] = 7
_MATRIX = [[(3 * i * i + 5 * j + i * j) % 17 - 8 for j in range(7)] for i in range(7)]


def _poly_power(p, n):
    acc = {(): 1}
    for _ in range(n):
        out = {}
        for m1, c1 in acc.items():
            for m2, c2 in p.items():
                d = dict(m1)
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                m = tuple(sorted(d.items()))
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        acc = out
    return acc


def _bareiss(rows):
    a = [r[:] for r in rows]
    n, prev, sign = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def reference_task():
    """A fixed piece of pure-Python work of about 0.8 ms."""
    p = _poly_power(_POLY, 3)
    m = [[c * (len(p) + i) for c in r] for i, r in enumerate(_MATRIX)]
    return len(p), _bareiss(m), ind.lr_count((2, 1), (2, 1, 1), (3, 3, 1, 1))


class SpeedClock:
    """CPU time of calls, scaled to the machine speed of REFERENCE_S.

    CPU time is the main thread's (`time.thread_time`): while a profiling
    timer is armed, Linux reads the whole process's CPU clock only as often
    as its scheduler tick, so `time.process_time` would stop resolving calls
    shorter than that.  The workload process runs lrbasis on this one
    thread.

    After every SAMPLE_EVERY_S of CPU time spent in calls the clock takes a
    sample: SAMPLE_RUNS reference tasks, of which it keeps the median.  A
    sample falls between two calls, or, in a call longer than that, comes
    from a profiling timer that interrupts the call; the samples' own CPU
    time is taken out of the call's.  A call during which samples were
    taken is scaled by their mean, a shorter one by the median of the
    latest SAMPLE_WINDOW samples.  Checks between calls are not counted
    and never interrupted.
    """

    def __init__(self):
        self.samples = []
        self.sample_s = 0.0        # CPU time spent in samples
        self.since = 0.0           # CPU time of calls since the last sample
        self.raw_s = 0.0           # CPU time of every measured call, unscaled
        self.scaled_s = 0.0
        self.sample()
        signal.signal(signal.SIGPROF, self._on_timer)

    def sample(self):
        t0 = time.thread_time()
        times = []
        for _ in range(SAMPLE_RUNS):
            t = time.thread_time()
            reference_task()
            times.append(time.thread_time() - t)
        self.samples.append(statistics.median(times))
        self.sample_s += time.thread_time() - t0
        self.since = 0.0

    def _on_timer(self, signum, frame):
        self.sample()
        self._mark = time.thread_time()

    def start(self):
        """Start timing a call, after a sample between calls if one is due.

        The timer is armed for the rest of the interval, so it interrupts
        only calls that run past it.  It cannot pace short calls: it
        measures the process's CPU time only to the scheduler tick.
        """
        if self.since >= SAMPLE_EVERY_S:
            self.sample()
        self._first = len(self.samples)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S - self.since, SAMPLE_EVERY_S)
        self._t0 = self._mark = time.thread_time()
        self._sample_s0 = self.sample_s

    def stop(self):
        """Scaled CPU time of the call since start()."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        t1 = time.thread_time()
        raw = t1 - self._t0 - (self.sample_s - self._sample_s0)
        during = self.samples[self._first:]
        if during:
            self.since = t1 - self._mark
            speed = statistics.fmean(during)
        else:
            self.since += raw
            speed = statistics.median(self.samples[-SAMPLE_WINDOW:])
        scaled = raw * REFERENCE_S / speed
        self.raw_s += raw
        self.scaled_s += scaled
        return scaled

    def measure(self, fn):
        """(fn(), its scaled CPU time)."""
        self.start()
        try:
            result = fn()
        finally:
            dt = self.stop()
        return result, dt

    def factor(self):
        """Mean scale applied: scaled time over raw time."""
        return self.scaled_s / self.raw_s if self.raw_s else 1.0
