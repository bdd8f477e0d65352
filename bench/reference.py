"""Fixed numpy/scipy/Python kernels that measure how fast the host runs right now.

The host this benchmark was built on switches between two speeds for
stretches of a fraction of a second to over half a minute: the same work
takes up to 1.8 times longer in the slow phase, in wall and in CPU time, on
either CPU.  Per-run medians of identical work spread by up to 28% across
runs, and the fastest operation of a run by up to 44%.  Timing a kernel just
before and just after each operation and dividing gives the operation's cost
in kernel units, which spread by under 8% over ten runs.

The phases do not slow all code alike, so each workload gets a kernel built
from the primitives its solver spends its time on, at its grid size: the
plane kernel exponentiates, stencils and sine-transforms 224 x 224 fields;
the torus kernel FFTs 32 x 32 fields and runs scalar bisection loops like the
constraint-root solve; the CLI kernel adds CSV formatting.  No kernel uses
csvortex code, so a change to the program moves the operation's time and not
the kernel's.
"""

from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
from scipy.fft import dstn, fftn, idstn, ifftn


class ReferenceKernel:
    def __init__(self, kind):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.box = [0.1 * rng.standard_normal((224, 224)) for _ in range(3)]
        self.cell = [0.1 * rng.standard_normal((32, 32)) for _ in range(2)]
        n = 224
        lam = np.sin(np.pi * (np.arange(n) + 1) / (2.0 * (n + 1))) ** 2
        self.eigs = 1.0 + lam[:, None] + lam[None, :]

    def _plane(self, reps):
        f, g, h = self.box
        acc = 0.0
        for _ in range(reps):
            a = np.exp(np.minimum(f + g, 50.0))
            b = np.exp(np.minimum(f - g, 50.0))
            s = a + b - 2.0
            p = np.pad(h, 1)
            lap = p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4.0 * h
            acc += float(np.sum(s * s + (a - b) ** 2 + lap * f))
            acc += float(idstn(dstn(s, type=1, norm="ortho") / self.eigs, type=1,
                               norm="ortho")[0, 0])
        return acc

    def _torus(self, reps):
        u, v = self.cell
        acc = 0.0
        for _ in range(reps):
            eu, ev = np.exp(u), np.exp(v)
            acc += float(np.sum(eu * eu) + np.sum(eu * ev) + np.sum(ev))
            acc += float(np.real(ifftn(fftn(u) * 2.0 + fftn(v)))[0, 0])
            lo, hi = 0.0, 3.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if math.log1p(mid) + math.sqrt(mid) < 1.2:
                    lo = mid
                else:
                    hi = mid
            acc += lo
        return acc

    def _csv(self, rows):
        writer = csv.writer(io.StringIO())
        vals = self.box[0].ravel()
        for i in range(rows):
            writer.writerow([repr(float(i)), repr(float(-i)), repr(float(vals[i]))])

    def _work(self):
        if self.kind == "plane":
            self._plane(12)
        elif self.kind == "torus":
            self._torus(400)
        else:
            self._plane(8)
            self._csv(6000)

    def measure(self):
        """(wall seconds, CPU seconds) of one pass of the kernel."""
        c0, t0 = time.process_time(), time.perf_counter()
        self._work()
        return time.perf_counter() - t0, time.process_time() - c0
