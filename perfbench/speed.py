"""The host-speed reference that every end-to-end timing is scaled by.

On the shared 2-vCPU host this benchmark was built on, the same CPU-bound
code runs up to 1.5x slower for stretches of a few seconds to over a
minute, as neighbours load the machine; raw wall times of identical runs
spread by about 20 %.  So while a child works, the parent, pinned to the
same CPU, runs a short stdlib-only kernel (Fraction products into a dict,
like the program's inner loops) every SAMPLE_S seconds and records its CPU
time.  A timed interval is then reported as

    (wall - parent CPU time inside it) * REFERENCE_S / (mean kernel time near it)

that is, in seconds at the speed where the kernel takes REFERENCE_S; "near"
means within SAMPLE_S of the interval, or the MIN_NEAR samples closest to it
if fewer lie there.  The kernel is benchmark code, so a change to loomfold
cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the kernel's CPU time on the reference host (2.1 GHz x86-64 VM,
# Python 3.11) when no neighbour slows it down
REFERENCE_S = 0.013
SAMPLE_S = 0.5
# a short interval is scaled by at least this many samples, the nearest in
# time, so that one noisy kernel run cannot set its scale alone
MIN_NEAR = 4

_OPERANDS = [Fraction(i % 7 - 3, 1 + i % 5) for i in range(12)]


def _kernel() -> None:
    acc: dict = {}
    for _ in range(35):
        for i, x in enumerate(_OPERANDS):
            for j, y in enumerate(_OPERANDS):
                k = (i + j) % 9
                acc[k] = acc.get(k, 0) + x * y


class Sampler:
    def __init__(self):
        # (wall start, wall end, kernel CPU seconds)
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        _kernel()
        self.samples.append((w0, time.perf_counter(), time.thread_time() - c0))

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] (perf_counter seconds, any process) in
        reference seconds."""
        inside = [s for s in self.samples if s[0] >= t0 and s[1] <= t1]
        wall = t1 - t0 - sum(s[2] for s in inside)
        near = [s for s in self.samples if s[1] >= t0 - SAMPLE_S and s[0] <= t1 + SAMPLE_S]
        if len(near) < MIN_NEAR:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda s: abs((s[0] + s[1]) / 2 - mid))[:MIN_NEAR]
        return wall * REFERENCE_S * len(near) / sum(s[2] for s in near)
