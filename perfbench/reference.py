"""Fixed reference work that measures the machine's momentary speed.

On a shared VM the speed drifts by tens of percent over seconds to
minutes, so a wall time alone says as much about the host as about the
program.  Two references run beside the timed children, and neither calls
porelife code, so each costs the same on every commit:

* ``reference()``, an in-process pass of arithmetic.  ``run.py`` runs it
  after every command, for a fixed share of the command's time, so the
  passes sample the machine's compute speed evenly over the run.
* ``IMPORTS_CODE`` in a fresh interpreter, run right before every set-up
  probe: the clock of process start-up, imports and their page faults.

``run.py`` turns each into a speed factor (``REFERENCE_S`` over the run's
mean pass, ``IMPORTS_S`` over the median import run).  Set-up time is
scaled by the import factor; command times by the geometric mean of both,
since a command is a start-up followed by computation.  Fast noise (bursts
well under a second) averages out within a command either way; what the
scaling removes is the drift over tens of seconds and minutes that makes
whole runs, and whole sets of runs, fast or slow.

The pass mimics the mix porelife computes with: parsing CSV lines into
floats, an interpreter loop of scalar math, many small numpy calls (as
Nelder-Mead makes), elementwise numpy over large arrays, and first touches
of fresh memory.  Large arrays are preallocated and the fresh memory is a
fixed-size anonymous map, so one pass costs the same however warm this
process's heap is.  Changing either reference changes what every
end-to-end time means.
"""
from __future__ import annotations

import math
import mmap
import time

import numpy as np

#: Seconds one pass takes on the VM the baseline was measured on, when that
#: VM is quiet; the compute speed factor is this over the run's mean pass.
#: It is a fixed unit: never re-measure it.
REFERENCE_S = 0.1
#: Reference time spent after a child, as a share of the child's wall time.
REFERENCE_SHARE = 0.15

#: The set-up reference: the imports every porelife command starts with,
#: run in a fresh interpreter.  Set-up time (interpreter start, imports,
#: their page faults) follows this far more closely than it follows the
#: in-process pass.  numpy and scipy are porelife's declared dependencies,
#: not its code, so this costs the same on every commit.
IMPORTS_CODE = "import argparse, json, numpy, scipy.special"
#: Seconds IMPORTS_CODE takes in a fresh interpreter on the baseline VM when
#: it is quiet; the start-up speed factor is this over the run's median
#: import time.  A fixed unit, like REFERENCE_S.
IMPORTS_S = 0.4

_RNG = np.random.default_rng(20240916)
_VALUES = _RNG.random(100_000)
_VALUE_LIST = _VALUES.tolist()
_BUFFER = np.empty_like(_VALUES)
_SMALL = _VALUES[:64].copy()
_FRESH_PAGES = 4096
_LINES = [f"{i},{a!r},{b!r},{c!r}" for i, (a, b, c) in enumerate(_RNG.random((8_000, 3)).tolist())]


def reference() -> float:
    """Wall seconds of one pass of the fixed computation."""
    start = time.perf_counter()
    total = 0.0
    for line in _LINES:
        parts = line.split(",")
        total += int(parts[0]) * 1e-9 + float(parts[1]) + float(parts[2]) * float(parts[3])
    for v in _VALUE_LIST:
        total += math.log1p(v) * v
    for _ in range(8_000):
        total += float(np.sum(np.exp(-_SMALL) * _SMALL))
    for _ in range(80):
        np.add(_VALUES, 1.0, out=_BUFFER)
        np.power(_BUFFER, -0.2, out=_BUFFER)
        total += float(_BUFFER.sum())
    with mmap.mmap(-1, _FRESH_PAGES * mmap.PAGESIZE) as fresh:
        fresh.madvise(mmap.MADV_NOHUGEPAGE)
        for offset in range(0, len(fresh), mmap.PAGESIZE):
            fresh[offset] = 1
    if not math.isfinite(total):
        raise ArithmeticError("reference computation went non-finite")
    return time.perf_counter() - start


class Speed:
    """The machine's speed over one run, from reference passes spread over it."""

    def __init__(self):
        self.passes = []

    def follow(self, elapsed: float) -> None:
        """Run passes for REFERENCE_SHARE of ``elapsed`` seconds, at least one."""
        spent = 0.0
        while True:
            self.passes.append(reference())
            spent += self.passes[-1]
            if spent >= REFERENCE_SHARE * elapsed:
                return

    def scale(self) -> float:
        """Factor that turns this run's wall seconds into seconds at the reference speed."""
        return REFERENCE_S * len(self.passes) / sum(self.passes)
