"""Reference kernels that track the speed of a shared machine during a run.

The effective speed of the 2-vCPU machine the bounds were set on drifts by
±20% over tens of seconds, with CPU time tracking wall time. A run therefore
times a fixed reference kernel after every block of operations and scales that
block's times by ``nominal / measured``. The timings it reports are the ones
the machine would give at the reference speed. The kernels use only numpy and
the interpreter, never swapcert, so no change to the package moves them.

Each workload uses the kernel whose speed moved with its own operations
across runs:

- ``interpreter`` (``exact_grid``): interpreter-bound work. It does small
  Kronecker products, finiteness checks and traces in Python loops, a 4x4
  eigensolve and dictionary churn.
- ``numeric`` (``sample_certify``, ``sep_bound_mix``): small Kronecker
  products, a sampling stream (uniform draws, ``searchsorted``, ``bincount``),
  and 16x16 Hermitian eigensolves with contractions.
- ``spawn`` (``cli_cold``): a fresh ``python -c "import numpy"``, the
  process-start floor of a CLI invocation and of set-up.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median times of the kernels on that machine (Intel Xeon VM, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6). They fix the unit of the scaled timings.
INTERPRETER_NOMINAL_S = 0.0062
NUMERIC_NOMINAL_S = 0.013
SPAWN_NOMINAL_S = 0.190


class Kernels:
    """The in-process reference kernels, on fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20110517)
        self.rng = rng
        self.small = rng.normal(size=(4, 4)) + 0j
        self.pairs = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)]
        herm4 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.herm4 = herm4 + herm4.conj().T
        self.cdf = np.cumsum(np.full(16, 1.0 / 16.0))
        herm16 = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self.herm16 = herm16 + herm16.conj().T
        self.tensor = rng.normal(size=(4, 4, 4, 4)) + 0j
        self.vec = rng.normal(size=4) + 0j

    def interpreter(self) -> float:
        """Run the interpreter-bound kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(8):
            for a in self.pairs:
                for b in self.pairs:
                    k = np.kron(np.asarray(a, dtype=complex), b)
                    if not np.all(np.isfinite(k)):
                        raise ArithmeticError("reference kernel produced a non-finite value")
                    acc += float(np.trace(k @ self.herm4).real)
            np.linalg.eigvalsh(self.herm4)
            table = {f"k{j}": j * acc for j in range(50)}
            acc += 1e-12 * sum(v for _, v in sorted(table.items()))
        return time.perf_counter() - t0

    def numeric(self) -> float:
        """Run the numeric kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        for _ in range(40):
            k = np.kron(self.small, self.small)
            float(np.trace(k @ k).real)
        for _ in range(3):
            draws = np.searchsorted(self.cdf, self.rng.random(60_000), side="right")
            np.bincount(draws, minlength=16)
        for _ in range(20):
            np.linalg.eigh(self.herm16)
            np.einsum("ijkl,j,l->ik", self.tensor, self.vec, self.vec)
        return time.perf_counter() - t0


def spawn() -> float:
    """Start ``python -c "import numpy"`` and wait for it; return its wall time in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0
