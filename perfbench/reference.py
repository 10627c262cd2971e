"""Fixed pure-Python reference kernels that track the machine's current speed.

On a shared host the same job can take up to twice as long for tens of
seconds at a time, and a whole run can land in such a stretch. The harness
times a kernel between jobs and scales each job's times by
REFERENCE_MS / (kernel time now), which reports them at one nominal machine
speed. A slow stretch does not slow every kind of work alike, so each
workload names the kernel closest to the work that dominates it. The kernels
import nothing from secel, so no change to the program can move them.
"""

from __future__ import annotations

import hashlib
import json
import time

# Each kernel is sized to take about this long, in ms, on a 2-vCPU x86-64
# sandbox under CPython 3.11 in its fastest tenth of samples: the nominal
# speed that scaled times are reported at.
REFERENCE_MS = 1.0
_P127 = (1 << 127) - 1
_P256 = (1 << 255) - 19


def interpreter_kernel() -> int:
    """Interpreted big-int arithmetic, dict updates, JSON encoding and hashing."""
    acc, table = 1, {}
    for i in range(1800):
        acc = (acc * 6364136223846793005 + i) % _P127
        table[str(i & 63)] = acc
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).digest()
    return int.from_bytes(digest, "big")


def bignum_kernel() -> int:
    """Modular exponentiation with 255-bit exponents and modulus."""
    x = 0x5EC31
    for _ in range(7):
        x = pow(3, x | 1 << 254, _P256)
    return x


KERNELS = {"interpreter": interpreter_kernel, "bignum": bignum_kernel}


def reference_ms(kernel, budget_s: float = 0.0) -> float:
    """Mean time in ms of `kernel` over at least three runs and `budget_s`
    seconds: the machine's current speed for that kind of work."""
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if runs >= 3 and elapsed >= budget_s:
            return elapsed * 1e3 / runs
