"""Machine-speed gauge: a fixed piece of numpy work, timed between operations.

On a shared virtual machine the CPU's speed drifts by tens of percent over
minutes with the host's load, and steal time does not show it. The benchmark
reads the gauge between operations and divides each operation's time by the
gauge time around it, which cancels most of that drift. The gauge does the
kinds of work hqloc's hot paths do: small matrix products and elementwise
calls bound by the interpreter, and seeded 4096-draw samples with a hash. It
never calls hqloc, so a change to the package cannot move it.
"""

import hashlib
import time

import numpy as np

MATMUL_LOOPS = 2000
SAMPLE_LOOPS = 300
# Median gauge time on the 2-core Xeon VM the benchmark was tuned on. Scaled
# metrics are "seconds at this gauge speed": measured time / gauge time * REFERENCE_S.
REFERENCE_S = 0.0275
EVERY_S = 0.5  # read the gauge at least this often between operations


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((49, 8))
        self._b = rng.random((8, 8))
        self.readings: list[tuple[int, float]] = []  # (index of the next operation, seconds)
        self._last = -float("inf")

    def sample(self) -> float:
        """Seconds the gauge's fixed work takes now."""
        a, b = self._a, self._b
        payload = a.tobytes()
        start = time.perf_counter()
        for _ in range(MATMUL_LOOPS):
            v = np.abs(a @ b) ** 2
            v.sum(axis=1)
        for k in range(SAMPLE_LOOPS):
            np.count_nonzero(np.random.default_rng(k).random(4096) < 0.3)
            hashlib.blake2b(payload, digest_size=8).digest()
        self._last = time.perf_counter()
        return self._last - start

    def read(self, next_op: int, force: bool = False) -> None:
        """Record a reading before operation ``next_op`` unless one is recent."""
        if force or time.perf_counter() - self._last >= EVERY_S:
            self.readings.append((next_op, self.sample()))

    def around(self, n_ops: int) -> list[float]:
        """Mean of the readings just before and just after each operation."""
        out, k = [], 0
        for i in range(n_ops):
            while k + 1 < len(self.readings) and self.readings[k + 1][0] <= i:
                k += 1
            after = next(s for idx, s in self.readings[k + 1:] if idx > i)
            out.append((self.readings[k][1] + after) / 2.0)
        return out
