"""How fast the machine runs right now, measured with fixed reference kernels.

On a shared machine the speed of one core drifts by tens of percent over
minutes, and every timing of a run drifts with it: medians of ten runs of the
same code then spread by up to a third. So each timed sample is taken right
after `SpeedProbe.slowdown()` and divided by it, which gives the sample in
seconds at the reference speed, the speed at which each kernel below takes
its NOMINAL_S time. Raw wall times are reported next to the scaled ones.

The four kernels cover the kinds of work `uncal` does: interpreter loops,
JSON decoding, object and string churn, small matrix products. They use
nothing from `uncal`, so a change to `uncal` cannot move them.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

# typical kernel times on the machine the benchmark was defined on (x86_64,
# 2 vCPUs, Python 3.11, numpy 2.4 with OpenBLAS on one thread); they fix the
# scale of the reported times and nothing else
NOMINAL_S = {"interpreter": 0.0130, "json": 0.0100, "objects": 0.0130, "matmul": 0.0095}


class SpeedProbe:
    def __init__(self):
        self._rows = [json.dumps({"qid": f"q{i}", "p": [i * 0.25, i, f"alpha beta {i}"]})
                      for i in range(4000)]
        self._matrix = np.random.default_rng(0).standard_normal((160, 160))
        self._kernels = {
            "interpreter": self._interpreter,
            "json": self._json,
            "objects": self._objects,
            "matmul": self._matmul,
        }

    @staticmethod
    def _interpreter() -> int:
        total = 0
        for i in range(150_000):
            total += i * i
        return total

    def _json(self) -> None:
        for row in self._rows:
            json.loads(row)

    @staticmethod
    def _objects() -> int:
        size = 0
        for _ in range(4):  # small tables, so the probe barely moves peak memory
            table = {}
            for i in range(10_000):
                table[i] = f"k{i}".upper()
            size += len(table)
        return size

    def _matmul(self) -> None:
        for _ in range(40):
            self._matrix @ self._matrix

    def kernel_times(self) -> dict[str, float]:
        gc.collect()
        times = {}
        for name, kernel in self._kernels.items():
            start = time.perf_counter()
            kernel()
            times[name] = time.perf_counter() - start
        return times

    def slowdown(self) -> float:
        """Mean ratio of each kernel's time now to its nominal time:
        2.0 means the machine currently runs at half the reference speed."""
        times = self.kernel_times()
        return sum(times[name] / NOMINAL_S[name] for name in times) / len(times)
