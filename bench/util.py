"""Small helpers shared by the workloads: thread limits, RSS, checks."""

from __future__ import annotations

import os
import resource

# One compute thread: the runs then stay within any machine's CPU count and
# do not compete with each other for cores. Set before numpy is imported.
BLAS_THREADS = 1
THREAD_ENV = {name: str(BLAS_THREADS) for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

MB = 1 << 20


def limit_threads():
    os.environ.update(THREAD_ENV)


def peak_rss_mb(children=False):
    """High-water resident set of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / MB  # ru_maxrss is in KiB on Linux


def metric(value, unit):
    return {"value": float(value), "unit": unit}


class Checks:
    """Named pass/fail results of the correctness checks of one run."""

    def __init__(self, log):
        self.log = log
        self.failed = []

    def expect(self, name, ok, detail=""):
        self.log(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
        if not ok:
            self.failed.append(name)

    @property
    def all_passed(self):
        return not self.failed
