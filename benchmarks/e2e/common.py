"""Paths, statistics and the environment stamp shared by the benchmark.

Everything here is stdlib-only so ``run.py`` can import it before it
has checked that the checkout holds the ``repro`` sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RUN_PY = os.path.join(HERE, "run.py")
#: every file the benchmark writes lives under here (git-ignored)
OUT = os.path.join(HERE, "out")


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts.

    ``REPRO_*`` variables are dropped so every layer runs with its
    library defaults, the checkout's ``src`` is put first on the import
    path, and temporary files stay inside the checkout.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def plain(stats) -> dict:
    """Stats as JSON carries them, so a dataclass and a wire dict
    compare equal when every field does."""
    if dataclasses.is_dataclass(stats):
        stats = dataclasses.asdict(stats)
    return json.loads(json.dumps(stats))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: seconds the calibration loop takes on the reference host (a 2-vCPU
#: Intel Xeon VM running CPython 3.11): the lower quartile of 300
#: samples, rounded
CALIBRATION_REF_S = 0.0095


def calibration_seconds() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def calibration_loop() -> None:
    """Fixed interpreter work shaped like the simulators' inner loops:
    integer arithmetic, list and dict traffic, a data-dependent branch."""
    regs = [0] * 32
    mem: Dict[int, int] = {}
    x = 1
    for i in range(25_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        r = x & 31
        regs[r] = (regs[r] + x) & 0xFFFF
        mem[x & 1023] = regs[r]
        if mem.get(i & 1023, 0) > 0x7FFF:
            x ^= 0x5555


def usable_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned(cpus: Sequence[int]):
    """Run this process (and what it forks) on ``cpus`` only."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


class Calibrator:
    """Host speed, sampled around each operation a workload times.

    The benchmark host shares its cores with other tenants.  Each vCPU
    slows by 10% to several times for seconds at a time, independently
    of the other, and drifts over minutes: 20-second windows of the same
    specs differ by 10-25% in raw time, more than the regression bounds.  The
    slowdown hits this loop and the simulators alike, so the loop runs
    on each CPU the timed work runs on, right before and right after
    each operation, while the workload's own processes are idle.  The
    operation's time is then rescaled to the reference host: divided by
    :meth:`slowdown` (a rate is multiplied by it).  On the reference
    host this cut the spread between 20-second windows to 1.5-3% for
    inline specs, about 4% for pool sweeps and 3-5% for the serve
    daemon.
    """

    def __init__(self, cpus: Sequence[int], repeat: int = 1) -> None:
        self.cpus = list(cpus)
        #: each sample is the best of this many loops per CPU
        self.repeat = repeat
        #: CPU -> loop seconds at the latest sample
        self.last: Dict[int, float] = {}
        #: every value :meth:`slowdown` returned
        self.history: List[float] = []

    def sample(self) -> None:
        for cpu in self.cpus:
            with pinned([cpu]):
                self.last[cpu] = min(calibration_seconds()
                                     for _ in range(self.repeat))

    def slowdown(self) -> float:
        """Sample again, and return how many times slower than the
        reference host the CPUs ran between the previous sample and this
        one.

        Per CPU that is the mean of the two samples; CPUs that share the
        work combine by harmonic mean, the rate at which they work
        together.
        """
        before = dict(self.last)
        self.sample()
        speeds = [2.0 * CALIBRATION_REF_S / (before[c] + self.last[c])
                  for c in self.cpus]
        factor = len(speeds) / sum(speeds)
        self.history.append(factor)
        return factor


def _git(*args: str) -> str:
    out = subprocess.run(["git", "-C", ROOT] + list(args),
                         capture_output=True, text=True, timeout=10,
                         check=True)
    return out.stdout.strip()


def git_stamp() -> Dict[str, object]:
    """Revision and dirty flag; ``unknown`` outside a git checkout (the
    check keeps git from searching parent directories)."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"rev": "unknown", "dirty": None}
    try:
        rev = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return {"rev": "unknown", "dirty": None}
    return {"rev": rev, "dirty": dirty}


def env_stamp(workload: str, seed: int, params: dict) -> dict:
    """What a reader needs to compare this output with another one."""
    cal = Calibrator(usable_cpus(), repeat=3)
    cal.sample()
    return {
        "schema": "bench-e2e/v1",
        "git": git_stamp(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(usable_cpus()),
        "cpu_count": os.cpu_count(),
        "calibration_loop_s": {str(c): s for c, s in cal.last.items()},
        "calibration_ref_s": CALIBRATION_REF_S,
        "workload": workload,
        "seed": seed,
        "params": params,
        "argv": sys.argv[1:],
    }
