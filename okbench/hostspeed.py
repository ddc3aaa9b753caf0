"""Host speed from fixed reference kernels, to take a shared host's drift out of timings.

On a shared host the same work can take 1.5x to 2x as long for tens of
seconds to minutes at a time, CPU time included, when the neighbours are busy.
A raw task time then follows the neighbours more than the program.  ``Speed``
times two fixed reference kernels, which call no okpattern code, right
before and right after each measured interval, and divides the interval by
their slowdown against their ``NOMINAL_S``.  The result is the time the
interval would have taken on a host where the kernels take ``NOMINAL_S``: a
change to okpattern moves it as it moves the raw time, the host's spells
mostly do not.

Busy neighbours do not slow all work alike.  In runs of 5 to 10 minutes with
the kernels timed before every task, a compute kernel (interpreted Python,
small numpy calls, FFTs) tracked construct-64 well and a memory kernel (big
fresh arrays) tracked it poorly; on pencil-3d each of the two did better in
one run and worse in another.  The mean of the two slowdowns was never far
from the better one on either workload, so that is the reading.

The kernels run in a helper process, so that their memory stays out of the
workload process's ``peak_rss_mb``, and only while the workload process waits
for them.  Run as ``python3 hostspeed.py --serve``: each line on stdin asks
for one reading, answered by one line on stdout; end of input ends the
helper.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

REPEATS = 3  # a reading is the median of this many runs, so one preemption does not count
STOP_TIMEOUT_S = 10


class ComputeKernel:
    """Interpreted Python, many small numpy calls, 2D and 3D FFTs and a dense
    product over an 8 MB matrix: what construct-64's sampling loops do."""

    NOMINAL_S = 0.025  # about its median on a 2-vCPU Xeon sandbox, numpy 2.4

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal(81)
        self.plane = rng.standard_normal((64, 64))
        self.cube = rng.standard_normal((32, 32, 32))
        self.matrix = rng.standard_normal((1024, 1024))
        self.vector = rng.standard_normal(1024)

    def __call__(self) -> float:
        import numpy as np

        acc = 0.0
        table = {}
        for i in range(14000):
            table[i & 63] = acc
            acc += (i % 7) * 0.5 - table.get((i + 1) & 63, 0.0) * 1e-3
        for _ in range(1000):
            acc += float(np.dot(self.small, self.small * 0.5 + 1.0))
        for _ in range(40):
            acc += float(np.fft.ifft2(np.fft.fft2(self.plane)).real[0, 0])
        for _ in range(7):
            acc += float(np.fft.ifftn(np.fft.fftn(self.cube)).real[0, 0, 0])
        for _ in range(10):
            acc += float((self.matrix @ self.vector)[0])
        return acc


class MemoryKernel:
    """Large fresh arrays allocated, filled with complex exponentials and
    read: what pencil-3d's dense sampling block does."""

    NOMINAL_S = 0.070  # about its median on a 2-vCPU Xeon sandbox, numpy 2.4

    def __call__(self) -> float:
        import numpy as np

        phases = np.outer(np.linspace(0.0, 1.0, 256), np.linspace(0.0, 1.0, 8192))
        total = complex(np.exp(1j * phases).sum())  # 32 MB of fresh complex values
        stream = np.ones(4_000_000)  # 32 MB
        stream *= 1.0001
        return total.real + float(stream.sum())


KERNELS = (ComputeKernel, MemoryKernel)


def serve() -> None:
    """Answer each line on stdin with the host's slowdown: the mean, over
    both kernels, of the kernel's median time over its ``NOMINAL_S``."""
    kernels = [cls() for cls in KERNELS]
    for kernel in kernels:
        kernel()  # first-call costs stay out of the readings
    for _ in sys.stdin:
        slowdowns = []
        for kernel in kernels:
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            slowdowns.append(sorted(times)[REPEATS // 2] / kernel.NOMINAL_S)
        print(repr(sum(slowdowns) / len(slowdowns)), flush=True)


class Speed:
    """Host slowdown readings from a helper process; use as a context manager,
    which stops the helper and waits for it on the way out."""

    def __enter__(self) -> Speed:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.last = self._read()
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def _read(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host speed helper ended (exit {self._proc.poll()})")
        return float(line)

    def factor(self) -> float:
        """The host's slowdown against nominal over the interval since the
        last call (or since the helper started): the mean of the readings
        before and after it."""
        before, self.last = self.last, self._read()
        return 0.5 * (before + self.last)


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        raise SystemExit("usage: hostspeed.py --serve")
    serve()
