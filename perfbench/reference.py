"""Host-speed reference: fixed kernels that use no wproto code.

The benchmark runs on a few cores of a shared host.  The load of other
tenants slows the same instructions by up to 2x, for seconds or for whole
minutes, and CPU time slows with wall time, so the process is not being
descheduled: the core itself runs slower.  The worker times a kernel
after every request.  The median of a pass's samples, over the kernel's
nominal time, is the pass's host factor, and the pass's latencies are
divided by it (see ``worker.measure``).

The slowdown is not the same for all code: interpreted Python and small
numpy calls slow down more than LAPACK and vector sweeps on arrays that
do not fit in the core's caches.  So each workload names the kernel that
does the kind of work its requests do (``workloads.KERNEL``), and set-up
probes use the one that tracked set-up time best (``worker.SETUP_KERNEL``):

- ``small``: interpreted Python, many small numpy calls, and LAPACK
  (``eigvalsh``, ``qr``) on 64x64 and 16x16 matrices, like the n <= 9
  requests of ``acceptance``;
- ``large``: ``eigvalsh`` of a 192x192 complex Hermitian matrix and sweeps
  over 2^16 amplitudes (1 MiB), like the reduced states and 2^(n+1)-vectors
  of the n = 9-16 requests.

A kernel's inputs never change, so its time changes only with the host.
Each kernel's nominal time is about its time on a quiet "Intel(R) Xeon(R)
Processor" vCPU with numpy's OpenBLAS on one thread.  It only sets the
scale: corrected metrics read as seconds on a host on which the kernel
takes exactly that.
"""

from __future__ import annotations

import time


def _small(np, rng):
    h = rng.normal(size=(64, 64))
    h = h + h.T
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    a = np.array([0.6, 0.8j])

    def body() -> None:
        np.linalg.eigvalsh(h)
        for _ in range(10):
            q = np.linalg.qr(m)[0]
            v = np.kron(a, np.kron(a, a))
            sum(abs(x) for x in q[0]) + abs(np.vdot(v, v))

    return body


def _large(np, rng):
    g = rng.normal(size=(192, 192)) + 1j * rng.normal(size=(192, 192))
    g = g + g.conj().T
    v = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)
    w = np.empty_like(v)

    def body() -> None:
        np.linalg.eigvalsh(g)
        for _ in range(4):
            np.multiply(v, 1j, out=w)
            float(np.vdot(w, v).real)

    return body


#: kernel name -> (body factory, nominal seconds)
KERNELS = {"small": (_small, 1.0e-3), "large": (_large, 6.0e-3)}


def make_kernel(name: str):
    """Return (kernel, nominal seconds); the kernel returns its own seconds.

    The body runs twice and only the second run is timed, so the time does
    not depend on what the request before it left in the caches.
    """
    import numpy as np  # loaded by wproto already, after the BLAS pin

    factory, nominal = KERNELS[name]
    body = factory(np, np.random.default_rng(0))

    def kernel() -> float:
        body()
        start = time.perf_counter()
        body()
        return time.perf_counter() - start

    return kernel, nominal
