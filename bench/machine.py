"""The machine record written beside every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
import time

import numpy
from numpy.linalg import svd as _svd

# Workload processes run BLAS on one thread, so a `--threads nproc` op keeps
# the number of busy threads at nproc instead of nproc times the BLAS pool.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The calibration kernel's median time on the 2-vCPU x86 box the benchmark was
# tuned on, while its host was quiet.  Timings are reported at this speed: see
# calibration_s.
REFERENCE_CAL_S = 3.0e-3

_CAL_RNG = numpy.random.default_rng(0)
_CAL_BATCH = _CAL_RNG.standard_normal((200, 12, 6))
_CAL_SMALL = list(_CAL_RNG.standard_normal((30, 6, 4)))


def calibration_s() -> float:
    """Seconds one run of a fixed kernel takes now.

    The kernel mixes what colsel's ops spend their time on: a batched LAPACK
    SVD, a Python loop of one-matrix SVDs and plain bytecode.  A shared host
    can slow its CPUs by up to 1.8x for seconds to minutes at a time, so a
    latency is scaled by ``REFERENCE_CAL_S`` over the kernel's time taken right
    beside it: the latency the op would have at the reference speed.  The
    kernel binds ``numpy.linalg.svd`` at import, so tracing never wraps it.
    """
    clock = time.perf_counter
    start = clock()
    _svd(_CAL_BATCH, compute_uv=False)
    for m in _CAL_SMALL:
        _svd(m, compute_uv=False)
    total = 0
    for i in range(30_000):
        total += i * i
    return clock() - start


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for entry in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _openblas_threads(numpy_module):
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(numpy_module.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    """Python, numpy, BLAS (name, version, threads), nproc, CPU model and caches.

    Call it inside a workload process, where numpy was imported with the
    pinned BLAS environment, so the thread count is the one the ops ran with.
    """
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    blas["threads"] = _openblas_threads(numpy)
    blas["env"] = {key: os.environ.get(key) for key in BLAS_ENV}
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "platform": platform.platform(),
    }
