"""Print the environment the CLI runs in as one JSON object.

Run with the same interpreter and environment as the CLI runs, so the
BLAS thread count it reports is the one in effect for them.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads[os.path.basename(path)] = int(fn())
                break
    return threads


def main() -> None:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS
    import openbaker

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "openbaker": os.path.dirname(openbaker.__file__),
        "workers": 1,
    }, sort_keys=True))


if __name__ == "__main__":
    main()
