"""Exit non-zero unless each kernel switch set for a CI leg took effect as written.

    NPY_DISABLE_CPU_FEATURES="..." python .github/kernel_guard.py
    OPENBLAS_CORETYPE=...          python .github/kernel_guard.py

numpy and OpenBLAS both ignore a name they do not know, and OpenBLAS may load
another core than the one named (``Prescott`` loads Katmai), so a leg could
run on other kernels than its switch names. Under NPY_DISABLE_CPU_FEATURES
every target numpy dispatches to must read off; under OPENBLAS_CORETYPE the
core numpy's OpenBLAS loaded must be the one named, in any case. With neither
switch set there is nothing to check, and the guard fails.
"""

import ctypes
import glob
import os
import sys
from pathlib import Path

import numpy as np


def numpy_targets_off(switch: str) -> tuple[bool, str]:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    on = [target for target in __cpu_dispatch__ if __cpu_features__[target]]
    return not on, f"NPY_DISABLE_CPU_FEATURES={switch!r}: dispatch targets on: {on}"


def openblas_core() -> str:
    # the library numpy's wheel bundles; the symbol name varies by build
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "no core it can name (numpy.libs holds no OpenBLAS with a get_corename symbol)"


def openblas_core_named(switch: str) -> tuple[bool, str]:
    core = openblas_core()
    return core.lower() == switch.lower(), f"OPENBLAS_CORETYPE={switch!r}: OpenBLAS loaded {core}"


CHECKS = {
    "NPY_DISABLE_CPU_FEATURES": numpy_targets_off,
    "OPENBLAS_CORETYPE": openblas_core_named,
}

if __name__ == "__main__":
    results = [check(os.environ[name]) for name, check in CHECKS.items() if name in os.environ]
    if not results:
        sys.exit(f"kernel guard: none of {list(CHECKS)} is set, so no switch is checked")
    report = "\n".join(f"kernel guard: {'ok' if ok else 'FAIL'} {line}" for ok, line in results)
    if not all(ok for ok, _ in results):
        sys.exit(report)
    print(report)
