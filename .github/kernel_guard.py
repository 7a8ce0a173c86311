"""Exit non-zero unless a CI leg's kernel switch took effect.

    NPY_DISABLE_CPU_FEATURES="..." python .github/kernel_guard.py numpy
    OPENBLAS_CORETYPE=...          python .github/kernel_guard.py openblas

numpy and OpenBLAS both ignore a name they do not know, so a misspelled or
renamed switch would otherwise run the leg on the default kernels. ``numpy``
checks that every target numpy dispatches to reads off on this CPU;
``openblas`` checks that the OpenBLAS core numpy loads differs from the one
it loads without ``OPENBLAS_CORETYPE``. ``corename`` prints that core.
"""

import ctypes
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def corename() -> str:
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
    sys.exit("kernel guard: numpy.libs holds no OpenBLAS with a get_corename symbol")


def main(mode: str) -> None:
    if mode == "numpy":
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        switch = os.environ.get("NPY_DISABLE_CPU_FEATURES")
        on = [target for target in __cpu_dispatch__ if __cpu_features__[target]]
        if on:
            sys.exit(f"kernel guard: NPY_DISABLE_CPU_FEATURES={switch!r} leaves {on} on")
        print(f"kernel guard: {list(__cpu_dispatch__)} all off")
    elif mode == "openblas":
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        default = subprocess.run([sys.executable, __file__, "corename"], env=env, check=True,
                                 capture_output=True, text=True).stdout.strip()
        switch, core = os.environ.get("OPENBLAS_CORETYPE"), corename()
        if core == default:
            sys.exit(f"kernel guard: OPENBLAS_CORETYPE={switch!r} keeps the default core {core}")
        print(f"kernel guard: OpenBLAS core {core}, not the default {default}")
    elif mode == "corename":
        print(corename())
    else:
        sys.exit(f"usage: {sys.argv[0]} numpy|openblas|corename")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) == 2 else "")
