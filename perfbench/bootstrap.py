"""Process set-up shared by the benchmark entry point and its set-up probe.

The benchmark measures the package in the checkout it lives in: nxmf is
imported from `<root>/src`, never from an installed copy, and every BLAS or
OpenMP pool is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout holds no importable nxmf source tree."""


def pin_threads() -> None:
    """Pin native thread pools to one thread; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_nxmf():
    """Import nxmf from this checkout's `src`, refusing any other copy."""
    if not (SRC / "nxmf" / "__init__.py").is_file():
        raise MissingSource(f"no nxmf package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nxmf

    if Path(nxmf.__file__).resolve().parent != SRC / "nxmf":
        raise MissingSource(f"nxmf resolved to {nxmf.__file__}, not to {SRC / 'nxmf'}")
    return nxmf
