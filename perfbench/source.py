"""Locate the package under test in the checkout and fix the BLAS thread count.

Both must happen before numpy is imported, so this module imports nothing
beyond the standard library.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: the matrices are at most 256 x 256, and with one thread
# an op runs on one CPU, the one that the speed probe (speed.py) times.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Default every BLAS thread variable to 1 unless the caller set it."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def use_source_tree() -> bool:
    """Put the checkout's `src/` first on the import path.

    Returns False when the checkout has no package source, so that the
    benchmark never measures an installed copy instead of the tree.
    """
    if not (SRC / "sedwitness" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sedwitness

    return Path(sedwitness.__file__).resolve().parent == SRC / "sedwitness"
