"""Process set-up shared by the benchmark and its child processes.

``pin_threads`` must run before numpy is imported: OpenBLAS reads its thread
count once, when it loads.  Every child inherits the pinned environment.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class MissingProgram(RuntimeError):
    """The checkout holds no lattice_lab sources to benchmark."""


def pin_threads() -> None:
    os.environ.update(THREAD_VARS)


def import_program():
    """Import lattice_lab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "lattice_lab" / "__init__.py").is_file():
        raise MissingProgram(f"no lattice_lab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lattice_lab
    import lattice_lab.cli  # noqa: F401  (the CLI ops need it; its import is set-up cost)

    if Path(lattice_lab.__file__).resolve().parent != SRC / "lattice_lab":
        raise MissingProgram(f"lattice_lab imported from {lattice_lab.__file__}, not {SRC}")
    return lattice_lab
