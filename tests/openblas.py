"""The OpenBLAS that numpy's wheels load privately from ``numpy.libs``.

Training bytes depend on the kernels OpenBLAS picks for the CPU (its "core"),
so the pinned training digests are keyed by the core's name. Run as a
script, this prints the library's config line, which names the core too:

    python tests/openblas.py
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def _query(name: str) -> str | None:
    """The string an OpenBLAS query function returns; None without numpy's
    OpenBLAS or without that function."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        function = getattr(ctypes.CDLL(str(min(libs.glob("libscipy_openblas*")))), name)
    except (ValueError, OSError, AttributeError):  # no such library or symbol
        return None
    function.argtypes, function.restype = [], ctypes.c_char_p
    return function().decode().strip()


def core_name() -> str | None:
    """The core whose kernels OpenBLAS runs, e.g. ``SkylakeX`` or ``Haswell``;
    ``OPENBLAS_CORETYPE`` set before numpy is imported forces another."""
    return _query("scipy_openblas_get_corename64_")


def config_line() -> str | None:
    return _query("scipy_openblas_get_config64_")


if __name__ == "__main__":
    print(f"OpenBLAS config: {config_line() or 'no OpenBLAS in numpy.libs'}")
