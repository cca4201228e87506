"""Load the native gate kernel (``gatekernel.c``, DESIGN.md §21).

The C source is built by the environment's one build path,
:mod:`repro.sim.cbuild`: the host's C compiler (``cc`` on ``PATH``)
compiles it once per digest into a shared library cached under
``~/.cache/repro``, which :mod:`ctypes` loads.

:func:`library` builds or loads the kernel once per process.  When that
fails — no compiler, a compile error, a build over the build timeout, an
unwritable cache — it warns once with the reason and returns None, and
every :class:`~repro.synth.gatesim.GateSimulator` runs the Python
kernel.
"""

from __future__ import annotations

import ctypes
import warnings
from pathlib import Path
from typing import Optional

from ..sim import cbuild

SOURCE = Path(__file__).with_name("gatekernel.c")


_P = ctypes.c_void_p
_I32 = ctypes.c_int32
_WORD = ctypes.c_uint64


class Sim(ctypes.Structure):
    """The kernel's per-simulator record (``Sim`` in ``gatekernel.c``).

    Its pointers are addresses of :mod:`array` buffers that the owning
    simulator keeps alive and never resizes.
    """

    _fields_ = [
        ("values", _P), ("mask", _WORD),
        ("levels", _I32), ("level_end", _P), ("runs", _P), ("cells", _P),
        ("dffs", _I32), ("d_nets", _P), ("q_nets", _P), ("sampled", _P),
        ("pin_chunks", _I32), ("out_chunks", _I32), ("out_buses", _I32),
        ("bus_start", _P), ("bus_nets", _P), ("out_end", _P),
        ("pin_raw", _P), ("pin_staged", _P), ("out_raw", _P),
        ("overrides", _I32), ("ov", _P), ("ov_words", _P),
        ("n_held", _I32), ("held_nets", _P), ("held_values", _P),
        ("is_held", _P),
    ]


#: Every exported function: ``(argtypes, restype)``.
_SIGNATURES = {
    "gk_drive": ([_P, _I32, _WORD], None),
    "gk_drive_lanes": ([_P, _I32, _P], None),
    "gk_settle": ([_P], None),
    "gk_clock": ([_P], None),
    "gk_restored": ([_P], None),
    "gk_read": ([_P, _I32, _I32], _WORD),
    "gk_read_lanes": ([_P, _I32, _P], None),
    "gk_replay": ([_P, _P, _P, _I32, _I32, _P, _P, _P], _I32),
}


_library: Optional[ctypes.CDLL] = None
#: Why the kernel is unavailable in this process (None until a build
#: failed).
failure: Optional[str] = None


def library() -> Optional[ctypes.CDLL]:
    """The loaded kernel, or None when it cannot be built here.

    The first call builds or loads it; a failure warns once, with its
    reason, and is not retried in this process.
    """
    global _library, failure
    if _library is None and failure is None:
        try:
            _library = _load()
        except cbuild.BuildError as error:
            failure = str(error)
            warnings.warn(f"native gate kernel unavailable, gate simulation "
                          f"runs the Python kernel: {failure}",
                          RuntimeWarning, stacklevel=3)
    return _library


def _load() -> ctypes.CDLL:
    """Build the kernel unless it is cached, then load it."""
    try:
        path = cbuild.library(SOURCE.read_bytes(), "gatekernel",
                              cbuild.KERNEL_FLAGS)
        lib = ctypes.CDLL(str(path))
    except OSError as error:
        raise cbuild.BuildError(f"cannot load the kernel: {error}") \
            from None
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    return lib
