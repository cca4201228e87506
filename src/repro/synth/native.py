"""Build and load the native gate kernel (``gatekernel.c``, DESIGN.md §21).

The C source is compiled with the host's C compiler (``cc`` on
``PATH``) into a shared library, which :mod:`ctypes` loads.  The library
is cached under ``~/.cache/repro``, named by a digest of the source, the
compiler (its resolved path, size and modification time), the flags and
the platform, so a build happens once per digest on a host and a process
only loads it, without running the compiler.  The compiler writes
into a private scratch directory beside the cache entry (its own
temporary files included), which is renamed into place when the build
succeeds and removed either way: concurrent or interrupted builds leave
no partial library and no stray file.

:func:`library` builds or loads the kernel once per process.  When that
fails — no compiler, a compile error, a build over :data:`_TIMEOUT`
seconds, an unwritable cache — it warns once with the reason and returns
None, and every :class:`~repro.synth.gatesim.GateSimulator` runs the
Python kernel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Optional

SOURCE = Path(__file__).with_name("gatekernel.c")

#: The compiler, looked up on ``PATH``.
_COMPILER = "cc"
#: Portable flags: no ``-march=native``, so a cached library runs on any
#: host of the platform it was built for.
_FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
#: Seconds a compiler call may take before it is killed.
_TIMEOUT = 120.0


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro"


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


class _BuildError(Exception):
    """The kernel could not be built or loaded here."""


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
        except _BuildError as error:
            failure = str(error)
            warnings.warn(f"native gate kernel unavailable, gate simulation "
                          f"runs the Python kernel: {failure}",
                          RuntimeWarning, stacklevel=3)
    return _library


def _load() -> ctypes.CDLL:
    """Build the kernel unless it is cached, then load it."""
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        raise _BuildError(f"no C compiler {_COMPILER!r} on PATH")
    try:
        source = SOURCE.read_bytes()
        real = os.path.realpath(compiler)
        stat = os.stat(real)
        path = cache_path(source, f"{real} {stat.st_size} "
                                  f"{stat.st_mtime_ns}".encode())
        if not path.exists():
            _compile(compiler, source, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError) as error:
        raise _BuildError(f"cannot build or load the kernel: {error}") \
            from None
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    return lib


def cache_path(source: bytes, compiler: bytes) -> Path:
    """The cached library of *source* built by the compiler identified by
    *compiler*, with :data:`_FLAGS`, for this platform."""
    digest = hashlib.sha256(b"\0".join([
        source, compiler, " ".join(_FLAGS).encode(),
        sys.platform.encode(), platform.machine().encode(),
    ])).hexdigest()
    return _cache_dir() / f"gatekernel-{digest[:24]}.so"


def _compile(compiler: str, source: bytes, path: Path) -> None:
    """Compile *source* into *path*, within :data:`_TIMEOUT` seconds.

    The compiler runs in a session of its own, so a timeout kills every
    process it started, and writes only into a scratch directory (its
    temporary files through ``TMPDIR``), which is removed either way.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    name = Path(compiler).name
    with tempfile.TemporaryDirectory(prefix=".build-",
                                     dir=path.parent) as scratch:
        built = os.path.join(scratch, path.name)
        process = subprocess.Popen(
            [compiler, *_FLAGS, "-x", "c", "-", "-o", built],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=dict(os.environ, TMPDIR=scratch),
            start_new_session=True)
        try:
            _out, err = process.communicate(source, timeout=_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise _BuildError(f"{name} took over {_TIMEOUT:g} s") from None
        if process.returncode:
            detail = err.decode(errors="replace").strip()
            raise _BuildError(f"{name} exited with status "
                             f"{process.returncode}: {detail[:400]}")
        os.replace(built, path)
