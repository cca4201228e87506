"""Compile C sources into cached shared libraries (DESIGN.md §21, §24).

Both native parts of the environment build here: the gate kernel
(:mod:`repro.synth.native`, loaded with :mod:`ctypes`) and the compiled
simulator's step (:mod:`repro.sim.compiled`, a CPython extension
module).  A source is compiled with the host's C compiler (``cc`` on
``PATH``) into a shared library cached under ``~/.cache/repro``, named
by a digest of the source, the compiler (its resolved path, size and
modification time), the flags and the platform, so a build happens once
per digest on a host and a process only loads it, without running the
compiler.  The compiler writes into a private scratch directory beside
the cache entry (its own temporary files included), which is renamed
into place when the build succeeds and removed either way: concurrent
or interrupted builds leave no partial library and no stray file.  The
cache keeps the :data:`_CACHE_LIMIT` most recently used libraries of
each kind.

Every way a build can fail — no compiler, no Python headers, a compile
error, a build over :data:`_TIMEOUT` seconds, an unwritable cache — is a
:class:`BuildError` naming the reason; each caller warns once and runs
its Python reference instead.  A :class:`CompileError`, the compiler
rejecting or timing out on one source, says nothing of another source.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import platform
import shutil
import signal
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Dict, Optional, Sequence, Tuple

#: The compiler, looked up on ``PATH``.
_COMPILER = "cc"
#: Portable flags: no ``-march=native``, so a cached library runs on any
#: host of the platform it was built for.
KERNEL_FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
#: The step's flags add the Python headers (:func:`extension`).  Signed
#: overflow wraps, as the emitter's width analysis assumes it never
#: happens; ``__int128`` and C99 are what the emitted code needs.  A
#: value passed where a pointer is expected, or the reverse, is an
#: error, as from GCC 14 on, never a library that crashes when run.
_EXTENSION_FLAGS = ("-O1", "-shared", "-fPIC", "-fwrapv",
                    "-Werror=int-conversion",
                    "-Werror=incompatible-pointer-types",
                    "-Werror=implicit-function-declaration")
#: Seconds a compiler call may take before it is killed.
_TIMEOUT = 120.0
#: Libraries of one stem the cache keeps: a build past this many removes
#: the least recently used (every load marks its library used).  Each
#: new design adds a step library, about 20 to 70 KB.
_CACHE_LIMIT = 256
#: The name every step module is built and loaded under.
EXTENSION_NAME = "_repro_step"


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro"


class BuildError(Exception):
    """A source could not be built or loaded here."""


class CompileError(BuildError):
    """The compiler failed on this source, or took too long."""


#: Extension modules loaded in this process, by library path.
_extensions: Dict[Path, ModuleType] = {}
#: The interpreter's include directory and extension suffix, looked up
#: on the first build (``sysconfig`` recomputes them on every call).
_headers: Optional[Tuple[str, str]] = None


def library(source: bytes, stem: str, flags: Sequence[str]) -> Path:
    """The cached library of *source* built with *flags*, compiled first
    unless a build of the same digest is cached."""
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        raise BuildError(f"no C compiler {_COMPILER!r} on PATH")
    try:
        real = os.path.realpath(compiler)
        stat = os.stat(real)
        path = cache_path(source, f"{real} {stat.st_size} "
                                  f"{stat.st_mtime_ns}".encode(),
                          flags, stem)
        if not _mark_used(path):
            _compile(compiler, source, path, flags)
            _prune(path.parent, stem)
    except (OSError, RuntimeError) as error:
        raise BuildError(f"cannot build {stem}: {error}") from None
    return path


def _mark_used(path: Path) -> bool:
    """Touch the cached library *path*; False when it is not cached."""
    try:
        os.utime(path)
    except FileNotFoundError:
        return False
    except OSError:
        pass  # a cache this process may read but not write
    return True


def _prune(directory: Path, stem: str) -> None:
    """Remove the least recently used libraries of *stem* past
    :data:`_CACHE_LIMIT`.  A process that loaded one keeps its mapping."""
    used = []
    for entry in directory.glob(f"{stem}-*.so"):
        try:
            used.append((entry.stat().st_mtime_ns, entry))
        except FileNotFoundError:
            continue
    used.sort(reverse=True)
    for _mtime, entry in used[_CACHE_LIMIT:]:
        try:
            entry.unlink()
        except FileNotFoundError:
            continue


def cache_path(source: bytes, compiler: bytes,
               flags: Sequence[str] = KERNEL_FLAGS,
               stem: str = "gatekernel") -> Path:
    """The cached library of *source* built by the compiler identified by
    *compiler*, with *flags*, for this platform."""
    digest = hashlib.sha256(b"\0".join([
        source, compiler, " ".join(flags).encode(),
        sys.platform.encode(), platform.machine().encode(),
    ])).hexdigest()
    return _cache_dir() / f"{stem}-{digest[:24]}.so"


def extension(source: str) -> ModuleType:
    """The CPython extension module :data:`EXTENSION_NAME` built from
    *source*, compiled unless cached and loaded once per process."""
    global _headers
    if _headers is None:
        _headers = (sysconfig.get_paths()["include"],
                    sysconfig.get_config_var("EXT_SUFFIX"))
    include, abi = _headers
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise BuildError(f"no Python headers in {include}")
    # The interpreter's ABI heads the source, so a library built for
    # another Python is another digest.
    path = library(f"/* {abi} */\n{source}".encode(), "step",
                   (*_EXTENSION_FLAGS, "-I", include))
    module = _extensions.get(path)
    if module is None:
        loader = importlib.machinery.ExtensionFileLoader(
            EXTENSION_NAME, str(path))
        spec = importlib.util.spec_from_file_location(
            EXTENSION_NAME, str(path), loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
        except ImportError as error:
            raise BuildError(f"cannot load the step: {error}") from None
        _extensions[path] = module
    return module


def _compile(compiler: str, source: bytes, path: Path,
             flags: Sequence[str]) -> None:
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
            [compiler, *flags, "-x", "c", "-", "-o", built],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=dict(os.environ, TMPDIR=scratch),
            start_new_session=True)
        try:
            _out, err = process.communicate(source, timeout=_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise CompileError(f"{name} took over {_TIMEOUT:g} s") from None
        if process.returncode:
            detail = err.decode(errors="replace").strip()
            raise CompileError(f"{name} exited with status "
                               f"{process.returncode}: {detail[:400]}")
        os.replace(built, path)
