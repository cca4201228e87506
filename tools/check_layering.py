#!/usr/bin/env python
"""Import layering of ``repro``: one table of allowed imports.

:data:`ALLOWED` has one row per importer, naming the subpackages and
modules it may import.  An importer is a subpackage of ``repro``, or one
module where the table has a row for it; a module's row wins over its
subpackage's.  A subpackage's modules may import each other, while a
module's row lists everything that module may import, its own
subpackage included.  A module named in :data:`TARGETS` may be imported
from outside its subpackage only by a row that names it.  ``"*"`` allows
anything.  An import the table does not list is a violation, and so is
a subpackage without a row.

Why each row reads as it does:

``core``, ``fixpt``
    The model and its number system.  They import nothing above them:
    not ``lint`` (the analyzer reads the model, never the reverse), not
    ``obs`` (instrumentation must not become load-bearing), and no
    engine.
``ir``
    The one layer the back-ends share, built on the model alone.
``ir.equiv``
    Translation validation sits between the IR and the analysis layer:
    of ``lint`` it may reach only the interval domain.  No back-end
    imports it; engines state equivalence obligations through
    ``PassManager(validate=...)``, so they stay buildable without the
    checker's internals.
``ir.passes``
    The one other ``ir`` -> ``lint`` edge: the ``narrow_bitwidth`` and
    ``elide_quantize`` passes use the bit-level domain (``lint.bits``).
``lint``
    The analysis layer: the model, the IR and the number system only.
    No back-end imports it, so each stays buildable without the
    analyzer.
``lint.bits``
    A leaf analysis: besides the model, the IR and the number system it
    imports only its sibling interval domain, never a rule module or
    the linter driver.  Engines see narrowing and quantize elision only
    as validated passes in a pipeline.
``obs``
    Observability builds on the model.  Engines import it (they accept a
    capture and feed it); the model layers never do.
``obs.spans``, ``obs.aggregate``, ``obs.tail``
    The distributed-observability core the runner builds on: only
    ``core`` and sibling ``obs`` modules, so watching a campaign never
    loads the orchestration layer (the tail reads the runner's journal
    as plain JSONL).
``hdl``, ``sim``, ``synth``
    The back-ends, over the model, the IR and the number system; the
    generators and synthesis reuse ``sim``'s stimuli, and ``sim`` feeds
    ``obs``.
``verify``
    Campaigns and lockstep runs drive the engines.
``designs``, ``dsp``
    The reference designs are captured models with their simulation
    stimuli; ``dsp`` is plain algorithm-level Python.
``runner``
    The orchestration layer, the top of the stack: it may import
    anything, and no other row names it, so campaigns, engines and
    observability stay usable (and testable) without the multiprocess
    machinery.

Two rules are not import edges, and are checked beside the table:

* No subpackage imports another's private (``_``-prefixed) or star
  names.  A public cross-import is a documented API; a private one
  couples two layers' internals, as it once coupled the Verilog
  generator to the VHDL generator's.
* ``core``, ``ir``, ``fixpt`` and ``lint`` define no lane or batch
  names: what a signal computes never knows how many stimuli evaluate
  it at once.  That machinery lives in ``sim``, ``synth`` and
  ``verify``.

Run from the repository root (exit 1 on a violation)::

    python tools/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple

PACKAGE = "repro"
#: Importer -> the subpackages and modules it may import.
ALLOWED = {
    "core": {"fixpt"},
    "fixpt": {"core"},
    "ir": {"core", "fixpt"},
    "ir.equiv": {"ir", "core", "fixpt", "lint.interval"},
    "ir.passes": {"ir", "core", "fixpt", "lint.bits"},
    "lint": {"core", "fixpt", "ir"},
    "lint.bits": {"core", "fixpt", "ir", "lint.interval"},
    "obs": {"core", "fixpt"},
    "obs.spans": {"obs", "core"},
    "obs.aggregate": {"obs", "core"},
    "obs.tail": {"obs", "core"},
    "hdl": {"core", "fixpt", "ir", "sim"},
    "sim": {"core", "fixpt", "ir", "obs"},
    "synth": {"core", "fixpt", "ir", "sim"},
    "verify": {"core", "fixpt", "ir", "sim", "synth"},
    "designs": {"core", "dsp", "fixpt", "sim"},
    "dsp": set(),
    "runner": {"*"},
}
#: Modules importable from outside their subpackage only by name.
TARGETS = {"ir.equiv", "lint.interval", "lint.bits"}
#: Subpackages that define no lane or batch names.
LANE_FREE = ("core", "ir", "fixpt", "lint")
LANE_WORDS = ("lane", "batch")


def _resolve(package: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted module a ``from ... import`` statement targets."""
    if node.level == 0:
        return node.module
    parts = package.split(".")
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - (node.level - 1)]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _imports(tree: ast.AST,
             package: str) -> Iterator[Tuple[int, str, Sequence[str]]]:
    """Each import: (line, dotted module, names a ``from`` takes)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = _resolve(package, node)
            if module is not None:
                yield node.lineno, module, [a.name for a in node.names]


def _reached(module: str, names: Sequence[str]) -> Set[str]:
    """The table entries one import reaches: a subpackage, or a module
    of :data:`TARGETS` (which a ``from`` may take as a name)."""
    reached = set()
    for dotted in [f"{module}.{name}" for name in names] or [module]:
        parts = dotted.split(".")
        if parts[0] != PACKAGE or len(parts) < 2:
            continue
        target = ".".join(parts[1:3])
        reached.add(target if target in TARGETS else parts[1])
    return reached


def _allows(row: str, own: str, target: str) -> bool:
    """Whether importer *row*, in subpackage *own*, may import *target*."""
    allowed = ALLOWED[row]
    if "*" in allowed or target in allowed:
        return True
    sub = target.split(".")[0]
    if target in TARGETS and sub != own:
        return False
    return sub in allowed or (sub == own and row == own)


def _lane_names(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """Definitions, arguments and assigned names that mention lanes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store):
            name = node.attr
        else:
            continue
        if any(word in name.lower() for word in LANE_WORDS):
            yield node.lineno, name


def check(src_root: Path) -> Tuple[int, List[str]]:
    """Modules checked under *src_root*, and every violation found."""
    paths = [path for path in sorted((src_root / PACKAGE).rglob("*.py"))
             if len(path.relative_to(src_root).parts) > 2]
    subpackages = {path.relative_to(src_root).parts[1] for path in paths}
    violations = [f"{PACKAGE}/{own}: subpackage {own!r} has no row"
                  for own in sorted(subpackages - ALLOWED.keys())]
    for path in paths:
        rel = path.relative_to(src_root)
        parts = rel.with_suffix("").parts
        own = parts[1]
        if own not in ALLOWED:
            continue
        module = f"{own}.{parts[2]}"
        row = module if module in ALLOWED else own
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, dotted, names in _imports(tree, ".".join(parts[:-1])):
            for target in sorted(_reached(dotted, names)):
                if not _allows(row, own, target):
                    violations.append(f"{rel}:{lineno}: {row} may not "
                                      f"import {target} ({dotted})")
            head = dotted.split(".")
            if head[0] == PACKAGE and len(head) > 1 and head[1] != own:
                for name in names:
                    if name.startswith("_") or name == "*":
                        violations.append(
                            f"{rel}:{lineno}: imports private name "
                            f"{name!r} from {dotted}")
        if own in LANE_FREE:
            for lineno, name in _lane_names(tree):
                violations.append(
                    f"{rel}:{lineno}: {own} defines {name!r}; lane and "
                    f"batch machinery belongs to sim, synth and verify")
    return len(paths), violations


def main(argv: Tuple[str, ...] = ()) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    count, violations = check(root / "src")
    if violations:
        print("layering violations:")
        for message in violations:
            print(f"  {message}")
        return 1
    print(f"layering clean: every import of {count} modules is in the table")
    return 0


if __name__ == "__main__":
    sys.exit(main(tuple(sys.argv[1:])))
