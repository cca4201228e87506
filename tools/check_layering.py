#!/usr/bin/env python
"""Import-layering check for the back-end subpackages and the linter.

Two layering contracts are enforced by walking every module with
:mod:`ast` (exit 1 on violation):

1. The lowered IR (:mod:`repro.ir`) is the one shared layer between the
   back-ends; ``repro.hdl``, ``repro.sim`` and ``repro.synth`` must not
   reach into each other's private names (no underscore-prefixed or
   star imports from a *different* back-end subpackage).  Public
   cross-imports (a documented API) are allowed; private ones are the
   layering violations that used to couple the Verilog generator to
   VHDL internals.

2. ``repro.lint`` is an *analysis* layer: it may depend only on the
   model (``repro.core``), the shared IR (``repro.ir``) and the number
   system (``repro.fixpt``) — never on a back-end — and nothing in
   ``repro.sim``/``repro.hdl``/``repro.synth`` may import ``repro.lint``
   (the back-ends must stay buildable without the analyzer).

3. ``repro.obs`` is the *observability* layer: like the linter it may
   depend only on ``core``/``ir``/``fixpt``.  Engines import obs (they
   accept a capture and feed it), never the reverse — and the model
   layers obs builds on (``core``/``ir``/``fixpt``) must not import
   obs, or instrumentation would become load-bearing.

4. Lane/batch machinery lives only in the engines (``repro.sim``,
   ``repro.synth``, ``repro.verify``).  The scalar-semantics layers —
   ``repro.core``, ``repro.ir``, ``repro.fixpt`` and ``repro.lint`` —
   stay lane-agnostic: they must not import an engine package, and no
   definition, argument or assigned name in them may mention lanes or
   batches ("what a signal computes" never knows "how many stimuli
   evaluate it at once").

5. ``repro.runner`` is the *orchestration* layer — the top of the
   stack.  It may import anything, but nothing else in ``repro`` may
   import it: campaigns, engines and the observability layer must stay
   fully usable (and testable) without the multiprocess machinery.

6. Translation validation (``repro.ir.equiv``) sits between the IR and
   the analysis layer: within ``repro.ir`` only ``equiv.py`` may import
   ``repro.lint``, and only the interval domain
   (``repro.lint.interval``) — plus the one edge contract 7 sanctions.
   Engines (``sim``/``hdl``/``synth``) never import ``repro.ir.equiv``
   directly — they state equivalence obligations through the
   ``PassManager``'s ``validate=`` knob, so the back-ends stay buildable
   without the checker's internals.

7. The bit-level domain (``repro.lint.bits``) is a leaf analysis: it
   may import only ``repro.core``, ``repro.ir``, ``repro.fixpt`` and
   its sibling interval domain (``repro.lint.interval``) — never the
   rule modules, the linter driver, or a back-end.  Within ``repro.ir``
   exactly one module may reach back into it: ``passes.py`` (lazily,
   for the ``narrow_bitwidth`` and ``elide_quantize`` passes),
   mirroring the ``equiv.py`` -> ``lint.interval`` edge of contract 6.
   Engines never import ``repro.lint.bits``: narrowing and quantize
   elision reach them only as ordinary validated passes in a pipeline.

8. The distributed-observability core — ``repro.obs.spans``,
   ``repro.obs.aggregate`` and ``repro.obs.tail`` — is what the
   orchestration layer builds *on*, so it must be importable without
   it: those modules may import only ``repro.core`` and sibling
   ``repro.obs`` modules (not even ``ir``/``fixpt``; ``repro.runner``
   is already banned package-wide by contract 5 — the tail reads the
   runner's journal as plain JSONL precisely so watching a campaign
   never loads the orchestration layer).

Run from the repository root::

    python tools/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

#: Back-end subpackages that must stay privately independent.
LAYERS = ("hdl", "sim", "synth")
#: Subpackages repro.lint is allowed to import from.
LINT_MAY_IMPORT = ("lint", "core", "ir", "fixpt")
#: Subpackages that must not depend on repro.lint.
LINT_FREE = ("sim", "hdl", "synth")
#: Subpackages repro.obs is allowed to import from.
OBS_MAY_IMPORT = ("obs", "core", "ir", "fixpt")
#: Model layers that must not depend on repro.obs (engines *may* import
#: obs — that direction is the whole point).
OBS_FREE = ("core", "ir", "fixpt")
#: Scalar-semantics layers that must stay lane-agnostic.
LANE_FREE = ("core", "ir", "fixpt", "lint")
#: Engine packages allowed to own lane/batch machinery.
LANE_OWNERS = ("sim", "synth", "verify")
#: Identifier fragments that mark lane/batch machinery.
LANE_WORDS = ("lane", "batch")
#: The orchestration layer nothing else may depend on.
TOP_LAYER = "runner"
#: The one repro.ir module allowed to import repro.lint, and the one
#: lint module it may reach.
EQUIV_MODULE = ("ir", "equiv.py")
EQUIV_MAY_IMPORT = "repro.lint.interval"
#: Engine packages that must not import repro.ir.equiv directly.
EQUIV_FREE = ("sim", "hdl", "synth")
#: The sanctioned repro.ir -> repro.lint edges: module file -> the one
#: lint module it may import (contracts 6 and 7).
IR_LINT_EDGES = {
    ("ir", "equiv.py"): "repro.lint.interval",
    ("ir", "passes.py"): "repro.lint.bits",
}
#: Contract 7: the bit-level domain module and its permitted imports.
BITS_MODULE = ("lint", "bits.py")
BITS_MAY_IMPORT = ("core", "ir", "fixpt")
BITS_LINT_MAY_IMPORT = ("repro.lint.interval",)
#: Engine packages that must not import repro.lint.bits.
BITS_FREE = ("sim", "hdl", "synth")
#: Contract 8: the distributed-observability core modules and the only
#: subpackages they may import.
SPANS_MODULES = ("spans.py", "aggregate.py", "tail.py")
SPANS_MAY_IMPORT = ("obs", "core")
PACKAGE = "repro"


def _resolve(module_pkg: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted module a ``from ... import`` statement targets."""
    if node.level == 0:
        return node.module
    parts = module_pkg.split(".")
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - (node.level - 1)]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _layer_of(dotted: str) -> Optional[str]:
    parts = dotted.split(".")
    if len(parts) >= 2 and parts[0] == PACKAGE and parts[1] in LAYERS:
        return parts[1]
    return None


def _subpackage_of(dotted: str) -> Optional[str]:
    parts = dotted.split(".")
    if len(parts) >= 2 and parts[0] == PACKAGE:
        return parts[1]
    return None


def _imports(src_root: Path, subpackage: str) -> Iterator[Tuple[Path, int, str]]:
    """Every absolute import target in *subpackage*: (file, line, dotted)."""
    for path in sorted((src_root / PACKAGE / subpackage).rglob("*.py")):
        rel = path.relative_to(src_root)
        module_pkg = ".".join(rel.with_suffix("").parts[:-1])
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield rel, node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                target = _resolve(module_pkg, node)
                if target is not None:
                    yield rel, node.lineno, target


def check_tree(src_root: Path) -> List[str]:
    """All private cross-layer imports under *src_root*, as messages."""
    violations: List[str] = []
    for layer in LAYERS:
        for path in sorted((src_root / PACKAGE / layer).rglob("*.py")):
            rel = path.relative_to(src_root)
            module_pkg = ".".join(rel.with_suffix("").parts[:-1])
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                target = _resolve(module_pkg, node)
                if target is None:
                    continue
                target_layer = _layer_of(target)
                if target_layer is None or target_layer == layer:
                    continue
                private = [
                    alias.name for alias in node.names
                    if alias.name.startswith("_") or alias.name == "*"
                ]
                for name in private:
                    violations.append(
                        f"{rel}:{node.lineno}: imports private name "
                        f"{name!r} from {target} (layer {target_layer!r} "
                        f"!= {layer!r})"
                    )
    return violations


def check_lint_layer(src_root: Path) -> List[str]:
    """Violations of the repro.lint dependency contract, as messages."""
    violations: List[str] = []
    for rel, lineno, target in _imports(src_root, "lint"):
        subpackage = _subpackage_of(target)
        if subpackage is not None and subpackage not in LINT_MAY_IMPORT:
            violations.append(
                f"{rel}:{lineno}: repro.lint imports {target} — the "
                f"linter may depend only on "
                f"{', '.join(sorted(set(LINT_MAY_IMPORT) - {'lint'}))}"
            )
    for subpackage in LINT_FREE:
        for rel, lineno, target in _imports(src_root, subpackage):
            if _subpackage_of(target) == "lint":
                violations.append(
                    f"{rel}:{lineno}: repro.{subpackage} imports {target} — "
                    "back-ends must not depend on repro.lint"
                )
    return violations


def check_obs_layer(src_root: Path) -> List[str]:
    """Violations of the repro.obs dependency contract, as messages."""
    violations: List[str] = []
    if (src_root / PACKAGE / "obs").is_dir():
        for rel, lineno, target in _imports(src_root, "obs"):
            subpackage = _subpackage_of(target)
            if subpackage is not None and subpackage not in OBS_MAY_IMPORT:
                violations.append(
                    f"{rel}:{lineno}: repro.obs imports {target} — the "
                    f"observability layer may depend only on "
                    f"{', '.join(sorted(set(OBS_MAY_IMPORT) - {'obs'}))}"
                )
    for subpackage in OBS_FREE:
        if not (src_root / PACKAGE / subpackage).is_dir():
            continue
        for rel, lineno, target in _imports(src_root, subpackage):
            if _subpackage_of(target) == "obs":
                violations.append(
                    f"{rel}:{lineno}: repro.{subpackage} imports {target} — "
                    "model layers must not depend on repro.obs"
                )
    return violations


def _lane_named(name: str) -> bool:
    lowered = name.lower()
    return any(word in lowered for word in LANE_WORDS)


def check_lane_layer(src_root: Path) -> List[str]:
    """Violations of the lane-agnosticism contract, as messages."""
    violations: List[str] = []
    for subpackage in LANE_FREE:
        pkg = src_root / PACKAGE / subpackage
        if not pkg.is_dir():
            continue
        for rel, lineno, target in _imports(src_root, subpackage):
            if _subpackage_of(target) in LANE_OWNERS:
                violations.append(
                    f"{rel}:{lineno}: repro.{subpackage} imports {target} — "
                    "scalar-semantics layers must not depend on an engine "
                    "package"
                )
        for path in sorted(pkg.rglob("*.py")):
            rel = path.relative_to(src_root)
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                names: List[str] = []
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.append(node.name)
                elif isinstance(node, ast.arg):
                    names.append(node.arg)
                elif isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Store):
                    names.append(node.id)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store):
                    names.append(node.attr)
                for name in names:
                    if _lane_named(name):
                        violations.append(
                            f"{rel}:{node.lineno}: repro.{subpackage} "
                            f"defines {name!r} — lane/batch machinery "
                            f"belongs to {', '.join(LANE_OWNERS)} only"
                        )
    return violations


def check_runner_layer(src_root: Path) -> List[str]:
    """Violations of the repro.runner top-layer contract, as messages."""
    violations: List[str] = []
    for pkg in sorted((src_root / PACKAGE).iterdir()):
        if not pkg.is_dir() or pkg.name == TOP_LAYER:
            continue
        for rel, lineno, target in _imports(src_root, pkg.name):
            if _subpackage_of(target) == TOP_LAYER:
                violations.append(
                    f"{rel}:{lineno}: repro.{pkg.name} imports {target} — "
                    "repro.runner is the top orchestration layer; nothing "
                    "may depend on it"
                )
    return violations


def check_equiv_layer(src_root: Path) -> List[str]:
    """Violations of the translation-validation contract, as messages."""
    violations: List[str] = []
    allowed = {Path(PACKAGE) / pkg / name: target
               for (pkg, name), target in IR_LINT_EDGES.items()}
    for rel, lineno, target in _imports(src_root, "ir"):
        if _subpackage_of(target) != "lint":
            continue
        if rel not in allowed:
            edges = ", ".join(str(path) for path in sorted(allowed))
            violations.append(
                f"{rel}:{lineno}: repro.ir imports {target} — within "
                f"repro.ir only {edges} may import repro.lint"
            )
        elif target != allowed[rel]:
            violations.append(
                f"{rel}:{lineno}: imports {target} — {rel} may only "
                f"import {allowed[rel]}"
            )
    for subpackage in EQUIV_FREE:
        for rel, lineno, target in _imports(src_root, subpackage):
            if target == f"{PACKAGE}.ir.equiv" \
                    or target.startswith(f"{PACKAGE}.ir.equiv."):
                violations.append(
                    f"{rel}:{lineno}: repro.{subpackage} imports {target} — "
                    "engines state equivalence obligations through "
                    "PassManager(validate=...), never by importing "
                    "repro.ir.equiv"
                )
    return violations


def check_bits_layer(src_root: Path) -> List[str]:
    """Violations of the bit-level-domain contract (7), as messages."""
    violations: List[str] = []
    bits_rel = Path(PACKAGE) / BITS_MODULE[0] / BITS_MODULE[1]
    for rel, lineno, target in _imports(src_root, BITS_MODULE[0]):
        if rel != bits_rel:
            continue
        subpackage = _subpackage_of(target)
        if subpackage is None:
            continue  # stdlib / third-party
        if subpackage in BITS_MAY_IMPORT:
            continue
        if subpackage == "lint":
            if target in BITS_LINT_MAY_IMPORT or any(
                    target.startswith(ok + ".")
                    for ok in BITS_LINT_MAY_IMPORT):
                continue
            violations.append(
                f"{rel}:{lineno}: lint/bits imports {target} — within "
                f"repro.lint the bit domain may only import "
                f"{', '.join(BITS_LINT_MAY_IMPORT)}"
            )
            continue
        violations.append(
            f"{rel}:{lineno}: lint/bits imports {target} — the bit "
            f"domain may depend only on "
            f"{', '.join(BITS_MAY_IMPORT)} and "
            f"{', '.join(BITS_LINT_MAY_IMPORT)}"
        )
    for subpackage in BITS_FREE:
        for rel, lineno, target in _imports(src_root, subpackage):
            if target == f"{PACKAGE}.lint.bits" \
                    or target.startswith(f"{PACKAGE}.lint.bits."):
                violations.append(
                    f"{rel}:{lineno}: repro.{subpackage} imports {target} — "
                    "engines see bit narrowing only as a validated pass in "
                    "a pipeline, never by importing repro.lint.bits"
                )
    return violations


def check_spans_layer(src_root: Path) -> List[str]:
    """Violations of the distributed-obs-core contract (8), as messages."""
    violations: List[str] = []
    core = {Path(PACKAGE) / "obs" / name for name in SPANS_MODULES}
    for rel, lineno, target in _imports(src_root, "obs"):
        if rel not in core:
            continue
        subpackage = _subpackage_of(target)
        if subpackage is None or subpackage in SPANS_MAY_IMPORT:
            continue
        violations.append(
            f"{rel}:{lineno}: imports {target} — the distributed-obs "
            f"core ({', '.join(SPANS_MODULES)}) may depend only on "
            f"repro.core and sibling repro.obs modules"
        )
    return violations


def main(argv: Tuple[str, ...] = ()) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    src_root = root / "src"
    violations = (check_tree(src_root) + check_lint_layer(src_root)
                  + check_obs_layer(src_root) + check_lane_layer(src_root)
                  + check_runner_layer(src_root)
                  + check_equiv_layer(src_root)
                  + check_bits_layer(src_root)
                  + check_spans_layer(src_root))
    if violations:
        print("layering violations:")
        for message in violations:
            print(f"  {message}")
        return 1
    print(f"layering clean: {', '.join(LAYERS)} share no private names; "
          "repro.lint depends only on core/ir/fixpt and no back-end "
          "imports it; repro.obs depends only on core/ir/fixpt and no "
          "model layer imports it; core/ir/fixpt/lint are lane-agnostic; "
          "nothing imports repro.runner; the only ir->lint edges are "
          "ir/equiv->lint.interval and ir/passes->lint.bits, no engine "
          "imports ir.equiv; lint/bits depends only on core/ir/fixpt "
          "plus lint.interval and no engine imports it; obs "
          "spans/aggregate/tail depend only on core and sibling obs "
          "modules")
    return 0


if __name__ == "__main__":
    sys.exit(main(tuple(sys.argv[1:])))
