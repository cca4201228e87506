"""The import-layering contracts, enforced as a test and in CI.

Seeded trees go through the script's own entry point,
``main((root,))``, so each case checks what CI checks: the exit status
and the violations printed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO / "tools" / "check_layering.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_layering"] = module
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    """Write *files* (``"sub/module.py"`` -> source) under
    ``root/src/repro``, each subpackage with an ``__init__.py``."""
    pkg = root / "src" / "repro"
    for name, source in files.items():
        path = pkg / name
        path.parent.mkdir(parents=True, exist_ok=True)
        (path.parent / "__init__.py").touch()
        path.write_text(source)


def _check(root, capsys):
    """Run the checker on *root*: its exit status and the violations it
    printed, one per line."""
    status = _load_checker().main((str(root),))
    out = capsys.readouterr().out
    return status, [line.strip() for line in out.splitlines()
                    if line.startswith("  ")]


def _flags(root, capsys, location, *named):
    """Assert that the checker fails on *root* and that every violation
    it prints is at *location* (``"repro/sub/module.py:line"``) and
    names each of *named*."""
    status, violations = _check(root, capsys)
    assert status == 1 and violations
    for message in violations:
        assert message.startswith(location + ":"), violations
        assert all(name in message for name in named), violations


def _rows(sub):
    """The table's rows for subpackage *sub* and for its modules."""
    return [row for key, row in _load_checker().ALLOWED.items()
            if key.split(".")[0] == sub]


def _reaches(row, sub):
    """Whether *row* lets its importer reach subpackage *sub*."""
    return "*" in row or any(entry.split(".")[0] == sub for entry in row)


def test_no_private_cross_layer_imports(capsys):
    """The tree obeys the table and the two rules beside it."""
    assert _check(REPO, capsys) == (0, [])


def test_checker_catches_a_violation(tmp_path, capsys):
    """The tool itself must flag a private cross-layer import."""
    _tree(tmp_path, {"hdl/gen.py": "from ..sim.compiled import _PyEmitter\n",
                     "sim/compiled.py": "", "synth/flow.py": ""})
    _flags(tmp_path, capsys, "repro/hdl/gen.py:1", "'_PyEmitter'",
           "repro.sim.compiled")

    # A public cross-layer import stays allowed.
    _tree(tmp_path, {"hdl/gen.py":
                     "from ..sim.compiled import CompiledSimulator\n"})
    assert _check(tmp_path, capsys) == (0, [])


def test_lint_layer_contract_holds():
    """The table keeps the linter an analysis layer over core/ir/fixpt
    that no back-end imports."""
    for row in _rows("lint"):
        assert row - {"lint.interval"} <= {"core", "ir", "fixpt"}, row
    for sub in ("sim", "hdl", "synth"):
        assert not any(_reaches(row, "lint") for row in _rows(sub)), sub


def test_lint_layer_checker_catches_violations(tmp_path, capsys):
    """repro.lint may import only core/ir/fixpt, and no back-end may
    import repro.lint."""
    _tree(tmp_path, {f"{sub}/__init__.py": ""
                     for sub in ("lint", "core", "sim", "hdl", "synth")})

    # The linter reaching into a back-end is a violation.
    _tree(tmp_path, {"lint/rules.py":
                     "from ..sim.compiled import CompiledSimulator\n"})
    _flags(tmp_path, capsys, "repro/lint/rules.py:1", "repro.sim.compiled")

    # A back-end importing the linter is a violation.
    _tree(tmp_path, {"lint/rules.py": "from ..core.sfg import SFG\n",
                     "sim/engine.py": "import repro.lint\n"})
    _flags(tmp_path, capsys, "repro/sim/engine.py:1", "repro.lint")

    # The allowed dependencies are quiet.
    _tree(tmp_path, {"sim/engine.py": "from ..core.sfg import SFG\n"})
    assert _check(tmp_path, capsys) == (0, [])


def test_obs_layer_contract_holds():
    """The table keeps obs over the model layers, which never import
    it."""
    for row in _rows("obs"):
        assert row <= {"obs", "core", "ir", "fixpt"}, row
    for sub in ("core", "ir", "fixpt"):
        assert not any(_reaches(row, "obs") for row in _rows(sub)), sub


def test_obs_layer_checker_catches_violations(tmp_path, capsys):
    """repro.obs may import only core/ir/fixpt, and no model layer
    (core/ir/fixpt) may import repro.obs; engines may."""
    _tree(tmp_path, {f"{sub}/__init__.py": ""
                     for sub in ("obs", "core", "ir", "fixpt", "sim")})

    # The observability layer reaching into an engine is a violation.
    _tree(tmp_path, {"obs/capture.py":
                     "from ..sim.cycle import CycleScheduler\n"})
    _flags(tmp_path, capsys, "repro/obs/capture.py:1", "repro.sim.cycle")

    # A model layer importing obs is a violation.
    _tree(tmp_path, {"obs/capture.py": "from ..core.sfg import SFG\n",
                     "core/signal.py": "import repro.obs\n"})
    _flags(tmp_path, capsys, "repro/core/signal.py:1", "repro.obs")

    # An engine importing obs is the intended direction — quiet.
    _tree(tmp_path, {"core/signal.py": "",
                     "sim/cycle.py": "from ..obs.capture import Capture\n"})
    assert _check(tmp_path, capsys) == (0, [])


def test_lane_layer_contract_holds():
    """No row of a scalar-semantics layer names an engine package."""
    for sub in ("core", "ir", "fixpt", "lint"):
        for engine in ("sim", "synth", "verify"):
            assert not any(_reaches(row, engine) for row in _rows(sub)), \
                (sub, engine)


def test_runner_is_the_top_layer():
    """Only the runner's own row reaches repro.runner."""
    rows = _load_checker().ALLOWED
    assert [key for key, row in rows.items() if _reaches(row, "runner")] == \
        ["runner"]


def test_lane_layer_checker_catches_violations(tmp_path, capsys):
    """core/ir/fixpt/lint stay lane-agnostic: no engine imports, no
    lane/batch-named definitions; engines own that machinery."""
    _tree(tmp_path, {f"{sub}/__init__.py": "" for sub in (
        "core", "ir", "fixpt", "lint", "sim", "synth", "verify")})

    # A scalar-semantics layer importing an engine is a violation.
    _tree(tmp_path, {"ir/ops.py":
                     "from ..sim.batched import BatchedCompiledSimulator\n"})
    _flags(tmp_path, capsys, "repro/ir/ops.py:1", "repro.sim.batched")
    _tree(tmp_path, {"ir/ops.py": ""})

    # Lane/batch-named machinery in a scalar layer is a violation —
    # whether a function, an argument or an assigned attribute.
    _tree(tmp_path, {"core/signal.py":
                     "def evaluate(lane_count):\n    pass\n"})
    _flags(tmp_path, capsys, "repro/core/signal.py:1", "'lane_count'")

    _tree(tmp_path, {"core/signal.py":
                     "class Sig:\n    def __init__(self):\n"
                     "        self.batch = 1\n"})
    _flags(tmp_path, capsys, "repro/core/signal.py:3", "'batch'")

    # The same names inside an engine package are the intended home.
    _tree(tmp_path, {"core/signal.py": "",
                     "sim/batched.py": "def step_lanes(lanes):\n"
                                       "    batch = lanes\n"
                                       "    return batch\n"})
    assert _check(tmp_path, capsys) == (0, [])


#: One import per case: (contract, importing file, its source, the
#: dotted module the violation names).
SEEDED = [
    (5, "verify/campaign.py", "from ..runner import Runner\n",
     "repro.runner"),
    (6, "ir/lower.py", "from ..lint.interval import analyze\n",
     "repro.lint.interval"),
    (6, "ir/equiv.py", "from ..lint.rules_sfg import DanglingInput\n",
     "repro.lint.rules_sfg"),
    (6, "sim/compiled.py", "from ..ir.equiv import check_blocks\n",
     "repro.ir.equiv"),
    (7, "lint/bits.py", "from .linter import Linter\n",
     "repro.lint.linter"),
    (7, "lint/bits.py", "from ..sim.compiled import CompiledSimulator\n",
     "repro.sim.compiled"),
    (7, "hdl/vhdl.py", "from ..lint.bits import narrow_block\n",
     "repro.lint.bits"),
    (8, "obs/spans.py", "from ..ir.ops import Op\n", "repro.ir.ops"),
]


@pytest.mark.parametrize(
    "contract, importer, source, target", SEEDED,
    ids=[f"{contract}-{importer}-{target}"
         for contract, importer, source, target in SEEDED])
def test_seeded_violation_is_flagged(tmp_path, capsys, contract, importer,
                                     source, target):
    _tree(tmp_path, {importer: source})
    _flags(tmp_path, capsys, f"repro/{importer}:1", target)


#: Edges the contracts sanction: each must stay quiet.
ALLOWED = [
    ("runner/jobs.py", "from ..verify import FaultCampaign\n"
                       "from ..ir.equiv import check_blocks\n"),
    ("ir/equiv.py", "from ..lint.interval import analyze\n"
                    "from .ops import Op\n"),
    ("ir/passes.py", "from ..lint.bits import narrow_block\n"
                     "from .equiv import check_blocks\n"),
    ("sim/compiled.py", "from ..ir.passes import PassManager\n"),
    ("lint/bits.py", "from .interval import Interval\n"
                     "from ..ir.ops import Op\n"),
    ("obs/spans.py", "from ..core.errors import ReproError\n"
                     "from .metrics import MetricsRegistry\n"),
]


@pytest.mark.parametrize("importer, source", ALLOWED,
                         ids=[importer for importer, _ in ALLOWED])
def test_sanctioned_edge_is_quiet(tmp_path, capsys, importer, source):
    _tree(tmp_path, {importer: source})
    assert _check(tmp_path, capsys) == (0, [])


def test_core_importing_lint_is_flagged(tmp_path, capsys):
    """The model never imports its analyzer: an edge only the table
    states."""
    _tree(tmp_path, {"core/checks.py": "from ..lint import Linter\n"})
    _flags(tmp_path, capsys, "repro/core/checks.py:1", "repro.lint")


def test_private_names_flagged_between_any_subpackages(tmp_path, capsys):
    _tree(tmp_path, {"verify/campaign.py":
                     "from ..synth.gatesim import _python_kernel\n"})
    _flags(tmp_path, capsys, "repro/verify/campaign.py:1",
           "'_python_kernel'", "repro.synth.gatesim")

    # Within one subpackage a private import is its own business.
    _tree(tmp_path, {"verify/campaign.py":
                     "from .guard import _budget\n"})
    assert _check(tmp_path, capsys) == (0, [])


def test_subpackage_without_a_row_is_flagged(tmp_path, capsys):
    _tree(tmp_path, {"newpkg/module.py": "from ..core import Sig\n"})
    _flags(tmp_path, capsys, "repro/newpkg", "'newpkg'")
