"""Design registry: name -> a callable that synthesizes a netlist.

Workers are separate processes, so a job cannot carry a live netlist or
a closure — it carries a *design spec string* every process resolves
identically:

* a registry name (``"hcor"``, ``"and2"``) for the built-in reference
  designs, or
* a dotted path ``"package.module:function"`` naming any importable
  callable that returns a :class:`~repro.synth.netlist.Netlist`.

Builders accept ``ir_passes`` (threaded from the job spec, part of the
artifact-cache key; ``False`` synthesizes with ``passes=()``) plus the
job's ``design_kwargs``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

from .errors import RunnerError


def build_hcor_netlist(ir_passes: bool = True, **kwargs):
    """The synthesized DECT header-correlator netlist (Table 1 design)."""
    from ..designs.hcor import build_hcor
    from ..synth.flow import synthesize_process

    design = build_hcor(**kwargs)
    return synthesize_process(design.process,
                              passes=None if ir_passes else ()).netlist


def build_and2_netlist(ir_passes: bool = True, **kwargs):
    """``y = a & b`` — the smallest useful runner smoke target."""
    from ..synth.gates import GateKind
    from ..synth.netlist import Netlist

    nl = Netlist("and2")
    a = nl.add_input("a", 1)
    b = nl.add_input("b", 1)
    y = nl.add(GateKind.AND2, [a[0], b[0]])
    nl.set_output("y", [y])
    return nl


_BUILTIN: Dict[str, Callable] = {
    "hcor": build_hcor_netlist,
    "and2": build_and2_netlist,
}


def resolve_design(design: str) -> Callable:
    """The builder callable a design spec string names."""
    if ":" in design:
        module_name, _, attr = design.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise RunnerError(
                f"design spec {design!r}: cannot import {module_name!r} "
                f"({exc})"
            ) from None
        builder = getattr(module, attr, None)
        if not callable(builder):
            raise RunnerError(
                f"design spec {design!r}: {module_name}.{attr} is not a "
                "callable netlist builder"
            )
        return builder
    builder = _BUILTIN.get(design)
    if builder is None:
        raise RunnerError(
            f"unknown design {design!r}; built-ins: "
            f"{', '.join(sorted(_BUILTIN))} (or use 'module:function')"
        )
    return builder
