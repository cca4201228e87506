"""Typed three-address IR shared by all four back-ends.

``lower`` turns Expr DAGs / SFGs into :class:`IRBlock` values with all
fixed-point alignment explicit; ``passes`` optimizes blocks (constant
folding, algebraic simplification, CSE, DCE); the compiled simulator,
both HDL generators and the datapath synthesizer render the result.
"""

from .equiv import (
    Counterexample,
    EquivReport,
    PassEquivalenceError,
    VALIDATE_MODES,
    check_blocks,
    observable_srclocs,
)
from .formats import sig_fmt, vector_width
from .lower import Lowerer, lower_assignments, lower_expr, lower_sfg
from .ops import (
    IRBlock,
    IROp,
    Store,
    execute,
    quantize_raw_at,
    sign_fold,
)
from .passes import (
    AGGRESSIVE_PASSES,
    DEFAULT_PASSES,
    ENGINE_PASSES,
    NARROW_PASSES,
    PIPELINES,
    PassManager,
    algebraic_simplify,
    cse,
    constant_fold,
    dce,
    elide_quantize,
    narrow_bitwidth,
    resolve_pipeline,
    restructure_mux,
    run_passes,
    strength_reduce,
)

__all__ = [
    "AGGRESSIVE_PASSES",
    "Counterexample",
    "DEFAULT_PASSES",
    "ENGINE_PASSES",
    "NARROW_PASSES",
    "EquivReport",
    "IRBlock",
    "IROp",
    "Lowerer",
    "PIPELINES",
    "PassEquivalenceError",
    "PassManager",
    "Store",
    "VALIDATE_MODES",
    "algebraic_simplify",
    "check_blocks",
    "cse",
    "constant_fold",
    "dce",
    "elide_quantize",
    "execute",
    "lower_assignments",
    "lower_expr",
    "lower_sfg",
    "narrow_bitwidth",
    "observable_srclocs",
    "quantize_raw_at",
    "resolve_pipeline",
    "restructure_mux",
    "run_passes",
    "sig_fmt",
    "sign_fold",
    "strength_reduce",
    "vector_width",
]
