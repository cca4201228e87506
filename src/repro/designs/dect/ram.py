"""The transceiver's RAM cells, modeled as high-level untimed blocks.

Paper, section 4: *"the RAM cells are described at high level while the
datapaths are described at clock cycle true level"* — exactly the mixed
timed/untimed situation the cycle scheduler's three phases exist for.
Each cell is a :class:`~repro.core.Ram`, the model's memory primitive.

Seven RAM cells (as in the paper's 75 Kgate complexity figure):
``samp_i``, ``samp_q`` (burst sample capture), ``coef_re``, ``coef_im``
(equalizer coefficients), ``out_a``, ``out_b`` (decoded field buffers)
and ``scratch`` (general storage for the ALU/CTL).
"""

from __future__ import annotations

from typing import Dict

from ...core import Ram


def build_rams() -> Dict[str, Ram]:
    """The transceiver's seven RAM cells."""
    return {
        "samp_i": Ram("samp_i", depth=1024),
        "samp_q": Ram("samp_q", depth=1024),
        "coef_re": Ram("coef_re", depth=16),
        "coef_im": Ram("coef_im", depth=16),
        "out_a": Ram("out_a", depth=64, write_gate=True),
        "out_b": Ram("out_b", depth=512, write_gate=True),
        "scratch": Ram("scratch", depth=64),
    }
