"""Gaussian Processing Element (GPE) model.

A GPE renders the pixels of a 4x4 patch: for every Gaussian of the tile it
evaluates the alpha (stage 1) and, if the alpha is significant, performs
the serial alpha-blending update (stage 2).  During training it also
computes per-Gaussian gradients.  The model exposes per-stage cycle costs
so the GPE scheduler can redistribute stage-1 work between GPEs.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.costs import (
    CYCLES_ALPHA_STAGE,
    CYCLES_BLEND_STAGE,
    CYCLES_GRADIENT_STAGE,
)

__all__ = ["GpeWork", "Gpe"]


@dataclasses.dataclass
class GpeWork:
    """Work assigned to one GPE for one tile.

    Attributes:
        alpha_evaluations: stage-1 evaluations (independent, schedulable).
        blend_operations: stage-2 blending steps (serial per pixel).
        gradient_operations: backward-pass operations.
    """

    alpha_evaluations: int = 0
    blend_operations: int = 0
    gradient_operations: int = 0

    def cycles(self) -> float:
        """Cycles to execute this work on one GPE without assistance."""
        return (
            self.alpha_evaluations * CYCLES_ALPHA_STAGE
            + self.blend_operations * CYCLES_BLEND_STAGE
            + self.gradient_operations * CYCLES_GRADIENT_STAGE
        )


class Gpe:
    """A single GPE: accumulates work and reports busy cycles."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.busy_cycles = 0.0
        self.assisted_cycles = 0.0

    def execute(self, work: GpeWork) -> float:
        """Execute work locally; returns the cycles consumed."""
        cycles = work.cycles()
        self.busy_cycles += cycles
        return cycles

    def assist(self, cycles: float) -> None:
        """Account stage-1 cycles executed on behalf of another GPE."""
        self.busy_cycles += cycles
        self.assisted_cycles += cycles

    def reset(self) -> None:
        """Clear accumulated counters."""
        self.busy_cycles = 0.0
        self.assisted_cycles = 0.0
