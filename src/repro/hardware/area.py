"""Area model of the AGS architecture (Table 3 of the paper).

Component area constants are calibrated at 28 nm / 500 MHz so that the
AGS-Edge and AGS-Server configurations reproduce the paper's per-module
area breakdown (pose tracking engine + mapping engine dominating, FC
detection engine negligible).
"""

from __future__ import annotations

import dataclasses

from repro.hardware.config import AgsHardwareConfig
from repro.hardware.sram import SRAM_AREA_MM2_PER_KB

__all__ = ["ComponentArea", "AreaReport", "area_report"]

# mm^2 per 32x32 systolic array (MAC array + accumulators + control).
_AREA_SYSTOLIC_ARRAY = 0.48
# mm^2 per 4x4 GPE group (16 GPEs with exp/blend pipelines + adder tree).
_AREA_GPE_GROUP = 0.2206
# mm^2 per update / comparison unit.
_AREA_UPDATE_UNIT = 0.0078
_AREA_COMPARISON_UNIT = 0.0006
# mm^2 per adder / comparator of the FC detection engine.
_AREA_FC_ADDER = 0.00125
_AREA_FC_COMPARATOR = 0.005


@dataclasses.dataclass
class ComponentArea:
    """Area of one architectural component."""

    engine: str
    component: str
    detail: str
    area_mm2: float


@dataclasses.dataclass
class AreaReport:
    """Full area breakdown of one AGS configuration."""

    config_name: str
    components: list[ComponentArea]

    @property
    def total_mm2(self) -> float:
        """Total chip area."""
        return float(sum(c.area_mm2 for c in self.components))

    def as_rows(self) -> list[tuple[str, str, str, float]]:
        """Rows suitable for printing a Table-3-style breakdown."""
        return [(c.engine, c.component, c.detail, round(c.area_mm2, 3)) for c in self.components]


def area_report(config: AgsHardwareConfig) -> AreaReport:
    """Compute the area breakdown of an AGS configuration."""
    components = [
        ComponentArea(
            engine="FC Detection Engine",
            component="Adders and Comparators",
            detail=f"{config.num_fc_adders} Units + {config.num_fc_comparators} Units",
            area_mm2=config.num_fc_adders * _AREA_FC_ADDER
            + config.num_fc_comparators * _AREA_FC_COMPARATOR,
        ),
        ComponentArea(
            engine="Pose Tracking Engine",
            component="Systolic Array",
            detail=f"{config.num_systolic_arrays} x ({config.systolic_dim}x{config.systolic_dim})",
            area_mm2=config.num_systolic_arrays * _AREA_SYSTOLIC_ARRAY,
        ),
        ComponentArea(
            engine="Pose Tracking Engine",
            component="NN Buffer",
            detail=f"{config.nn_buffer_kb}KB",
            area_mm2=config.nn_buffer_kb * SRAM_AREA_MM2_PER_KB * 0.4,
        ),
        ComponentArea(
            engine="Pose Tracking Engine",
            component="GS Array (Light)",
            detail=f"{config.num_light_gpe_groups} x ({config.gpe_group_dim}x{config.gpe_group_dim})",
            area_mm2=config.num_light_gpe_groups * _AREA_GPE_GROUP,
        ),
        ComponentArea(
            engine="Pose Tracking Engine",
            component="Gauss Buffer (Light)",
            detail=f"{config.gauss_buffer_light_kb}KB",
            area_mm2=config.gauss_buffer_light_kb * SRAM_AREA_MM2_PER_KB,
        ),
        ComponentArea(
            engine="Mapping Engine",
            component="GS Logging Table",
            detail=f"{config.logging_table_kb}KB",
            area_mm2=config.logging_table_kb * SRAM_AREA_MM2_PER_KB,
        ),
        ComponentArea(
            engine="Mapping Engine",
            component="Update Unit",
            detail=f"{config.num_update_units} Units",
            area_mm2=config.num_update_units * _AREA_UPDATE_UNIT,
        ),
        ComponentArea(
            engine="Mapping Engine",
            component="GS Skipping Table",
            detail=f"{config.skipping_table_kb}KB",
            area_mm2=config.skipping_table_kb * SRAM_AREA_MM2_PER_KB,
        ),
        ComponentArea(
            engine="Mapping Engine",
            component="Comparison Unit",
            detail=f"{config.num_comparison_units} Units",
            area_mm2=config.num_comparison_units * _AREA_COMPARISON_UNIT,
        ),
        ComponentArea(
            engine="Mapping Engine",
            component="GS Array",
            detail=f"{config.num_gpe_groups} x ({config.gpe_group_dim}x{config.gpe_group_dim})",
            area_mm2=config.num_gpe_groups * _AREA_GPE_GROUP,
        ),
        ComponentArea(
            engine="Mapping Engine",
            component="Gauss Buffer",
            detail=f"{config.gauss_buffer_kb}KB",
            area_mm2=config.gauss_buffer_kb * SRAM_AREA_MM2_PER_KB,
        ),
    ]
    return AreaReport(config_name=config.name, components=components)
