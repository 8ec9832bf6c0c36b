"""Hardware configurations: AGS design points and GPU baselines.

The AGS-Edge and AGS-Server design points follow Table 3 of the paper
(number of systolic arrays, GS array sizes, buffer capacities) with
LPDDR4-3200 / HBM2 off-chip memory respectively.  The GPU baselines are
roofline-style models of the Jetson AGX Xavier and the A100, the two
platforms the paper compares against.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "DramConfig",
    "GpuConfig",
    "AgsHardwareConfig",
    "LPDDR4_3200",
    "HBM2",
    "AGS_EDGE",
    "AGS_SERVER",
    "JETSON_XAVIER",
    "NVIDIA_A100",
]


@dataclasses.dataclass(frozen=True)
class DramConfig:
    """Off-chip memory model parameters.

    Attributes:
        name: memory technology name.
        bandwidth_gbps: peak bandwidth in GB/s.
        access_latency_ns: closed-page access latency.
        energy_pj_per_byte: access energy.
        row_buffer_bytes: row size used by the hit-rate heuristic.
    """

    name: str
    bandwidth_gbps: float
    access_latency_ns: float
    energy_pj_per_byte: float
    row_buffer_bytes: int = 2048


LPDDR4_3200 = DramConfig(
    name="LPDDR4-3200", bandwidth_gbps=25.6, access_latency_ns=90.0, energy_pj_per_byte=8.0
)
HBM2 = DramConfig(
    name="HBM2", bandwidth_gbps=410.0, access_latency_ns=60.0, energy_pj_per_byte=3.5
)


@dataclasses.dataclass(frozen=True)
class AgsHardwareConfig:
    """One AGS design point.

    Attributes:
        name: configuration name (``"AGS-Edge"`` / ``"AGS-Server"``).
        frequency_mhz: clock frequency (paper: 500 MHz at 28 nm).
        num_systolic_arrays: 32x32 systolic arrays in the pose tracking
            engine.
        systolic_dim: systolic array dimension.
        num_light_gpe_groups: 4x4 GPE groups of the lightweight GS array
            (fine-grained pose refinement).
        num_gpe_groups: 4x4 GPE groups of the mapping GS array.
        gpe_group_dim: GPE group dimension (4 -> 16 GPEs per group).
        nn_buffer_kb / gauss_buffer_light_kb / gauss_buffer_kb: SRAM sizes.
        logging_table_kb / skipping_table_kb: contribution table SRAM.
        num_update_units / num_comparison_units: table-side ALUs.
        num_fc_adders / num_fc_comparators: FC detection engine ALUs.
        dram: off-chip memory configuration.
        enable_gpe_scheduler: model the workload-rebalancing scheduler.
        enable_overlap: overlap tracking (frame t+1) with mapping (frame t).
    """

    name: str
    frequency_mhz: float = 500.0
    num_systolic_arrays: int = 2
    systolic_dim: int = 32
    num_light_gpe_groups: int = 8
    num_gpe_groups: int = 16
    gpe_group_dim: int = 4
    nn_buffer_kb: int = 32
    gauss_buffer_light_kb: int = 32
    gauss_buffer_kb: int = 64
    logging_table_kb: int = 4
    skipping_table_kb: int = 4
    num_update_units: int = 16
    num_comparison_units: int = 16
    num_fc_adders: int = 8
    num_fc_comparators: int = 2
    dram: DramConfig = LPDDR4_3200
    enable_gpe_scheduler: bool = True
    enable_overlap: bool = True

    @property
    def frequency_hz(self) -> float:
        """Clock frequency in Hz."""
        return self.frequency_mhz * 1e6

    @property
    def num_gpes(self) -> int:
        """Total GPEs in the mapping GS array."""
        return self.num_gpe_groups * self.gpe_group_dim**2


AGS_EDGE = AgsHardwareConfig(
    name="AGS-Edge",
    num_systolic_arrays=2,
    num_light_gpe_groups=8,
    num_gpe_groups=16,
    nn_buffer_kb=32,
    gauss_buffer_light_kb=32,
    gauss_buffer_kb=64,
    logging_table_kb=4,
    skipping_table_kb=4,
    num_update_units=16,
    num_comparison_units=16,
    dram=LPDDR4_3200,
)

AGS_SERVER = AgsHardwareConfig(
    name="AGS-Server",
    num_systolic_arrays=4,
    num_light_gpe_groups=16,
    num_gpe_groups=32,
    nn_buffer_kb=64,
    gauss_buffer_light_kb=64,
    gauss_buffer_kb=128,
    logging_table_kb=8,
    skipping_table_kb=8,
    num_update_units=32,
    num_comparison_units=32,
    dram=HBM2,
)


@dataclasses.dataclass(frozen=True)
class GpuConfig:
    """Roofline-style GPU model parameters.

    Attributes:
        name: platform name.
        peak_tflops: peak FP32 throughput in TFLOP/s.
        bandwidth_gbps: memory bandwidth in GB/s.
        kernel_launch_overhead_us: per-kernel launch latency.
        kernels_per_iteration: kernel launches per 3DGS training iteration
            (forward + backward + optimizer in a framework like PyTorch).
        achievable_fraction: fraction of peak throughput 3DGS kernels reach
            (irregular, divergent workloads are far from peak).
        idle_power_w / peak_power_w: power model endpoints.
        dram_energy_pj_per_byte: memory access energy.
    """

    name: str
    peak_tflops: float
    bandwidth_gbps: float
    kernel_launch_overhead_us: float = 5.0
    kernels_per_iteration: int = 40
    achievable_fraction: float = 0.22
    idle_power_w: float = 30.0
    peak_power_w: float = 300.0
    dram_energy_pj_per_byte: float = 7.0


NVIDIA_A100 = GpuConfig(
    name="A100",
    peak_tflops=19.5,
    bandwidth_gbps=1555.0,
    kernel_launch_overhead_us=5.0,
    kernels_per_iteration=40,
    achievable_fraction=0.22,
    idle_power_w=55.0,
    peak_power_w=300.0,
    dram_energy_pj_per_byte=5.0,
)

JETSON_XAVIER = GpuConfig(
    name="AGX-Xavier",
    peak_tflops=1.41,
    bandwidth_gbps=137.0,
    kernel_launch_overhead_us=12.0,
    kernels_per_iteration=40,
    achievable_fraction=0.20,
    idle_power_w=10.0,
    peak_power_w=30.0,
    dram_energy_pj_per_byte=9.0,
)
