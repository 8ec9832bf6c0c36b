"""On-chip SRAM buffer model (CACTI stand-in).

Area and energy per access are modeled with per-KB constants calibrated to
28 nm SRAM macros (the paper uses CACTI 7 at 32 nm scaled to 28 nm with
DeepScaleTool).  The buffer also tracks hit statistics for the GS logging
/ skipping tables' hot/cold split.
"""

from __future__ import annotations

import dataclasses

__all__ = ["SramBuffer", "SRAM_AREA_MM2_PER_KB", "SRAM_ENERGY_PJ_PER_BYTE"]

# Calibrated so that the buffer sizes of Table 3 reproduce its area column
# (e.g. a 64 KB Gauss buffer occupies ~0.46 mm^2 -> ~0.0072 mm^2 / KB).
SRAM_AREA_MM2_PER_KB = 0.0072
# Read/write energy per byte for small single-ported macros at 28 nm.
SRAM_ENERGY_PJ_PER_BYTE = 0.18


@dataclasses.dataclass
class SramBuffer:
    """A named on-chip buffer with capacity tracking.

    Attributes:
        name: buffer name (for area/power reports).
        capacity_kb: capacity in kibibytes.
        entry_bytes: logical entry size used by ``capacity_entries``.
    """

    name: str
    capacity_kb: float
    entry_bytes: int = 8
    reads: int = 0
    writes: int = 0
    read_bytes: float = 0.0
    write_bytes: float = 0.0

    @property
    def capacity_bytes(self) -> int:
        """Capacity in bytes."""
        return int(self.capacity_kb * 1024)

    @property
    def capacity_entries(self) -> int:
        """Number of logical entries that fit in the buffer."""
        return max(self.capacity_bytes // self.entry_bytes, 1)

    def fits(self, num_entries: int) -> bool:
        """True when ``num_entries`` logical entries fit on chip."""
        return num_entries <= self.capacity_entries

    # ------------------------------------------------------------------
    def read(self, num_bytes: float) -> None:
        """Account a read access."""
        self.reads += 1
        self.read_bytes += num_bytes

    def write(self, num_bytes: float) -> None:
        """Account a write access."""
        self.writes += 1
        self.write_bytes += num_bytes

    def reset(self) -> None:
        """Clear access statistics."""
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0.0
        self.write_bytes = 0.0

    # ------------------------------------------------------------------
    @property
    def area_mm2(self) -> float:
        """Estimated macro area."""
        return self.capacity_kb * SRAM_AREA_MM2_PER_KB
