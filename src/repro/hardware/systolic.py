"""Systolic-array DLA model (the Feature Computation Unit's core).

The FCU is "a commercially available Deep Learning Accelerator which
implements a classic systolic array design" (Section VI); the accelerator
comparison of Figure 14 gives every design a 16x16 array.  The model below
uses the standard weight-stationary tiling cost: an ``(in x out)`` weight
matrix is split into ``ceil(in/rows) * ceil(out/cols)`` tiles, and streaming
``V`` input vectors through one tile takes ``V + rows + cols`` cycles (fill +
drain + stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from repro.network.workload import LayerWorkload


@dataclass(frozen=True)
class SystolicArray:
    """A ``rows x cols`` weight-stationary systolic array."""

    rows: int = 16
    cols: int = 16
    frequency_hz: float = 1.0e9
    #: Utilisation derate for control bubbles / buffer stalls.
    efficiency: float = 0.85

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array dimensions must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def macs_per_cycle(self) -> int:
        return self.rows * self.cols

    def cycles_for_layer(self, layer: LayerWorkload) -> int:
        """Cycles to execute one shared-MLP / dense layer."""
        if layer.num_vectors <= 0:
            return 0
        in_features = max(
            1, layer.mac_ops // max(1, layer.num_vectors * layer.output_channels)
        )
        row_tiles = math.ceil(in_features / self.rows)
        col_tiles = math.ceil(layer.output_channels / self.cols)
        per_tile = layer.num_vectors + self.rows + self.cols
        cycles = row_tiles * col_tiles * per_tile
        return int(math.ceil(cycles / self.efficiency))
