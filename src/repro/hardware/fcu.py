"""The Feature Computation Unit (FCU): a commercial-DLA-style wrapper.

The FCU executes the MVM workload of the PCN's shared MLPs on a systolic
array (Section VI).  Besides raw compute it pays for streaming weights and
activations through its buffers, modelled as a bandwidth term that overlaps
with compute (double buffering), so the layer latency is the max of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.systolic import SystolicArray
from repro.network.workload import LayerWorkload, NetworkWorkload


@dataclass(frozen=True)
class FeatureComputationUnit:
    """Systolic-array DLA with a buffer-bandwidth roofline."""

    array: SystolicArray = SystolicArray()
    #: On-chip buffer bandwidth available to stream activations, bytes/s.
    buffer_bandwidth: float = 1.0e11
    #: Bytes per activation value (int8/fp8 DLAs would use 1; the prototype
    #: uses single precision).
    bytes_per_activation: int = 4

    def seconds_for_layer(self, layer: LayerWorkload) -> float:
        compute = self.array.cycles_for_layer(layer) / self.array.frequency_hz
        activation_bytes = (
            layer.num_vectors * layer.output_channels * self.bytes_per_activation
        )
        streaming = activation_bytes / self.buffer_bandwidth
        return max(compute, streaming)

    def seconds_for_workload(self, workload: NetworkWorkload) -> float:
        return sum(self.seconds_for_layer(layer) for layer in workload.layers)
