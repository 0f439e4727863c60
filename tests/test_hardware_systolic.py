"""Unit tests for the systolic array and Feature Computation Unit models."""

import pytest

from repro.hardware.fcu import FeatureComputationUnit
from repro.hardware.systolic import SystolicArray
from repro.network.workload import LayerWorkload, synthetic_pointnet2_workload


def make_layer(num_vectors: int, in_features: int, out_features: int) -> LayerWorkload:
    return LayerWorkload(
        name="t",
        num_vectors=num_vectors,
        mac_ops=num_vectors * in_features * out_features,
        output_channels=out_features,
    )


class TestSystolicArray:
    def test_macs_per_cycle(self):
        assert SystolicArray(rows=16, cols=16).macs_per_cycle == 256

    def test_single_tile_layer_cycles(self):
        array = SystolicArray(rows=16, cols=16, efficiency=1.0)
        layer = make_layer(1000, 16, 16)
        assert array.cycles_for_layer(layer) == 1000 + 16 + 16

    def test_tiling_multiplies_cycles(self):
        array = SystolicArray(rows=16, cols=16, efficiency=1.0)
        one_tile = array.cycles_for_layer(make_layer(1000, 16, 16))
        four_tiles = array.cycles_for_layer(make_layer(1000, 32, 32))
        assert four_tiles == 4 * one_tile

    def test_efficiency_derate(self):
        ideal = SystolicArray(efficiency=1.0).cycles_for_layer(make_layer(1000, 64, 64))
        derated = SystolicArray(efficiency=0.5).cycles_for_layer(make_layer(1000, 64, 64))
        assert derated == pytest.approx(2 * ideal, rel=0.01)

    def test_zero_vectors(self):
        assert SystolicArray().cycles_for_layer(make_layer(0, 16, 16)) == 0

    def test_ideal_lower_bound(self):
        array = SystolicArray(efficiency=1.0)
        layer = make_layer(4096, 64, 64)
        ideal_cycles = layer.mac_ops / array.macs_per_cycle
        assert ideal_cycles <= array.cycles_for_layer(layer)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SystolicArray(rows=0)
        with pytest.raises(ValueError):
            SystolicArray(efficiency=0.0)


class TestFeatureComputationUnit:
    def test_latency_positive_for_real_workload(self):
        fcu = FeatureComputationUnit()
        workload = synthetic_pointnet2_workload(1024, task="classification")
        assert fcu.seconds_for_workload(workload) > 0

    def test_scales_with_input_size(self):
        fcu = FeatureComputationUnit()
        small = synthetic_pointnet2_workload(1024, task="semantic_segmentation")
        large = synthetic_pointnet2_workload(16384, task="semantic_segmentation")
        assert fcu.seconds_for_workload(large) > 4 * fcu.seconds_for_workload(small)

    def test_streaming_bound(self):
        """A bandwidth-starved FCU is limited by activation streaming."""
        fast_compute = FeatureComputationUnit(
            array=SystolicArray(frequency_hz=1e12), buffer_bandwidth=1e6
        )
        layer = make_layer(1000, 16, 16)
        assert fast_compute.seconds_for_layer(layer) == pytest.approx(
            1000 * 16 * 4 / 1e6
        )

    def test_int8_fcu_streams_less_data(self):
        """The FCU's streaming term shrinks with one-byte activations."""
        workload = synthetic_pointnet2_workload(4096, task="semantic_segmentation")
        fp32 = FeatureComputationUnit(buffer_bandwidth=1e9, bytes_per_activation=4)
        int8 = FeatureComputationUnit(buffer_bandwidth=1e9, bytes_per_activation=1)
        assert int8.seconds_for_workload(workload) < fp32.seconds_for_workload(workload)

    def test_utilization_bounded(self):
        fcu = FeatureComputationUnit()
        workload = synthetic_pointnet2_workload(4096, task="semantic_segmentation")
        peak = fcu.array.macs_per_cycle * fcu.array.frequency_hz
        utilization = workload.total_mac_ops() / (fcu.seconds_for_workload(workload) * peak)
        assert 0.0 < utilization <= 1.0
