"""Unit and property tests for repro.geometry.morton."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.morton import (
    MortonCode,
    hamming_distance,
    morton_encode,
    morton_encode_points,
    prefix_at_level,
    voxel_indices,
)
from repro.kernels.reference import scalar_morton_decode


UNIT_BOX = AxisAlignedBox(minimum=[0, 0, 0], maximum=[1, 1, 1])


class TestScalarEncode:
    def test_known_values_depth1(self):
        # Bit layout: (x, y, z) -> xyz.
        assert morton_encode(0, 0, 0, 1) == 0b000
        assert morton_encode(1, 0, 0, 1) == 0b100
        assert morton_encode(0, 1, 0, 1) == 0b010
        assert morton_encode(0, 0, 1, 1) == 0b001
        assert morton_encode(1, 1, 1, 1) == 0b111

    def test_known_value_depth2(self):
        # x=0b10, y=0b01, z=0b11 -> groups (1,0,1)(0,1,1) -> 101 011
        assert morton_encode(0b10, 0b01, 0b11, 2) == 0b101011

    def test_encode_decode_roundtrip_exhaustive_depth2(self):
        for ix in range(4):
            for iy in range(4):
                for iz in range(4):
                    code = morton_encode(ix, iy, iz, 2)
                    assert scalar_morton_decode(code, 2) == (ix, iy, iz)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            morton_encode(4, 0, 0, 2)
        with pytest.raises(ValueError):
            morton_encode(0, 0, 0, 0)

    def test_prefix_at_level(self):
        code = morton_encode(0b101, 0b010, 0b111, 3)
        assert prefix_at_level(code, 3, 3) == code
        assert prefix_at_level(code, 3, 1) == code >> 6
        assert prefix_at_level(code, 3, 2) == code >> 3


class TestVectorisedEncode:
    def test_matches_scalar(self, rng):
        points = rng.uniform(0, 1, size=(64, 3))
        depth = 4
        codes = morton_encode_points(points, UNIT_BOX, depth)
        indices = voxel_indices(points, UNIT_BOX, depth)
        for point_index in range(points.shape[0]):
            ix, iy, iz = indices[point_index]
            assert codes[point_index] == morton_encode(int(ix), int(iy), int(iz), depth)

    def test_boundary_points_clipped(self):
        points = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        codes = morton_encode_points(points, UNIT_BOX, 3)
        assert codes[0] == (1 << 9) - 1  # last voxel
        assert codes[1] == 0

    def test_voxel_center_roundtrip(self):
        depth = 3
        for code in [0, 5, 37, (1 << 9) - 1]:
            cell = np.array(scalar_morton_decode(code, depth), dtype=np.float64)
            center = UNIT_BOX.minimum + (cell + 0.5) * UNIT_BOX.size / (1 << depth)
            recomputed = morton_encode_points(center[None, :], UNIT_BOX, depth)[0]
            assert recomputed == code


class TestHamming:
    def test_scalar(self):
        assert hamming_distance(0b1010, 0b0110) == 2
        assert hamming_distance(0, 0) == 0

    def test_array(self):
        a = np.array([0b111, 0b000, 0b101], dtype=np.int64)
        result = hamming_distance(a, 0b001)
        assert list(result) == [2, 1, 1]

    def test_symmetry_and_identity(self):
        assert hamming_distance(37, 91) == hamming_distance(91, 37)
        assert hamming_distance(91, 91) == 0


class TestMortonCodeObject:
    def test_bits_string(self):
        assert MortonCode(code=0b110101, depth=2).bits == "110101"

    def test_parent_child(self):
        node = MortonCode(code=0b110101, depth=2)
        assert node.parent().code == 0b110
        assert node.child(0b011).code == 0b110101011

    def test_parent_of_depth1_raises(self):
        with pytest.raises(ValueError):
            MortonCode(code=0b101, depth=1).parent()

    def test_hamming_requires_same_depth(self):
        with pytest.raises(ValueError):
            MortonCode(code=0, depth=1).hamming(MortonCode(code=0, depth=2))


@settings(max_examples=100, deadline=None)
@given(
    ix=st.integers(min_value=0, max_value=255),
    iy=st.integers(min_value=0, max_value=255),
    iz=st.integers(min_value=0, max_value=255),
)
def test_property_roundtrip_depth8(ix, iy, iz):
    code = morton_encode(ix, iy, iz, 8)
    assert scalar_morton_decode(code, 8) == (ix, iy, iz)


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=2**24 - 1),
    b=st.integers(min_value=0, max_value=2**24 - 1),
    c=st.integers(min_value=0, max_value=2**24 - 1),
)
def test_property_hamming_triangle_inequality(a, b, c):
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
def test_property_point_code_in_range(coords):
    code = morton_encode_points(np.array([coords]), UNIT_BOX, 6)[0]
    assert 0 <= code < (1 << 18)
