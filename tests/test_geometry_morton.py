"""Unit and property tests for the m-code encoding of repro.geometry.morton
and the m-code Hamming distance of repro.kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import AxisAlignedBox
from repro.geometry.morton import morton_encode_points, voxel_indices
from repro.kernels import encode_cells, hamming_codes
from repro.kernels.reference import scalar_morton_decode, scalar_morton_encode


UNIT_BOX = AxisAlignedBox(minimum=[0, 0, 0], maximum=[1, 1, 1])


def morton_encode(ix: int, iy: int, iz: int, depth: int) -> int:
    """The m-code of one voxel, through the vectorised encoder."""
    return int(encode_cells(np.array([[ix, iy, iz]]), depth)[0])


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
        # The top 3*l bits of a depth-3 code are the code of the ancestor
        # voxel at level l: the octree's parent links are right shifts.
        ix, iy, iz = 0b101, 0b010, 0b111
        code = morton_encode(ix, iy, iz, 3)
        for level in (1, 2, 3):
            shift = 3 - level
            ancestor = morton_encode(ix >> shift, iy >> shift, iz >> shift, level)
            assert code >> (3 * shift) == ancestor

    def test_child_appends_octant(self):
        # A child's code is its parent's code followed by the 3-bit octant
        # in AxisAlignedBox.octant's (x, y, z) bit order.
        parent = morton_encode(0b10, 0b01, 0b11, 2)
        for octant in range(8):
            bx, by, bz = (octant >> 2) & 1, (octant >> 1) & 1, octant & 1
            child = morton_encode(0b100 | bx, 0b010 | by, 0b110 | bz, 3)
            assert child == (parent << 3) | octant


class TestHamming:
    def test_scalar(self):
        assert hamming_codes(0b1010, 0b0110) == 2
        assert hamming_codes(0, 0) == 0

    def test_array(self):
        a = np.array([0b111, 0b000, 0b101], dtype=np.int64)
        assert hamming_codes(a, 0b001).tolist() == [2, 1, 1]

    def test_symmetry_and_identity(self):
        assert hamming_codes(37, 91) == hamming_codes(91, 37)
        assert hamming_codes(91, 91) == 0


class TestVectorisedEncode:
    def test_matches_scalar(self, rng):
        points = rng.uniform(0, 1, size=(64, 3))
        depth = 4
        codes = morton_encode_points(points, UNIT_BOX, depth)
        indices = voxel_indices(points, UNIT_BOX, depth)
        for point_index in range(points.shape[0]):
            ix, iy, iz = indices[point_index]
            assert codes[point_index] == scalar_morton_encode(
                int(ix), int(iy), int(iz), depth
            )

    def test_parent_code_is_prefix(self, rng):
        # Encoding one level shallower drops exactly the last octant.
        points = rng.uniform(0, 1, size=(500, 3))
        points[:3] = [[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5]]
        for depth in (2, 5, 9):
            deep = morton_encode_points(points, UNIT_BOX, depth)
            shallow = morton_encode_points(points, UNIT_BOX, depth - 1)
            assert np.array_equal(deep >> 3, shallow)

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
    assert hamming_codes(a, c) <= hamming_codes(a, b) + hamming_codes(b, c)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
def test_property_point_code_in_range(coords):
    code = morton_encode_points(np.array([coords]), UNIT_BOX, 6)[0]
    assert 0 <= code < (1 << 18)
