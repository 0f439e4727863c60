"""Unit tests for repro.geometry.bbox."""

import numpy as np
import pytest

from repro.geometry.bbox import AxisAlignedBox


class TestAxisAlignedBox:
    def test_size_center_volume(self):
        box = AxisAlignedBox(minimum=[0, 0, 0], maximum=[2, 4, 6])
        assert np.allclose(box.size, [2, 4, 6])
        assert np.allclose(box.center, [1, 2, 3])
        assert np.prod(box.size) == pytest.approx(48.0)

    def test_invalid_corners(self):
        with pytest.raises(ValueError):
            AxisAlignedBox(minimum=[1, 0, 0], maximum=[0, 1, 1])

    def test_as_cube_encloses_box(self):
        box = AxisAlignedBox(minimum=[0, 0, 0], maximum=[2, 1, 0.5])
        cube = box.as_cube()
        assert np.allclose(cube.size, cube.size[0])
        assert cube.size[0] == pytest.approx(2.0)
        # Cube centred like the original box.
        assert np.allclose(cube.center, box.center)

    def test_as_cube_degenerate(self):
        box = AxisAlignedBox(minimum=[1, 1, 1], maximum=[1, 1, 1])
        cube = box.as_cube()
        assert np.all(cube.size > 0)

    def test_as_cube_padding(self):
        box = AxisAlignedBox(minimum=[0, 0, 0], maximum=[2, 1, 0.5])
        cube = box.as_cube(padding=0.5)
        assert np.allclose(cube.center, box.center)
        assert np.allclose(cube.size, [3.0, 3.0, 3.0])

    def test_octant_partition(self):
        box = AxisAlignedBox(minimum=[0, 0, 0], maximum=[2, 2, 2])
        total_volume = sum(np.prod(box.octant(code).size) for code in range(8))
        assert total_volume == pytest.approx(np.prod(box.size))

    def test_octant_bit_convention(self):
        # First bit = X axis, second = Y, third = Z (paper's m-code layout).
        box = AxisAlignedBox(minimum=[0, 0, 0], maximum=[2, 2, 2])
        upper_x = box.octant(0b100)
        assert upper_x.minimum[0] == pytest.approx(1.0)
        assert upper_x.maximum[1] == pytest.approx(1.0)
        assert upper_x.maximum[2] == pytest.approx(1.0)

    def test_octant_out_of_range(self):
        box = AxisAlignedBox(minimum=[0, 0, 0], maximum=[1, 1, 1])
        with pytest.raises(ValueError):
            box.octant(8)
