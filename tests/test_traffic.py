"""Tests for the pluggable traffic models (``repro.serving.traffic``).

The determinism contract is the load-bearing property: a model's stream is
a pure function of its constructor arguments, and its two random pieces
(arrival gaps, frame geometry) consume independent seeded generators -- so
the bit-identity soak can replay the exact request list sequentially.  These tests pin that
contract plus the Poisson rate and the mixed model's two frame sizes, on
the generated streams alone (no server, no sleeps).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import registry
from repro.serving import TrafficItem
from repro.serving.traffic import _SHAPES, MixedTraffic, PoissonTraffic

ALL_MODELS = ("poisson", "mixed")


# ----------------------------------------------------------------------
# Registry integration
# ----------------------------------------------------------------------
class TestTrafficRegistry:
    def test_every_model_is_registered(self):
        assert set(ALL_MODELS) <= set(registry.available("traffic"))

    def test_create_by_string(self):
        model = registry.create(
            "traffic", "poisson", frames=4, rate_hz=100.0, seed=0
        )
        assert isinstance(model, PoissonTraffic)
        assert len(model.items()) == 4

    def test_unknown_model_lists_choices(self):
        with pytest.raises(Exception, match="poisson"):
            registry.create("traffic", "definitely-not-a-model")


# ----------------------------------------------------------------------
# The shared determinism contract
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_same_seed_same_stream(self, name):
        kwargs = dict(frames=12, rate_hz=200.0, seed=7, raw_points=64)
        first = registry.create("traffic", name, **kwargs).items()
        second = registry.create("traffic", name, **kwargs).items()
        assert len(first) == len(second) == 12
        for a, b in zip(first, second):
            assert a.arrival == b.arrival
            assert a.request.frame_id == b.request.frame_id
            np.testing.assert_array_equal(
                a.request.cloud.points, b.request.cloud.points
            )

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_different_seed_different_arrivals(self, name):
        kwargs = dict(frames=16, rate_hz=200.0, raw_points=64)
        a = registry.create("traffic", name, seed=0, **kwargs).arrivals()
        b = registry.create("traffic", name, seed=1, **kwargs).arrivals()
        assert not np.array_equal(a, b)

    def test_seeded_stream_is_pinned(self):
        # A seed's stream is part of the soak contract: arrivals come from
        # ``seed`` and each frame's size draw from ``seed + 2 + index``, and
        # no other draw may shift them.
        model = MixedTraffic(frames=6, rate_hz=200.0, seed=3, raw_points=64)
        items = model.items()
        assert [item.arrival for item in items[:4]] == pytest.approx(
            [0.000550074063, 0.002498358431, 0.009496063222, 0.020496803701],
            abs=1e-12,
        )
        sizes = [item.request.frame_id.split(".")[2] for item in items]
        assert sizes == ["large"] * 3 + ["small"] + ["large"] * 2

    def test_arrivals_are_sorted_and_nonnegative(self):
        for name in ALL_MODELS:
            arrivals = registry.create(
                "traffic", name, frames=32, rate_hz=500.0, seed=0,
                raw_points=64,
            ).arrivals()
            assert arrivals.shape == (32,)
            assert np.all(arrivals >= 0.0)
            assert np.all(np.diff(arrivals) >= 0.0)

    def test_rate_zero_submits_everything_at_once(self):
        arrivals = PoissonTraffic(frames=5, rate_hz=0.0, seed=0).arrivals()
        np.testing.assert_array_equal(arrivals, np.zeros(5))

    def test_parameter_validation(self):
        for options, name in (
            ({"frames": 0}, "frames"),
            ({"rate_hz": -1.0}, "rate_hz"),
            ({"raw_points": 0}, "raw_points"),
        ):
            for model in (PoissonTraffic, MixedTraffic):
                with pytest.raises(ValueError, match=name):
                    model(**options)
        for options, name in (
            ({"small_points": 0}, "small_points"),
            ({"small_share": -0.1}, "small_share"),
            ({"small_share": 1.5}, "small_share"),
        ):
            with pytest.raises(ValueError, match=name):
                MixedTraffic(**options)

    def test_shapes_are_the_supported_cad_shapes(self):
        # sample_cad_shape knows box/cylinder/sphere only; the generator
        # cycling anything else would crash mid-stream.
        assert set(_SHAPES) == {"box", "cylinder", "sphere"}


# ----------------------------------------------------------------------
# Arrival rate
# ----------------------------------------------------------------------
class TestArrivalShapes:
    def test_poisson_mean_rate_is_approximately_right(self):
        model = PoissonTraffic(frames=4000, rate_hz=100.0, seed=0)
        gaps = np.diff(model.arrivals(), prepend=0.0)
        assert gaps.mean() == pytest.approx(0.01, rel=0.1)


# ----------------------------------------------------------------------
# Mixed shapes
# ----------------------------------------------------------------------
class TestMixedTraffic:
    def test_emits_two_raw_sizes(self):
        model = MixedTraffic(
            frames=32, rate_hz=100.0, seed=0,
            raw_points=400, small_points=48, small_share=0.5,
        )
        sizes = {len(item.request.cloud.points) for item in model.items()}
        assert sizes == {48, 400}

    def test_frame_ids_label_the_size(self):
        model = MixedTraffic(
            frames=16, rate_hz=100.0, seed=0,
            raw_points=400, small_points=48, small_share=0.5,
        )
        for item in model.items():
            size = len(item.request.cloud.points)
            label = "small" if size == 48 else "large"
            assert item.request.frame_id.startswith(f"traffic.mixed.{label}.")

    def test_share_extremes(self):
        all_small = MixedTraffic(
            frames=8, seed=0, raw_points=400, small_points=48,
            small_share=1.0,
        )
        assert {
            len(i.request.cloud.points) for i in all_small.items()
        } == {48}
        none_small = MixedTraffic(
            frames=8, seed=0, raw_points=400, small_points=48,
            small_share=0.0,
        )
        assert {
            len(i.request.cloud.points) for i in none_small.items()
        } == {400}


# ----------------------------------------------------------------------
# Stream plumbing
# ----------------------------------------------------------------------
class TestTrafficItems:
    def test_items_carry_unique_frame_ids(self):
        for name in ALL_MODELS:
            items = registry.create(
                "traffic", name, frames=8, rate_hz=100.0, seed=0,
                raw_points=64,
            ).items()
            ids = [item.request.frame_id for item in items]
            assert len(set(ids)) == len(ids), name

    def test_item_is_a_frozen_record(self):
        item = TrafficItem(
            request=PoissonTraffic(frames=1, seed=0).items()[0].request,
            arrival=0.5,
        )
        with pytest.raises(AttributeError):
            item.arrival = 1.0
