"""The response contract: a response carries the result, not the working set.

``PreprocessingEngine.process_batch`` returns the full octree and
Octree-Table; a served :class:`FrameResponse` keeps only their summary.
These tests pin that split on every execution path, size it at the
benchmark's LiDAR shape, and check the summary against a recomputation.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import HgPCNConfig, Session
from repro.datasets.synthetic import lidar_scene
from repro.octree.builder import Octree
from repro.octree.linear import OctreeTable
from repro.octree.memory_layout import HostMemoryLayout
from repro.octree.node import OctreeNode
from repro.serving import FrameServer, response_signature, signatures_equal
from repro.serving.cluster.transport import encode_payload
from repro.session import FrameRequest

from test_cluster import make_request, make_session, reachable

WORKING_SET = (Octree, OctreeTable, OctreeNode)
MEGABYTE = 1_000_000


def served(execution, requests):
    with FrameServer(
        make_session,
        num_workers=2,
        execution=execution,
        max_batch_size=2,
        max_wait_seconds=0.002,
        name=f"contract-{execution}",
    ) as server:
        futures = [server.submit(request) for request in requests]
        return [future.result(timeout=60) for future in futures]


class TestNoWorkingSetInResponses:
    def test_direct_responses_and_the_response_cache(self):
        session = make_session(response_cache_size=4)
        requests = [make_request(i) for i in range(3)]
        batch = session.run_batch(requests + requests[:1])
        assert [r.cached for r in batch.responses] == [False, False, False, True]
        for response in batch.responses:
            assert reachable(response.result, WORKING_SET) == []
        assert len(session._response_cache) == 3
        for entry in session._response_cache.values():
            assert reachable(entry, WORKING_SET) == []

    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_served_responses(self, execution):
        for response in served(execution, [make_request(i) for i in range(4)]):
            assert reachable(response.result, WORKING_SET) == []

    def test_signatures_agree_across_execution_paths(self):
        requests = [make_request(i) for i in range(4)]
        paths = [
            make_session().run_batch(requests).responses,
            served("thread", requests),
            served("process", requests),
        ]
        signatures = [[response_signature(r) for r in path] for path in paths]
        for one, other in itertools.combinations(signatures, 2):
            assert signatures_equal(one, other)

    def test_cache_hit_shares_the_slim_result(self):
        session = make_session(response_cache_size=4)
        request = make_request(0)
        first = session.run(request)
        again = session.run(request)
        renamed = session.run(FrameRequest(cloud=request.cloud, frame_id="other"))
        assert again.cached and again.result is first.result
        assert renamed.cached and renamed.result.frame_id == "other"
        assert renamed.result.preprocessing is first.result.preprocessing
        assert renamed.result.inference is first.result.inference
        assert renamed.result.breakdown is first.result.breakdown


class TestLidarShape:
    """The benchmark's LiDAR frame: 100k points -> K = 2048, segmentation."""

    @pytest.fixture(scope="class")
    def lidar(self):
        cloud = lidar_scene(100_000, seed=1000)
        session = Session(
            config=HgPCNConfig.for_task(2048),
            task="semantic_segmentation",
            response_cache_size=0,
        )
        return session, cloud, session.run(cloud)

    def test_result_arrays_stay_under_a_megabyte(self, lidar):
        _, _, response = lidar
        arrays = reachable(response.result, np.ndarray)
        assert 0 < sum(array.nbytes for array in arrays) < MEGABYTE

    def test_wire_size_with_and_without_the_known_cloud(self, lidar):
        _, cloud, response = lidar
        payload = {"responses": [response], "error": None}
        known = encode_payload(payload, known=[cloud], force_inline=True)
        assert known.known_refs == (0,)
        assert 0 < known.total_bytes < MEGABYTE
        shipped = encode_payload(payload, force_inline=True)
        cloud_bytes = cloud.points.nbytes + cloud.features.nbytes
        assert cloud_bytes < shipped.total_bytes < cloud_bytes + MEGABYTE

    def test_summary_agrees_with_the_engine(self, lidar):
        session, cloud, response = lidar
        summary = response.result.preprocessing
        full = session.preprocessing_engine.process(cloud)
        assert full.octree.stats == summary.octree.stats
        assert full.octree.depth == summary.octree.depth
        assert full.octree.num_nodes == summary.octree.num_nodes
        assert full.octree.num_leaves == summary.octree.num_leaves
        np.testing.assert_array_equal(full.octree.box.minimum, summary.octree.box.minimum)
        np.testing.assert_array_equal(full.octree.box.maximum, summary.octree.box.maximum)
        assert len(full.octree_table) == summary.octree_table_entries
        assert full.octree_table.total_bits() == summary.octree_table_bits
        assert full.onchip_megabits == summary.onchip_megabits
        np.testing.assert_array_equal(full.sampling.indices, summary.sampling.indices)
        assert full.breakdown.as_dict() == summary.breakdown.as_dict()


class TestUnbuiltWorkingSet:
    """Serving a frame builds neither the Octree-Table nor the reorganised
    host copy: the engine prices the table from the octree's counts, and
    OIS walks the octree's own SFC permutation.  The table is still one
    attribute access away on the engine's result."""

    @pytest.fixture
    def forbid_working_set(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("working set built on the serving path")

        monkeypatch.setattr(OctreeTable, "from_flat", classmethod(refuse))
        monkeypatch.setattr(HostMemoryLayout, "from_octree", classmethod(refuse))

    @pytest.fixture(scope="class")
    def lidar(self):
        cloud = lidar_scene(20_000, seed=1001)
        session = Session(
            config=HgPCNConfig.for_task(512),
            task="semantic_segmentation",
            response_cache_size=0,
        )
        return session, cloud

    def test_run_batch_and_summary_build_neither(self, lidar, forbid_working_set):
        session, cloud = lidar
        batch = session.run_batch([cloud, cloud])
        assert len(batch.responses) == 2
        full = session.preprocessing_engine.process(cloud)
        summary = full.summary()
        assert summary.octree_table_entries == full.octree.num_nodes
        assert "octree_table" not in vars(full)

    def test_octree_table_builds_on_access(self, lidar):
        session, cloud = lidar
        full = session.preprocessing_engine.process(cloud)
        table = full.octree_table
        assert full.octree_table is table
        assert len(table) == full.octree_table_entries
        assert table.total_bits() == full.octree_table_bits
        rebuilt = OctreeTable.from_flat(full.octree)
        for name in (
            "codes", "levels", "leaf_flags", "child_bounds", "child_rows",
            "child_octants", "addr_starts", "addr_ends",
        ):
            np.testing.assert_array_equal(
                getattr(table, name), getattr(rebuilt, name)
            )
        assert (table.depth, table.num_points, table.root_index) == (
            rebuilt.depth, rebuilt.num_points, rebuilt.root_index
        )
