"""Cache-sized tiles in kNN and EdgeConv change nothing but speed and memory.

``_KeyTiles`` cuts a group's kNN ranking keys into row tiles of at most
``_TILE_BYTES``, or half that when the process's helper thread ranks beside
the caller.  Each key is ``|x_j|² − 2·x_i·x_j``, one batched
GEMM of augmented operands: the squared distance minus ``|x_i|²``, a
constant along the row.  The in-test references below rank the squared
distance itself as the kernel did before tiling: one ``(G, n, n)`` matrix
of ``(|x_i|² + |x_j|²) − 2·a@aᵀ`` per group, its product taken as
``a @ a.T`` (numpy's SYRK path, one call per graph).

The kernel no longer keeps the references' operation order, so the
comparisons pin that the key selects the same neighbours as the squared
distance, in the same order, on every test cloud: the Gaussian, float32
and tied clouds, and the clouds the benchmark serves.  Eager and compiled
kNN share one definition, so a BLAS whose rounding flipped a near-tie
would fail here without making the two disagree.  The key's algebra is
checked exactly on small-integer clouds, where every product and sum is
exact in float64.

The compiled EdgeConv walks nodes in chunks of its scratch grid and keeps
a per-row operation order, so its output must be ``tobytes()``-identical
to the full-size kernel it replaced, kept below as a reference: one
``(N, k, F)`` grid of neighbour differences, reduced along ``k``.  The
grid is gathered slot-major — ``(k, rows, F)``, slab j the j-th neighbour
of every node in the chunk — and reduced over its leading axis, in the
same neighbour order as the reference's middle axis.

A second participant, the process's tile helper thread, may claim tiles
beside the caller, which never waits for it.  ``TestKnnTiles`` and
``TestBenchmarkClouds`` run with a helper of the module's own, so they pin
its edges whatever CPUs the test process may use.  ``TestTileHelper`` pins
the rest of its contract: callers at once, a busy helper, the groups that
never ask for it, a process without OpenBLAS or with one CPU, an error on
the helper, and a forked child.

The last class pins the memory the tiles save, by allocation count rather
than wall time: the ``tracemalloc`` peak of one paper-scale kNN and of one
paper-scale EdgeConv, and the arenas of the paper-scale edge plan after one
frame.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.core import (Architecture, ArchitectureModel, ArchitectureZoo,
                        ZooEntry)
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.graph.knn import _TILE_BYTES, _KeyTiles, edge_list, knn_graph
from repro.runtime import compile_plan, kernels
from repro.serving import RuntimeConfig, build_zoo_callables

MiB = 2 ** 20


class _CountingHelper:
    """A real tile helper whose tasks record how many tiles they wrote."""

    def __init__(self):
        self.helper = kernels._TileHelper()
        self.ranked = []

    def submit(self, task):
        self.helper.submit(lambda: self.ranked.append(task()))

    def settle(self, timeout=30.0):
        """Wait until every task submitted so far has returned: the
        callers do not wait for theirs."""
        done = threading.Event()
        self.helper.submit(done.set)
        if not done.wait(timeout):
            raise AssertionError("the helper's tasks never returned")


@pytest.fixture(scope="module")
def module_helper():
    return _CountingHelper()


@pytest.fixture
def helper(module_helper, monkeypatch):
    """The module's own helper, installed as the process's, so a test runs
    two participants whatever CPUs this process may use."""
    monkeypatch.setattr(kernels, "_helper", module_helper)
    module_helper.ranked.clear()
    return module_helper


# ----------------------------------------------------------------------
# kNN
# ----------------------------------------------------------------------
def _full_matrix_distances(grouped):
    """The self-excluded distances as one ``(G, n, n)`` matrix."""
    sq_norms = (grouped ** 2).sum(axis=2)
    dists = (sq_norms[:, :, None] + sq_norms[:, None, :]
             - 2.0 * grouped @ grouped.transpose(0, 2, 1))
    diagonal = np.arange(grouped.shape[1])
    dists[:, diagonal, diagonal] = np.inf
    return dists


def _per_graph_distances(points, num_graphs, per_graph):
    """:func:`_full_matrix_distances` one graph at a time.

    The 3-D matmul ran one SYRK per graph, so this is the same arithmetic
    with one graph's matrix in memory instead of the whole group's.
    """
    grouped = np.asarray(points, dtype=np.float64).reshape(
        num_graphs, per_graph, -1)
    for graph in range(num_graphs):
        yield _full_matrix_distances(grouped[graph:graph + 1])


def _uniform_edges(points, k, num_graphs, per_graph):
    """The compiled runtime's kNN table as the edge list it stands for."""
    return edge_list(kernels.knn_edges_uniform(points, k, num_graphs,
                                               per_graph))


def _reference_uniform(points, k, num_graphs, per_graph):
    """The selection-only kNN of the compiled runtime, on full matrices."""
    local = np.concatenate([
        np.argpartition(dists, k - 1, axis=2)[:, :, :k]
        for dists in _per_graph_distances(points, num_graphs, per_graph)])
    num_nodes = num_graphs * per_graph
    offsets = (np.arange(num_graphs, dtype=np.int64) * per_graph)[:, None,
                                                                  None]
    neighbours = (local + offsets).reshape(-1)
    centres = np.repeat(np.arange(num_nodes, dtype=np.int64), k)
    return np.stack([neighbours, centres], axis=0)


def _reference_eager(points, k, num_graphs, per_graph):
    """The eager batched builder (nearest-first), on full matrices."""
    effective_k = min(k, max(per_graph - 1, 1))
    blocks = []
    for dists in _per_graph_distances(points, num_graphs, per_graph):
        if effective_k >= per_graph:
            local = np.argsort(dists, axis=2)[:, :, :effective_k]
        else:
            local = np.argpartition(dists, effective_k - 1,
                                    axis=2)[:, :, :effective_k]
            order = np.argsort(np.take_along_axis(dists, local, axis=2),
                               axis=2)
            local = np.take_along_axis(local, order, axis=2)
        blocks.append(local)
    local = np.concatenate(blocks)
    if effective_k < k:
        local = np.tile(local, (1, 1, int(np.ceil(k / effective_k))))[:, :, :k]
    offsets = (np.arange(num_graphs, dtype=np.int64) * per_graph)[:, None,
                                                                  None]
    neighbours = (local + offsets).reshape(-1)
    centres = np.repeat(np.arange(num_graphs * per_graph, dtype=np.int64), k)
    return np.stack([neighbours, centres], axis=0)


def _cloud(kind, num_nodes, dims, seed):
    rng = np.random.default_rng(seed)
    if kind == "duplicated":
        # Three values per axis: every point has many exact copies, so
        # distances tie exactly, far beyond k.
        return rng.integers(0, 3, size=(num_nodes, dims)).astype(np.float64)
    points = rng.standard_normal((num_nodes, dims))
    return points.astype(np.float32) if kind == "float32" else points


def _assert_knn_identical(points, num_graphs, per_graph):
    k = 20
    batch = np.repeat(np.arange(num_graphs, dtype=np.int64), per_graph)
    eager = knn_graph(points, k, batch=batch)
    assert eager.tobytes() == _reference_eager(points, k, num_graphs,
                                               per_graph).tobytes()
    uniform_k = min(k, per_graph - 1)
    uniform = _uniform_edges(points, uniform_k, num_graphs, per_graph)
    assert uniform.tobytes() == _reference_uniform(
        points, uniform_k, num_graphs, per_graph).tobytes()


#: ``(per_graph, num_graphs)``: group tiles (n <= 181; 128 x 3 splits the
#: group over two tiles), row tiles with a ragged last tile (1000, 1500)
#: and row tiles that divide n exactly (1024, also as a batch of 8 frames).
#: A row-tiled graph is walked on its own, so more graphs add nothing there.
SHAPES = [(n, g) for n in (17, 64, 128) for g in (1, 3, 8)] + [
    (1000, 1), (1000, 3), (1024, 1), (1024, 3), (1024, 8), (1500, 1),
    (1500, 3)]


@pytest.mark.usefixtures("helper")
class TestKnnTiles:
    @pytest.mark.parametrize("dims", [3, 64])
    @pytest.mark.parametrize("per_graph, num_graphs", SHAPES)
    def test_edges_match_full_matrix(self, per_graph, num_graphs, dims):
        points = _cloud("gaussian", num_graphs * per_graph, dims, seed=dims)
        _assert_knn_identical(points, num_graphs, per_graph)

    @pytest.mark.parametrize("kind", ["float32", "duplicated"])
    @pytest.mark.parametrize("dims", [3, 64])
    @pytest.mark.parametrize("per_graph", [17, 64, 1024, 1500])
    def test_float32_and_tied_clouds_match_full_matrix(self, per_graph,
                                                       dims, kind):
        points = _cloud(kind, 3 * per_graph, dims, seed=per_graph)
        _assert_knn_identical(points, 3, per_graph)

    @pytest.mark.parametrize("tile_bytes", [_TILE_BYTES, _TILE_BYTES // 2])
    @pytest.mark.parametrize("dims", [3, 64])
    @pytest.mark.parametrize("per_graph, num_graphs", [
        (17, 3), (64, 8), (128, 3), (1000, 1), (1024, 1), (1500, 3)])
    def test_keys_are_distances_minus_the_row_norm(self, per_graph,
                                                   num_graphs, dims,
                                                   tile_bytes):
        """Every tile plus ``|x_i|²`` is the squared-distance matrix bit
        for bit, with ``inf`` on the self entries, and the tiles cover
        each row of each graph once, at the caller's tile size and at the
        half tiles two participants rank."""
        rng = np.random.default_rng(per_graph + dims)
        ints = rng.integers(-8, 9, size=(num_graphs, per_graph, dims))
        sq_norms = (ints ** 2).sum(axis=2)
        expected = (sq_norms[:, :, None] + sq_norms[:, None, :]
                    - 2 * ints @ ints.transpose(0, 2, 1)).astype(np.float64)
        diagonal = np.arange(per_graph)
        expected[:, diagonal, diagonal] = np.inf
        assembled = np.full(expected.shape, np.nan)
        tiles = _KeyTiles(ints.astype(np.float64), tile_bytes)
        buffer = np.empty(tiles.buffer_size)
        assert buffer.nbytes <= max(tile_bytes, per_graph * 8)
        for index in range(tiles.count):
            graphs, rows, keys = tiles.keys(index, buffer)
            assert np.isnan(assembled[graphs, rows]).all()
            assembled[graphs, rows] = keys + sq_norms[graphs, rows, None]
        assert assembled.tobytes() == expected.tobytes()


def _benchmark_pool(num_points, seed):
    """The 40 clouds one benchmark run serves at ``--seed seed``."""
    graphs = SyntheticModelNet40(num_points=num_points, samples_per_class=4,
                                 num_classes=10, seed=seed).generate()
    return np.stack([np.asarray(graph.pos, dtype=np.float64)
                     for graph in graphs])


@pytest.mark.usefixtures("helper")
class TestBenchmarkClouds:
    """The key against the references on the frames the benchmark serves:
    1024 points at k = 20 (``paper_edge``, ``paper_split``) and 64 at
    k = 16 (``small_batched``, ``small_sharded``), one frame at a time and
    in batches of 8 (``small_batched``'s micro-batch)."""

    @staticmethod
    def _assert_pool_identical(num_points, k, seed):
        pool = _benchmark_pool(num_points, seed)
        frames = [(cloud, 1) for cloud in pool] + [
            (pool[first:first + 8].reshape(-1, 3), 8)
            for first in range(0, len(pool), 8)]
        for points, num_graphs in frames:
            batch = np.repeat(np.arange(num_graphs, dtype=np.int64),
                              num_points)
            assert knn_graph(points, k, batch=batch).tobytes() == \
                _reference_eager(points, k, num_graphs, num_points).tobytes()
            assert _uniform_edges(
                points, k, num_graphs, num_points).tobytes() == \
                _reference_uniform(points, k, num_graphs,
                                   num_points).tobytes()

    @pytest.mark.parametrize("num_points, k", [(1024, 20), (64, 16)])
    def test_seed_0_pool(self, num_points, k):
        self._assert_pool_identical(num_points, k, seed=0)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("num_points, k", [(1024, 20), (64, 16)])
    def test_other_seeds_pools(self, num_points, k, seed):
        self._assert_pool_identical(num_points, k, seed)


class TestTinyGraphs:
    @pytest.mark.parametrize("num_graphs", [1, 3])
    @pytest.mark.parametrize("per_graph, k", [(1, 4), (4, 16), (5, 16),
                                              (16, 16), (17, 20),
                                              (300, 320)])
    def test_uniform_serves_graphs_of_at_most_k_nodes(self, per_graph, k,
                                                      num_graphs):
        """Graphs of at most ``k`` nodes take the selection-only path too,
        and each row holds the neighbours ``knn_graph`` lists, as often as
        it lists them: the repeats decide ``add`` / ``mean`` aggregation.
        ``argpartition`` may return short rows already sorted (numpy 2.4
        does up to 256 entries), so the 300-node case is the one where
        only the loop's re-sort keeps eager's repeats."""
        points = _cloud("gaussian", num_graphs * per_graph, 3, seed=k)
        batch = np.repeat(np.arange(num_graphs, dtype=np.int64), per_graph)
        uniform = _uniform_edges(points, k, num_graphs, per_graph)
        eager = knn_graph(points, k, batch=batch)
        assert uniform.shape == eager.shape
        np.testing.assert_array_equal(uniform[1], eager[1])
        rows = num_graphs * per_graph, k
        np.testing.assert_array_equal(np.sort(uniform[0].reshape(rows)),
                                      np.sort(eager[0].reshape(rows)))


def _in_thread(call, timeout=30.0):
    """``call()``'s result, run on a thread of its own: a loop left waiting
    on a helper that never answers fails the test instead of hanging it."""
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as error:  # re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the kNN call is waiting for its helper"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestTileHelper:
    """The process's helper thread ranks tiles beside the caller, never
    makes it wait, and never changes an edge."""

    @pytest.mark.parametrize("callers", [2, 3])
    def test_callers_at_once_match_serial_calls(self, helper, callers):
        """Handlers' kNNs at once, on different clouds: the helper takes
        their tasks in turn, and a caller whose task waits ranks alone;
        every list is the reference's.  A tile two participants both
        claimed, or neither, would show as a wrong or uninitialised row."""
        clouds = [_cloud("gaussian", 1024, 3, seed) for seed in range(4)]
        expected = [_reference_uniform(cloud, 20, 1, 1024).tobytes()
                    for cloud in clouds]
        rounds = 6
        start = threading.Barrier(callers)
        results = {side: [] for side in range(callers)}

        def caller(side):
            for round_ in range(rounds):
                helper.settle()
                start.wait(timeout=30)
                cloud = clouds[(callers * round_ + side) % len(clouds)]
                results[side].append(
                    _uniform_edges(cloud, 20, 1, 1024).tobytes())

        threads = [threading.Thread(target=caller, args=(side,))
                   for side in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        helper.settle()
        for side in range(callers):
            assert results[side] == [
                expected[(callers * round_ + side) % len(clouds)]
                for round_ in range(rounds)]
        assert len(helper.ranked) == callers * rounds
        assert sum(helper.ranked) > 0

    def test_a_busy_helper_never_makes_the_caller_wait(self, helper):
        """While the helper runs another handler's task, a caller ranks
        every tile itself and returns; its task, run later, finds no tile
        left."""
        cloud = _cloud("gaussian", 1024, 3, seed=6)
        release = threading.Event()
        helper.helper.submit(lambda: release.wait(30))
        try:
            edges = _in_thread(
                lambda: _uniform_edges(cloud, 20, 1, 1024))
        finally:
            release.set()
        assert edges.tobytes() == \
            _reference_uniform(cloud, 20, 1, 1024).tobytes()
        helper.settle()
        assert helper.ranked == [0]

    @pytest.mark.parametrize("num_points, num_graphs, k", [
        (64, 1, 16), (64, 8, 16), (256, 1, 20)])
    def test_groups_of_two_tiles_or_less_never_ask(self, monkeypatch,
                                                   num_points, num_graphs,
                                                   k):
        """The small workloads' 64-point frame and 8-frame micro-batch,
        and a group of exactly two tiles, rank alone without asking for
        the helper; so does eager ``knn_graph`` at any size, so a process
        that only trains never pins BLAS."""
        def no_helper():
            raise AssertionError("asked for the tile helper")

        monkeypatch.setattr(kernels, "_process_helper", no_helper)
        points = _cloud("gaussian", num_graphs * num_points, 3, seed=k)
        assert _uniform_edges(
            points, k, num_graphs, num_points).tobytes() == \
            _reference_uniform(points, k, num_graphs, num_points).tobytes()
        cloud = _cloud("gaussian", 1024, 3, seed=1)
        assert knn_graph(cloud, 20).tobytes() == \
            _reference_eager(cloud, 20, 1, 1024).tobytes()

    def test_without_openblas_the_loop_ranks_alone(self, monkeypatch):
        """When no OpenBLAS is found, the process gets no helper: nothing
        is pinned, no thread starts, and the edges are the reference's."""
        def no_thread():
            raise AssertionError("started a tile helper")

        finder_calls = []
        monkeypatch.setattr(kernels, "_helper", None)
        monkeypatch.setattr(kernels, "_TileHelper", no_thread)
        monkeypatch.setattr(kernels, "_find_openblas",
                            lambda: finder_calls.append(1))
        monkeypatch.setattr(kernels.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        cloud = _cloud("gaussian", 1024, 3, seed=2)
        assert _uniform_edges(cloud, 20, 1, 1024).tobytes() == \
            _reference_uniform(cloud, 20, 1, 1024).tobytes()
        assert finder_calls == [1]
        assert kernels._helper is False
        assert kernels._process_helper() is None

    def test_one_cpu_gets_no_helper_and_leaves_blas_alone(self,
                                                          monkeypatch):
        def untouched():
            raise AssertionError("looked for OpenBLAS")

        monkeypatch.setattr(kernels, "_helper", None)
        monkeypatch.setattr(kernels, "_find_openblas", untouched)
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0})
        cloud = _cloud("gaussian", 1024, 3, seed=4)
        assert _uniform_edges(cloud, 20, 1, 1024).tobytes() == \
            _reference_uniform(cloud, 20, 1, 1024).tobytes()
        assert kernels._process_helper() is None

    def test_pinned_openblas_reports_one_thread(self):
        found = kernels._pin_blas()
        if found is None:
            pytest.skip("numpy's BLAS here is not OpenBLAS")
        path, threads = found
        assert "openblas" in path.lower() and threads == 1

    def test_an_error_in_the_helpers_tiles_reaches_the_caller(
            self, helper, monkeypatch):
        """The caller re-raises it once its own tiles are done, and the
        same thread takes part in the next call."""
        cloud = _cloud("gaussian", 1024, 3, seed=3)
        expected = _reference_uniform(cloud, 20, 1, 1024).tobytes()
        argpartition = np.argpartition
        helper_failed = threading.Event()

        def failing_on_the_helper(*args, **kwargs):
            if threading.current_thread() is helper.helper.thread:
                helper_failed.set()
                raise RuntimeError("a tile failed on the helper")
            # Leave the helper a tile, and let it fail before going on.
            helper_failed.wait(timeout=10)
            helper.settle()
            return argpartition(*args, **kwargs)

        monkeypatch.setattr(np, "argpartition", failing_on_the_helper)
        with pytest.raises(RuntimeError, match="failed on the helper"):
            _in_thread(lambda: kernels.knn_edges_uniform(cloud, 20, 1, 1024))
        assert helper_failed.is_set()
        monkeypatch.setattr(np, "argpartition", argpartition)
        for _ in range(20):
            assert _in_thread(lambda: _uniform_edges(
                cloud, 20, 1, 1024)).tobytes() == expected
            helper.settle()
            if sum(helper.ranked):
                break
        assert sum(helper.ranked) > 0, "the helper never ranked again"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helper(self, helper,
                                                  wait_until):
        """The child has no copy of the parent's thread: it must not hand
        tiles to it (they would all fall back to the caller), but start
        its own."""
        cloud = _cloud("gaussian", 1024, 3, seed=5)
        expected = _reference_uniform(cloud, 20, 1, 1024).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # threads
            pid = os.fork()
        if pid == 0:  # the child reports through its exit status only
            status = 1
            try:
                inherited = kernels._helper is helper
                os.sched_getaffinity = lambda pid: {0, 1}
                own = kernels._process_helper()
                edges = _uniform_edges(cloud, 20, 1, 1024)
                status = 0 if (
                    not inherited and own is not helper
                    and (own is None or own.thread.is_alive())
                    and edges.tobytes() == expected) else 2
            finally:
                os._exit(status)
        reaped = {}

        def child_exited():
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                reaped["status"] = status
            return done

        try:
            wait_until(child_exited, timeout=30, message="the child's kNN")
        except TimeoutError:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        assert os.waitstatus_to_exitcode(reaped["status"]) == 0


# ----------------------------------------------------------------------
# EdgeConv
# ----------------------------------------------------------------------
def _full_grid_edgeconv(x, src, k, reduce):
    """``reduce_j [x_i, x_j - x_i]`` through one ``(N, k, F)`` grid."""
    num_nodes, features = x.shape
    grid = np.take(x, src, axis=0).reshape(num_nodes, k, features)
    grid -= x[:, None, :]
    out = np.empty((num_nodes, 2 * features), x.dtype)
    if reduce in ("add", "sum"):
        np.multiply(x, x.dtype.type(k), out=out[:, :features])
        grid.sum(axis=1, out=out[:, features:])
    elif reduce == "mean":
        out[:, :features] = x
        grid.mean(axis=1, out=out[:, features:])
    else:
        out[:, :features] = x
        grid.max(axis=1, out=out[:, features:])
    return out


NUM_NODES, K = 40, 6


def _edgeconv_case(values, features, dtype):
    """Features and a k-regular source list; ``values`` picks the specials.

    Each special sits in a column of its own, so every NaN a column can
    produce has the same bits whichever the reduction meets first.
    ``neg_inf`` gives node 0 a ``-inf`` in column 0 and the neighbours
    ``-inf`` and ``1.0`` there: ``max_j x_j - x_i`` is ``+inf`` but the
    difference form gives NaN, the one case the kernel's guard exists for.
    """
    rng = np.random.default_rng(features)
    x = rng.standard_normal((NUM_NODES, features))
    src = rng.integers(0, NUM_NODES, size=NUM_NODES * K)
    # Node i's neighbours are src[i * K:(i + 1) * K].
    if values != "finite":
        x[[3, 9], 1 % features] = np.nan
        x[[5, 11, 12], 2 % features] = np.inf
        src[:4] = [9, 5, 11, 12]
        src[5 * K:5 * K + 2] = [12, 3]  # +inf centre, +inf neighbour
    if values == "neg_inf":
        x[[0, 1, 7], 0] = -np.inf
        x[2, 0] = 1.0
        src[4:6] = [1, 2]
    return x.astype(dtype), src.astype(np.int64)


class TestChunkedEdgeConv:
    @pytest.mark.parametrize("values", ["finite", "inf_nan", "neg_inf"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 7, NUM_NODES])
    @pytest.mark.parametrize("features", [3, 64])
    @pytest.mark.parametrize("reduce", ["max", "add", "sum", "mean"])
    def test_matches_full_grid(self, reduce, features, rows, dtype, values):
        x, src = _edgeconv_case(values, features, dtype)
        with np.errstate(invalid="ignore"):  # inf - inf is the point here
            out = kernels.edgeconv_uniform(
                x, src, K, reduce, np.empty((K, rows, features), dtype),
                np.empty((NUM_NODES, 2 * features), dtype))
            expected = _full_grid_edgeconv(x, src, K, reduce)
        assert out.tobytes() == expected.tobytes()

    def test_neg_inf_case_needs_the_difference_form(self):
        """The case above really separates the two forms of ``max``."""
        x, src = _edgeconv_case("neg_inf", 3, np.float64)
        grid = np.take(x, src, axis=0).reshape(NUM_NODES, K, 3)
        with np.errstate(invalid="ignore"):
            assert np.isnan(_full_grid_edgeconv(x, src, K, "max")[0, 3])
        assert grid.max(axis=1)[0, 0] - x[0, 0] == np.inf

    @pytest.mark.parametrize("bad", [NUM_NODES, -NUM_NODES - 1])
    def test_plan_refuses_a_source_outside_the_frame(self, bad):
        """The kernels gather with ``mode="wrap"``; the plan range-checks
        each k-regular topology first, so a source past either end still
        raises ``IndexError`` — and ``-1`` still means the last node, as it
        did under numpy's default mode."""
        x, src = _edgeconv_case("finite", 3, np.float64)
        plan = compile_plan(ArchitectureModel(Architecture(ops=(
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.GLOBAL_POOL, "max"))), in_dim=3, num_classes=2,
            seed=0))
        batch = np.zeros(NUM_NODES, np.int64)
        dst = np.repeat(np.arange(NUM_NODES), K)
        last = src.copy()
        last[src == NUM_NODES - 1] = -1
        np.testing.assert_array_equal(
            plan.full.execute_out(x, batch, 1, np.stack([last, dst])).x,
            plan.full.execute_out(x, batch, 1, np.stack([src, dst])).x)
        src[7] = bad
        with pytest.raises(IndexError, match="out of bounds"):
            plan.full.execute(x, batch, 1, np.stack([src, dst]))


# ----------------------------------------------------------------------
# What the tiles save
# ----------------------------------------------------------------------
def _paper_edge_frame():
    graph = SyntheticModelNet40(num_points=1024, samples_per_class=1,
                                num_classes=2, seed=0).generate()[0]
    return Batch.from_graphs([graph])


class TestTileMemory:
    def test_knn_peak_allocation(self, helper):
        """One 1024-point k=20 frame: the full-matrix kernel peaked at
        16.6 MiB of temporaries, the first tiles with a product buffer
        beside each tile at 1.1 MiB; one GEMM per tile stays under 1 MiB,
        also when the helper ranks beside the caller, because each of the
        two then ranks into a buffer of half a tile."""
        points = _paper_edge_frame().pos
        kernels.knn_edges_uniform(points, 20, 1, 1024)
        for _ in range(20):
            helper.ranked.clear()
            tracemalloc.start()
            try:
                kernels.knn_edges_uniform(points, 20, 1, 1024)
                helper.settle()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1 * MiB, f"kNN peak {peak / MiB:.2f} MiB"
            if sum(helper.ranked):
                break
        assert sum(helper.ranked) > 0, "the helper never took a tile"

    @pytest.mark.parametrize("reduce", ["max", "mean"])
    @pytest.mark.parametrize("features", [3, 64])
    def test_edgeconv_peak_allocation(self, features, reduce):
        """One 1024 x 20 EdgeConv with its scratch supplied allocates less
        than that scratch: the gather writes into it in place.  numpy's
        default ``take`` mode gathered into a scratch-sized temporary and
        copied it over, a peak of 257 / 251 KiB at F = 3 / 64."""
        rng = np.random.default_rng(features)
        x = rng.standard_normal((1024, features))
        src = rng.integers(0, 1024, size=1024 * 20)
        rows = _TILE_BYTES // (20 * features * x.itemsize)
        scratch = np.empty((20, rows, features))
        out = np.empty((1024, 2 * features))
        kernels.edgeconv_uniform(x, src, 20, reduce, scratch, out)
        tracemalloc.start()
        try:
            kernels.edgeconv_uniform(x, src, 20, reduce, scratch, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < scratch.nbytes, (
            f"EdgeConv peak {peak / 1024:.0f} KiB, scratch "
            f"{scratch.nbytes / 1024:.0f} KiB")

    @staticmethod
    def _paper_edge_callables(**config):
        ops = (OpSpec(OpType.COMMUNICATE, "uplink"),
               OpSpec(OpType.SAMPLE, "knn", k=20),
               OpSpec(OpType.AGGREGATE, "max"), OpSpec(OpType.COMBINE, 64),
               OpSpec(OpType.AGGREGATE, "max"), OpSpec(OpType.COMBINE, 64),
               OpSpec(OpType.GLOBAL_POOL, "max||mean"))
        zoo = ArchitectureZoo([ZooEntry(
            "paper", Architecture(ops=ops, name="paper"), 0.9, 50.0, 0.5)])
        serving = build_zoo_callables(zoo, in_dim=3, num_classes=10,
                                      config=RuntimeConfig(**config))["paper"]
        serving.edge_fn(*serving.device_fn(_paper_edge_frame()))
        return serving

    def test_paper_edge_plan_arena(self):
        """The paper-scale edge plan (Communicate first, two 1024 x 20
        EdgeConvs) held 12.5 MiB after one frame with full grids."""
        serving = self._paper_edge_callables()
        assert 0 < serving.arena_nbytes() <= 4 * MiB, (
            f"edge arena {serving.arena_nbytes() / MiB:.2f} MiB")

    def test_int8_paper_plan_edgeconv_scratch_fits_a_tile(self):
        """The int8 EdgeConv walks the float kernel's slot-major chunks;
        it used to gather the whole ``(N, k, F)`` grid, 1.25 MiB at
        F = 64.  Its scratches are the arena's only 3-D buffers."""
        serving = self._paper_edge_callables(precision="int8")
        grids = [buffer for plan in serving.plans
                 for segment in plan.segments()
                 for arena in segment.arenas()
                 for buffer in arena._buffers.values() if buffer.ndim == 3]
        assert {grid.shape[2] for grid in grids} == {3, 64}
        for grid in grids:
            assert grid.dtype == np.int8 and grid.shape[0] == 20
            assert grid.nbytes <= _TILE_BYTES, grid.shape
