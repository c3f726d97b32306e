"""One callable table: the batched edge callable is the only edge shape a
server runs, from the repository through the worker hop to the engine.

Pinned here:

* the guarantee that lets the per-frame path go — a zoo entry's
  ``batch_fn([state])[0]`` is byte-identical to its ``edge_fn(*state)``, for
  every runtime and precision, at both kinds of cut and for the Device-Only
  echo;
* the removed surface stays removed — no ``edge_fns`` table beside
  ``batch_fns``, no per-request ``batched`` switch on the worker hop, no
  per-frame repository router;
* hello and frame routing resolve a selected name through one membership
  test, the default entry included.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from conftest import per_frame
from repro.core import Architecture, ArchitectureModel
from repro.gnn import OpSpec, OpType
from repro.graph import SyntheticModelNet40
from repro.graph.data import Batch
from repro.serving import ModelRepository, RuntimeConfig, build_callables
from repro.serving.workers import WorkerLink
from repro.system import DeviceClient, EdgeServer, ServingTable

#: Each runtime / precision a served entry can run at.
RUNTIMES = {
    "compiled-float64": RuntimeConfig(runtime="compiled"),
    "compiled-float32": RuntimeConfig(runtime="compiled", precision="float32"),
    "compiled-int8": RuntimeConfig(runtime="compiled", precision="int8"),
    "eager": RuntimeConfig(runtime="eager"),
}


def _arch(cut):
    """Two knn ``Sample`` blocks; ``Communicate`` inserted at index ``cut``
    (``None`` = Device-Only, served on the edge by the ``finished`` echo)."""
    ops = [OpSpec(OpType.SAMPLE, "knn", k=8), OpSpec(OpType.AGGREGATE, "max"),
           OpSpec(OpType.COMBINE, 32), OpSpec(OpType.SAMPLE, "knn", k=8),
           OpSpec(OpType.AGGREGATE, "mean"),
           OpSpec(OpType.GLOBAL_POOL, "max||mean")]
    if cut is not None:
        ops.insert(cut, OpSpec(OpType.COMMUNICATE, "uplink"))
    return Architecture(ops=tuple(ops))


@pytest.fixture(scope="module")
def point_clouds():
    graphs = SyntheticModelNet40(num_points=256, samples_per_class=1,
                                 num_classes=2, seed=0).generate()
    return [Batch.from_graphs([graph]) for graph in graphs]


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("cut", [0, 3, None],
                         ids=["cut0", "cut3", "device-only"])
def test_a_batch_of_one_is_byte_identical_to_the_frame(point_clouds, cut,
                                                       runtime):
    model = ArchitectureModel(_arch(cut), in_dim=3, num_classes=5, seed=0)
    assert model.first_communicate_index() == cut
    serving = build_callables(model, RUNTIMES[runtime])
    for frame in point_clouds:
        state = serving.device_fn(frame)
        assert state[1]["finished"] == (cut is None)
        want, want_meta = serving.edge_fn(*state)
        [(got, got_meta)] = serving.batch_fn([state])
        assert got_meta == want_meta
        assert got.keys() == want.keys() == {"logits"}
        assert got["logits"].dtype == want["logits"].dtype
        assert got["logits"].shape == want["logits"].shape
        assert got["logits"].tobytes() == want["logits"].tobytes()


#: (what, the parameter / attribute that must stay gone).
REMOVED = [
    (EdgeServer.__init__, "edge_fns"),
    (EdgeServer.install_table, "edge_fns"),
    (WorkerLink.request, "batched"),
]


@pytest.mark.parametrize("fn,name", REMOVED,
                         ids=lambda value: getattr(value, "__qualname__",
                                                   value))
def test_no_second_callable_shape_in_a_signature(fn, name):
    assert name not in inspect.signature(fn).parameters, (
        f"{fn.__qualname__} regained {name!r}: a frame is a batch of one")


def test_no_per_frame_router_beside_the_batched_one():
    assert not hasattr(ModelRepository, "edge_router")
    assert not hasattr(ModelRepository, "edge_fns")
    assert not hasattr(WorkerLink, "request_frame")
    assert [field.name for field in dataclasses.fields(ServingTable)] == \
        ["default_name", "entries", "selector"]


def test_hello_and_frame_routing_agree_on_every_name():
    """A selector may pick any entry — the default one included — and the
    hello's answer is the entry the frame is then served by."""
    factors = {"default": 1.0, "a": 2.0, "b": 3.0}

    def scaled(factor):
        return lambda arrays, meta: ({"y": arrays["x"] * factor}, {})

    server = EdgeServer(scaled(factors["default"]),
                        batch_fns={name: per_frame(scaled(factor))
                                   for name, factor in factors.items()
                                   if name != "default"},
                        selector=lambda meta: meta["conditions"]["pick"]
                        ).start()
    device_fn = lambda frame: ({"x": np.asarray(frame, dtype=float)}, {})
    try:
        table = server.table
        assert table.model_names() == sorted(factors)
        for name in table.model_names():
            conditions = {"pick": name}
            assert EdgeServer._resolve({"conditions": conditions},
                                       table)[0] == name
            client = DeviceClient(server.host, server.port,
                                  conditions=conditions)
            try:
                assert client.assigned_model == name
                results, _ = client.run_pipeline([np.ones(2)], device_fn,
                                                 timeout_s=10.0)
            finally:
                client.close()
            np.testing.assert_array_equal(results[0].arrays["y"],
                                          [factors[name]] * 2)
    finally:
        server.stop()
    stats = server.stats()
    assert stats.errors == 0
    assert stats.frames_by_model == {name: 1 for name in factors}
