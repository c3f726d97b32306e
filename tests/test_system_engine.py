"""Tests for the wire format and the socket-based co-inference engine."""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest

from repro.system import (Message, compressed_size, deserialize_message,
                          run_co_inference, serialize_message)
from repro.system.engine import EdgeServer, DeviceClient
from repro.system.messages import recv_message, serialize_message as _serialize


class TestMessages:
    def test_roundtrip_preserves_arrays_and_meta(self):
        rng = np.random.default_rng(0)
        message = Message(kind="frame", frame_id=7,
                          arrays={"x": rng.standard_normal((5, 3)),
                                  "batch": np.arange(5)},
                          meta={"pooled": False, "num_graphs": 1})
        restored = deserialize_message(serialize_message(message))
        assert restored.kind == "frame" and restored.frame_id == 7
        assert restored.meta == message.meta
        np.testing.assert_allclose(restored.arrays["x"], message.arrays["x"])
        np.testing.assert_array_equal(restored.arrays["batch"], message.arrays["batch"])

    def test_integer_dtype_survives_roundtrip(self):
        message = Message(kind="frame", arrays={"edge_index": np.array([[0, 1], [1, 2]])})
        restored = deserialize_message(serialize_message(message))
        assert restored.arrays["edge_index"].dtype.kind == "i"

    def test_compression_shrinks_redundant_data(self):
        redundant = {"x": np.zeros((256, 64))}
        assert compressed_size(redundant) < redundant["x"].nbytes / 10

    def test_empty_message(self):
        restored = deserialize_message(serialize_message(Message(kind="stop")))
        assert restored.kind == "stop" and restored.arrays == {}


class TestTruncation:
    """A mid-frame peer death must raise, never masquerade as a clean close."""

    @staticmethod
    def _frame_bytes() -> bytes:
        blob = _serialize(Message(kind="frame", frame_id=1,
                                  arrays={"x": np.ones((16, 16))}))
        return struct.pack(">I", len(blob)) + blob

    def test_clean_close_returns_none(self):
        writer, reader = socket.socketpair()
        writer.close()
        try:
            assert recv_message(reader) is None
        finally:
            reader.close()

    def test_truncated_payload_raises(self):
        writer, reader = socket.socketpair()
        wire = self._frame_bytes()
        writer.sendall(wire[:len(wire) // 2])
        writer.close()
        try:
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_message(reader)
        finally:
            reader.close()

    def test_missing_payload_raises(self):
        writer, reader = socket.socketpair()
        writer.sendall(self._frame_bytes()[:4])  # full prefix, no payload
        writer.close()
        try:
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_message(reader)
        finally:
            reader.close()

    def test_truncated_length_prefix_raises(self):
        writer, reader = socket.socketpair()
        writer.sendall(self._frame_bytes()[:2])  # half a length prefix
        writer.close()
        try:
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_message(reader)
        finally:
            reader.close()

    def test_full_frame_still_decodes(self):
        writer, reader = socket.socketpair()
        writer.sendall(self._frame_bytes())
        writer.close()
        try:
            message = recv_message(reader)
            assert message is not None and message.frame_id == 1
            assert recv_message(reader) is None  # then a clean close
        finally:
            reader.close()


class TestEngine:
    @staticmethod
    def _device_fn(frame):
        return {"x": np.asarray(frame, dtype=np.float64)}, {"scale": 2.0}

    @staticmethod
    def _edge_fn(arrays, meta):
        return {"y": arrays["x"] * meta["scale"]}, {"done": True}

    def test_run_co_inference_roundtrip(self):
        frames = [np.full((4, 2), i, dtype=float) for i in range(5)]
        results, stats = run_co_inference(frames, self._device_fn, self._edge_fn)
        assert len(results) == 5
        for i, result in enumerate(results):
            assert result.frame_id == i
            np.testing.assert_allclose(result.arrays["y"], frames[i] * 2.0)
            assert result.meta == {"done": True}
        assert stats.num_frames == 5 and stats.throughput_fps > 0
        assert stats.bytes_sent > 0 and stats.bytes_received > 0

    def test_results_sorted_by_frame_id(self):
        frames = [np.array([[float(i)]]) for i in range(8)]
        results, _ = run_co_inference(frames, self._device_fn, self._edge_fn)
        assert [r.frame_id for r in results] == list(range(8))

    def test_edge_server_counts_frames(self):
        server = EdgeServer(self._edge_fn).start()
        client = DeviceClient(server.host, server.port)
        try:
            client.run_pipeline([np.ones((2, 2))] * 3, self._device_fn)
        finally:
            client.close()
            server.stop()
        assert server.frames_processed == 3

    def test_latencies_are_positive(self):
        frames = [np.ones((3, 3))] * 4
        results, stats = run_co_inference(frames, self._device_fn, self._edge_fn)
        assert all(r.latency_s >= 0 for r in results)
        assert stats.mean_latency_s >= 0

    def test_latency_includes_device_compute(self):
        """Frame latency must cover the device segment, not just link + edge."""
        device_delay_s = 0.03

        def slow_device_fn(frame):
            time.sleep(device_delay_s)
            return self._device_fn(frame)

        frames = [np.ones((2, 2))] * 3
        results, stats = run_co_inference(frames, slow_device_fn, self._edge_fn)
        assert all(r.latency_s >= device_delay_s for r in results)
        assert stats.mean_latency_s >= device_delay_s

    def test_engine_with_architecture_model(self, tiny_modelnet, modelnet_profile):
        """End-to-end: a split ArchitectureModel served through the engine."""
        from repro.core import Architecture, ArchitectureModel
        from repro.gnn import OpSpec, OpType
        from repro.graph.data import Batch
        from repro.serving import build_callables

        arch = Architecture(ops=(
            OpSpec(OpType.SAMPLE, "knn", k=4),
            OpSpec(OpType.AGGREGATE, "max"),
            OpSpec(OpType.COMMUNICATE, "uplink"),
            OpSpec(OpType.COMBINE, 16),
            OpSpec(OpType.GLOBAL_POOL, "mean"),
        ))
        model = ArchitectureModel(arch, in_dim=modelnet_profile.feature_dim,
                                  num_classes=modelnet_profile.num_classes, seed=0)
        serving = build_callables(model)
        frames = [Batch.from_graphs([g]) for g in tiny_modelnet.test[:3]]
        results, stats = run_co_inference(frames, serving.device_fn,
                                          serving.edge_fn)
        assert len(results) == 3
        for result in results:
            assert result.arrays["logits"].shape == (1, modelnet_profile.num_classes)
        # The engine output must match a local (non-split) forward pass.
        local = model(frames[0]).data
        np.testing.assert_allclose(results[0].arrays["logits"], local, atol=1e-8)
