"""Tests for the architecture executor, stand-alone training and the supernet."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (Architecture, ArchitectureModel, AccuracyCache, SuperNet,
                        TrainingConfig, evaluate_model, train_architecture)
from repro.core.design_space import DesignSpace
from repro.gnn import OpSpec, OpType
from repro.graph.data import Batch
from repro.serving import build_callables


SAMPLE = OpSpec(OpType.SAMPLE, "knn", k=4)
AGG = OpSpec(OpType.AGGREGATE, "max")
POOL = OpSpec(OpType.GLOBAL_POOL, "mean")
COMM = OpSpec(OpType.COMMUNICATE, "uplink")


def simple_arch(width=16):
    return Architecture(ops=(SAMPLE, AGG, OpSpec(OpType.COMBINE, width), POOL))


class TestArchitectureModel:
    def test_forward_shape(self, tiny_modelnet, modelnet_profile):
        model = ArchitectureModel(simple_arch(), modelnet_profile.feature_dim,
                                  modelnet_profile.num_classes, seed=0)
        batch = Batch.from_graphs(tiny_modelnet.train[:4])
        logits = model(batch)
        assert logits.shape == (4, modelnet_profile.num_classes)

    def test_communicate_does_not_change_output(self, tiny_modelnet, modelnet_profile):
        plain = simple_arch()
        with_comm = Architecture(ops=(SAMPLE, AGG, COMM,
                                      OpSpec(OpType.COMBINE, 16), POOL))
        batch = Batch.from_graphs(tiny_modelnet.train[:2])
        a = ArchitectureModel(plain, 3, modelnet_profile.num_classes, seed=3)
        b = ArchitectureModel(with_comm, 3, modelnet_profile.num_classes, seed=3)
        np.testing.assert_allclose(a(batch).data, b(batch).data, atol=1e-9)

    def test_first_communicate_index(self, modelnet_profile):
        arch = Architecture(ops=(SAMPLE, COMM, AGG, OpSpec(OpType.COMBINE, 16), POOL))
        model = ArchitectureModel(arch, 3, 5, seed=0)
        assert model.first_communicate_index() == 1
        assert ArchitectureModel(simple_arch(), 3, 5).first_communicate_index() is None

    def test_engine_callables_match_full_forward(self, tiny_modelnet,
                                                 modelnet_profile):
        arch = Architecture(ops=(SAMPLE, AGG, COMM, OpSpec(OpType.COMBINE, 16), POOL))
        model = ArchitectureModel(arch, 3, modelnet_profile.num_classes, seed=1)
        serving = build_callables(model)
        batch = Batch.from_graphs(tiny_modelnet.test[:2])
        arrays, meta = serving.device_fn(batch)
        logits, _ = serving.edge_fn(arrays, meta)
        np.testing.assert_allclose(logits["logits"], model(batch).data, atol=1e-9)

    def test_engine_callables_device_only_architecture(self, tiny_modelnet,
                                                       modelnet_profile):
        model = ArchitectureModel(simple_arch(), 3, modelnet_profile.num_classes,
                                  seed=2)
        serving = build_callables(model)
        batch = Batch.from_graphs(tiny_modelnet.test[:1])
        arrays, meta = serving.device_fn(batch)
        assert meta["finished"] is True
        logits, _ = serving.edge_fn(arrays, meta)
        np.testing.assert_allclose(logits["logits"], model(batch).data)

    def test_gradients_flow_through_whole_model(self, tiny_modelnet, modelnet_profile):
        from repro import nn
        model = ArchitectureModel(simple_arch(), 3, modelnet_profile.num_classes,
                                  seed=0)
        batch = Batch.from_graphs(tiny_modelnet.train[:4])
        loss = nn.cross_entropy(model(batch), batch.y)
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)


class TestTraining:
    def test_training_can_fit_training_set(self, tiny_modelnet, modelnet_profile):
        """The training loop must be able to (over)fit a small training set."""
        config = TrainingConfig(epochs=20, batch_size=8, lr=1e-2, seed=0)
        model, result = train_architecture(simple_arch(32), tiny_modelnet.train,
                                           tiny_modelnet.train,
                                           modelnet_profile.feature_dim,
                                           modelnet_profile.num_classes, config)
        chance = 1.0 / modelnet_profile.num_classes
        assert result.val_accuracy > chance + 0.1
        assert result.train_losses[-1] < result.train_losses[0]

    def test_evaluate_model_bounds(self, tiny_modelnet, modelnet_profile):
        model = ArchitectureModel(simple_arch(), 3, modelnet_profile.num_classes)
        overall, balanced = evaluate_model(model, tiny_modelnet.val)
        assert 0.0 <= overall <= 1.0 and 0.0 <= balanced <= 1.0


class TestSuperNet:
    @pytest.fixture
    def supernet(self, modelnet_space, modelnet_profile):
        return SuperNet(modelnet_space, modelnet_profile.feature_dim,
                        modelnet_profile.num_classes, hidden_dim=32, seed=0)

    def test_forward_any_valid_architecture(self, supernet, modelnet_space,
                                            tiny_modelnet):
        rng = np.random.default_rng(0)
        batch = Batch.from_graphs(tiny_modelnet.train[:4])
        for _ in range(10):
            arch = modelnet_space.sample_valid(rng)
            logits = supernet.forward_architecture(arch, batch)
            assert logits.shape == (4, supernet.num_classes)
            assert np.isfinite(logits.data).all()

    def test_pretraining_reduces_loss(self, supernet, tiny_modelnet):
        losses = supernet.pretrain(tiny_modelnet.train, epochs=3, batch_size=8,
                                   lr=5e-3)
        assert len(losses) == 3
        assert losses[-1] <= losses[0]

    def test_evaluate_returns_bounded_accuracies(self, supernet, modelnet_space,
                                                 tiny_modelnet):
        arch = modelnet_space.sample_valid(np.random.default_rng(1))
        overall, balanced = supernet.evaluate(arch, tiny_modelnet.val)
        assert 0.0 <= overall <= 1.0 and 0.0 <= balanced <= 1.0

    def test_accuracy_cache_memoizes(self, supernet, modelnet_space, tiny_modelnet):
        cache = AccuracyCache(supernet, tiny_modelnet.val)
        arch = modelnet_space.sample_valid(np.random.default_rng(2))
        first = cache(arch)
        second = cache(arch)
        assert first == second and len(cache) == 1

    def test_weight_sharing_trains_shared_parameters(self, supernet, modelnet_space,
                                                     tiny_modelnet):
        """Pre-training must actually move the shared weights."""
        before = {name: param.data.copy()
                  for name, param in supernet.named_parameters()}
        supernet.pretrain(tiny_modelnet.train, epochs=1, batch_size=8, lr=1e-2)
        moved = sum(not np.allclose(before[name], param.data)
                    for name, param in supernet.named_parameters())
        assert moved > 0
