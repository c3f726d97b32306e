"""Integration tests: the full GCoDE pipeline end-to-end on tiny workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (GCoDE, GCoDEConfig, SearchConstraints, TrainingConfig)
from repro.graph.data import Batch
from repro.serving import build_callables
from repro.hardware import (DataProfile, JETSON_TX2, RASPBERRY_PI_4B, INTEL_I7,
                            NVIDIA_1060, LINK_40MBPS, LINK_10MBPS)
from repro.system import run_co_inference


@pytest.fixture(scope="module")
def gcode_session(tiny_modelnet_module, modelnet_profile_module):
    """A prepared GCoDE session shared by the integration tests."""
    gcode = GCoDE(profile=modelnet_profile_module, device=JETSON_TX2, edge=INTEL_I7,
                  link=LINK_40MBPS,
                  config=GCoDEConfig(num_layers=6, supernet_hidden=32,
                                     combine_widths=(16, 32, 64),
                                     k_choices=(4, 8), seed=0))
    gcode.prepare(tiny_modelnet_module.train, tiny_modelnet_module.val,
                  supernet_epochs=2, batch_size=8)
    return gcode


# Module-scoped copies of the session fixtures (conftest ones are session-scoped
# but function-scoped access is fine; we re-declare to keep the GCoDE fixture
# module-scoped without re-generating data).
@pytest.fixture(scope="module")
def tiny_modelnet_module():
    from repro.graph import SyntheticModelNet40, stratified_split
    dataset = SyntheticModelNet40(num_points=32, samples_per_class=6,
                                  num_classes=5, seed=0)
    return stratified_split(dataset.generate(), 0.6, 0.2, seed=0)


@pytest.fixture(scope="module")
def modelnet_profile_module():
    return DataProfile.modelnet40(num_points=32, num_classes=5)


class TestGCoDEPipeline:
    def test_search_produces_constrained_zoo(self, gcode_session):
        result = gcode_session.search(
            SearchConstraints(latency_ms=80.0, energy_j=1.0, tradeoff_lambda=0.2),
            max_trials=60, tuning_trials=3, keep_top=5)
        assert result.best is not None
        assert len(gcode_session.zoo) >= 1
        for entry in gcode_session.zoo:
            assert entry.latency_ms < 80.0
            assert entry.device_energy_j < 1.0

    def test_search_with_cost_and_simulator_evaluators_agree_on_ranking(
            self, gcode_session):
        constraints = SearchConstraints(latency_ms=100.0, energy_j=2.0)
        cost_result = gcode_session.search(constraints, max_trials=40,
                                           tuning_trials=0, evaluator="cost")
        simulator_result = gcode_session.search(constraints, max_trials=40,
                                                tuning_trials=0,
                                                evaluator="simulator")
        assert cost_result.best is not None and simulator_result.best is not None

    def test_predictor_evaluator_requires_training(self, gcode_session):
        with pytest.raises(RuntimeError):
            gcode_session._efficiency_evaluator("predictor")
        gcode_session.build_predictor(num_samples=30, epochs=3, hidden_dim=16)
        evaluator = gcode_session._efficiency_evaluator("predictor")
        arch = gcode_session.zoo.best("latency").architecture
        assert evaluator.evaluate(arch).latency_ms > 0

    def test_deploy_and_dispatch(self, gcode_session, tiny_modelnet_module):
        gcode_session.search(SearchConstraints(latency_ms=100.0, energy_j=2.0),
                             max_trials=40, tuning_trials=2, keep_top=4)
        entry = gcode_session.zoo.best("latency")
        model, training = gcode_session.deploy(
            entry, tiny_modelnet_module.train, tiny_modelnet_module.val,
            training=TrainingConfig(epochs=3, batch_size=8, seed=0))
        assert training.val_accuracy >= 0.0
        dispatcher = gcode_session.dispatcher()
        chosen = dispatcher.select()
        assert chosen.name in gcode_session.zoo.names()

    def test_engine_serves_deployed_model(self, gcode_session, tiny_modelnet_module):
        gcode_session.search(SearchConstraints(latency_ms=100.0, energy_j=2.0),
                             max_trials=30, tuning_trials=0, keep_top=3)
        entry = gcode_session.zoo.best("latency")
        model, _ = gcode_session.deploy(entry, tiny_modelnet_module.train,
                                        tiny_modelnet_module.val,
                                        training=TrainingConfig(epochs=1,
                                                                batch_size=8))
        serving = build_callables(model)
        frames = [Batch.from_graphs([g]) for g in tiny_modelnet_module.test[:3]]
        results, stats = run_co_inference(frames, serving.device_fn,
                                          serving.edge_fn)
        assert len(results) == 3 and stats.throughput_fps > 0

    def test_search_requires_prepare(self, modelnet_profile_module):
        fresh = GCoDE(profile=modelnet_profile_module, device=JETSON_TX2,
                      edge=INTEL_I7, link=LINK_40MBPS)
        with pytest.raises(RuntimeError):
            fresh.search(SearchConstraints(), max_trials=5)

    def test_evaluate_architecture_helper(self, gcode_session):
        entry = gcode_session.zoo.best("accuracy")
        perf = gcode_session.evaluate_architecture(entry.architecture)
        assert perf.latency_ms > 0


class TestCrossSystemBehaviour:
    """Directional checks mirroring the paper's qualitative claims."""

    def _search_best_latency(self, device, edge, link, profile, split):
        gcode = GCoDE(profile=profile, device=device, edge=edge, link=link,
                      config=GCoDEConfig(num_layers=6, supernet_hidden=32,
                                         combine_widths=(16, 32),
                                         k_choices=(4,), seed=0))
        gcode.prepare(split.train, split.val, supernet_epochs=1, batch_size=8)
        gcode.search(SearchConstraints(tradeoff_lambda=1.0), max_trials=40,
                     tuning_trials=0, keep_top=3)
        return gcode.zoo.best("latency").latency_ms

    def test_co_design_beats_dgcnn_device_only(self, tiny_modelnet_module,
                                               modelnet_profile_module):
        """GCoDE's searched co-inference design should be much faster than
        running DGCNN entirely on a weak device (the Table 2 headline)."""
        from repro.baselines import dgcnn_architecture
        from repro.system import CoInferenceSimulator, SystemConfig
        best = self._search_best_latency(RASPBERRY_PI_4B, NVIDIA_1060, LINK_40MBPS,
                                         modelnet_profile_module,
                                         tiny_modelnet_module)
        simulator = CoInferenceSimulator(SystemConfig(RASPBERRY_PI_4B, NVIDIA_1060,
                                                      LINK_40MBPS))
        dgcnn = simulator.evaluate_device_only(dgcnn_architecture().ops,
                                               modelnet_profile_module)
        assert dgcnn.latency_ms / best > 2.0

    def test_worse_network_never_improves_best_latency(self, tiny_modelnet_module,
                                                       modelnet_profile_module):
        fast_link = self._search_best_latency(JETSON_TX2, NVIDIA_1060, LINK_40MBPS,
                                              modelnet_profile_module,
                                              tiny_modelnet_module)
        slow_link = self._search_best_latency(JETSON_TX2, NVIDIA_1060, LINK_10MBPS,
                                              modelnet_profile_module,
                                              tiny_modelnet_module)
        assert slow_link >= fast_link - 1.0
