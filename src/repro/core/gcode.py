"""Top-level GCoDE framework API.

:class:`GCoDE` wires the framework components together the way the paper's
Fig. 5 describes: given the user requirements (application/data profile,
target device-edge pair, anticipated network speed, latency/energy
constraints), it trains the one-shot supernet, builds a system-performance
awareness method (LUT cost estimation or the GIN predictor), runs the
constraint-based random search, collects the results into an architecture
zoo and hands back deployable models plus a runtime dispatcher.

A typical session::

    gcode = GCoDE(profile=DataProfile.modelnet40(num_points=128, num_classes=10),
                  device=JETSON_TX2, edge=INTEL_I7, link=LINK_40MBPS)
    gcode.prepare(train_graphs, val_graphs, supernet_epochs=3)
    result = gcode.search(SearchConstraints(latency_ms=100.0, energy_j=1.0),
                          max_trials=300)
    entry = gcode.zoo.best("latency")
    model, training = gcode.deploy(entry, train_graphs, val_graphs)
    serving = repro.serving.build_callables(model)  # device/edge/batch fns
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graph.data import GraphData
from ..hardware.device import DeviceSpec
from ..hardware.latency_lut import build_latency_lut
from ..hardware.network import WirelessLink, get_link
from ..hardware.workload import DataProfile
from ..system.simulator import CoInferenceSimulator, SystemConfig
from .architecture import Architecture
from .design_space import DesignSpace
from .dispatcher import RuntimeDispatcher
from .executor import ArchitectureModel
from .performance import (CostEstimatorEvaluator, EfficiencyEvaluator,
                          PredictorEvaluator, SimulatorEvaluator)
from .predictor.cost_estimation import CostEstimator
from .predictor.dataset import generate_predictor_dataset, split_samples
from .predictor.features import FeatureBuilder
from .predictor.gin_predictor import LatencyPredictor, PredictorTrainer
from .search.common import SearchConstraints, SearchResult
from .search.random_search import ConstraintRandomSearch, RandomSearchConfig
from .supernet import AccuracyCache, SuperNet
from .trainer import TrainingConfig, TrainingResult, train_architecture
from .zoo import ArchitectureZoo


@dataclass
class GCoDEConfig:
    """Structural configuration of a GCoDE session."""

    num_layers: int = 8
    combine_widths: Tuple[int, ...] = (16, 32, 64, 128)
    k_choices: Tuple[int, ...] = (9, 20)
    max_communicates: int = 2
    classifier_hidden: int = 64
    supernet_hidden: int = 128
    seed: int = 0


class GCoDE:
    """Architecture-mapping co-design and deployment for one target system."""

    def __init__(self, profile: DataProfile, device: DeviceSpec, edge: DeviceSpec,
                 link, config: Optional[GCoDEConfig] = None) -> None:
        self.profile = profile
        self.config = config or GCoDEConfig()
        self.link: WirelessLink = get_link(link)
        self.system = SystemConfig(device=device, edge=edge, link=self.link)
        self.simulator = CoInferenceSimulator(self.system)
        self.space = DesignSpace(
            num_layers=self.config.num_layers,
            profile=profile,
            combine_widths=self.config.combine_widths,
            k_choices=self.config.k_choices,
            max_communicates=self.config.max_communicates,
            classifier_hidden=self.config.classifier_hidden,
        )
        self.device_lut = build_latency_lut(device, profile)
        self.edge_lut = build_latency_lut(edge, profile)
        self.cost_estimator = CostEstimator(self.device_lut, self.edge_lut,
                                            self.link, profile)
        self.supernet: Optional[SuperNet] = None
        self.accuracy_cache: Optional[AccuracyCache] = None
        self.predictor_trainer: Optional[PredictorTrainer] = None
        self.feature_builder = FeatureBuilder(self.device_lut, self.edge_lut,
                                              self.link, profile, mode="enhanced")
        self.zoo = ArchitectureZoo()
        self.last_result: Optional[SearchResult] = None
        self._in_dim = profile.feature_dim
        self._num_classes = profile.num_classes

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def prepare(self, train_graphs: Sequence[GraphData],
                val_graphs: Sequence[GraphData], supernet_epochs: int = 3,
                batch_size: int = 16, lr: float = 1e-3,
                verbose: bool = False) -> List[float]:
        """Pre-train the one-shot supernet and set up accuracy evaluation."""
        self.supernet = SuperNet(self.space, self._in_dim, self._num_classes,
                                 hidden_dim=self.config.supernet_hidden,
                                 seed=self.config.seed)
        losses = self.supernet.pretrain(train_graphs, epochs=supernet_epochs,
                                        batch_size=batch_size, lr=lr,
                                        verbose=verbose)
        self.accuracy_cache = AccuracyCache(self.supernet, val_graphs,
                                            batch_size=batch_size)
        return losses

    def build_predictor(self, num_samples: int = 400, epochs: int = 30,
                        hidden_dim: int = 64, noise_std: float = 0.03,
                        verbose: bool = False) -> PredictorTrainer:
        """Train the GIN system-latency predictor for this target system."""
        samples = generate_predictor_dataset(self.space, self.simulator,
                                             self.feature_builder, num_samples,
                                             noise_std=noise_std,
                                             seed=self.config.seed)
        train, _ = split_samples(samples, train_fraction=0.7, seed=self.config.seed)
        predictor = LatencyPredictor(self.feature_builder.feature_dim,
                                     hidden_dim=hidden_dim, layer_type="gin",
                                     seed=self.config.seed)
        trainer = PredictorTrainer(predictor)
        trainer.fit(train, epochs=epochs, seed=self.config.seed, verbose=verbose)
        self.predictor_trainer = trainer
        return trainer

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _efficiency_evaluator(self, kind: str) -> EfficiencyEvaluator:
        if kind == "simulator":
            return SimulatorEvaluator(self.simulator, self.profile)
        if kind == "cost":
            return CostEstimatorEvaluator(self.cost_estimator, self.simulator,
                                          self.profile)
        if kind == "predictor":
            if self.predictor_trainer is None:
                raise RuntimeError("call build_predictor() before searching with "
                                   "the predictor evaluator")
            return PredictorEvaluator(self.predictor_trainer, self.feature_builder,
                                      self.simulator, self.profile)
        raise ValueError(f"unknown efficiency evaluator {kind!r}")

    def search(self, constraints: SearchConstraints, max_trials: int = 2000,
               tuning_trials: int = 10, evaluator: str = "cost",
               keep_top: int = 10, verbose: bool = False) -> SearchResult:
        """Run the constraint-based random search and populate the zoo."""
        if self.accuracy_cache is None:
            raise RuntimeError("call prepare() before search()")
        search = ConstraintRandomSearch(
            space=self.space,
            accuracy_fn=self.accuracy_cache,
            efficiency=self._efficiency_evaluator(evaluator),
            constraints=constraints,
            config=RandomSearchConfig(max_trials=max_trials,
                                      tuning_trials=tuning_trials,
                                      keep_top=keep_top,
                                      seed=self.config.seed))
        result = search.run(verbose=verbose)
        self.last_result = result
        self.zoo = ArchitectureZoo.from_search(result.candidates)
        return result

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(self, entry_or_architecture, train_graphs: Sequence[GraphData],
               val_graphs: Sequence[GraphData],
               training: Optional[TrainingConfig] = None
               ) -> Tuple[ArchitectureModel, TrainingResult]:
        """Train the selected architecture from scratch for deployment."""
        architecture = getattr(entry_or_architecture, "architecture",
                               entry_or_architecture)
        if not isinstance(architecture, Architecture):
            raise TypeError("deploy expects a ZooEntry or an Architecture")
        return train_architecture(architecture, train_graphs, val_graphs,
                                  self._in_dim, self._num_classes,
                                  config=training or TrainingConfig(
                                      seed=self.config.seed))

    def dispatcher(self) -> RuntimeDispatcher:
        """Runtime dispatcher over the current architecture zoo."""
        return RuntimeDispatcher(self.zoo)

    # ------------------------------------------------------------------
    def evaluate_architecture(self, architecture: Architecture):
        """Simulated system performance of an architecture on this system."""
        return self.simulator.evaluate(architecture.ops, self.profile,
                                       architecture.classifier_hidden)
