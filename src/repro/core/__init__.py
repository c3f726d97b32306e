"""GCoDE core: design space, supernet, search, performance awareness, deployment."""

from .architecture import (Architecture, ValidityReport, check_validity, is_valid,
                           DEVICE, EDGE)
from .design_space import DesignSpace
from .executor import (ArchitectureModel, ServingCallables, collate_arrays,
                       split_results)
from .supernet import SuperNet, AccuracyCache
from .performance import (EfficiencyEstimate, SimulatorEvaluator,
                          CostEstimatorEvaluator, PredictorEvaluator)
from .search import (SearchConstraints, ScoredArchitecture, SearchResult,
                     ConstraintRandomSearch, RandomSearchConfig,
                     EvolutionarySearch, EvolutionarySearchConfig, FAILED_SCORE)
from .predictor import (FeatureBuilder, LatencyPredictor, PredictorTrainer,
                        PredictorSample, CostEstimator, CostEstimate,
                        abstract_architecture, ArchitectureGraph,
                        error_bound_accuracy, ranking_accuracy,
                        generate_predictor_dataset, split_samples,
                        measure_architectures, LabelledArchitecture)
from .trainer import TrainingConfig, TrainingResult, train_architecture, evaluate_model
from .zoo import ArchitectureZoo, ZooEntry
from .dispatcher import RuntimeDispatcher, RuntimeConditions, conditions_from_meta
from .gcode import GCoDE, GCoDEConfig

__all__ = [
    "Architecture", "ValidityReport", "check_validity", "is_valid", "DEVICE", "EDGE",
    "DesignSpace",
    "ArchitectureModel", "ServingCallables", "collate_arrays", "split_results",
    "SuperNet", "AccuracyCache",
    "EfficiencyEstimate", "SimulatorEvaluator", "CostEstimatorEvaluator",
    "PredictorEvaluator",
    "SearchConstraints", "ScoredArchitecture", "SearchResult",
    "ConstraintRandomSearch", "RandomSearchConfig",
    "EvolutionarySearch", "EvolutionarySearchConfig", "FAILED_SCORE",
    "FeatureBuilder", "LatencyPredictor", "PredictorTrainer", "PredictorSample",
    "CostEstimator", "CostEstimate", "abstract_architecture", "ArchitectureGraph",
    "error_bound_accuracy", "ranking_accuracy",
    "generate_predictor_dataset", "split_samples", "measure_architectures",
    "LabelledArchitecture",
    "TrainingConfig", "TrainingResult", "train_architecture", "evaluate_model",
    "ArchitectureZoo", "ZooEntry",
    "RuntimeDispatcher", "RuntimeConditions", "conditions_from_meta",
    "GCoDE", "GCoDEConfig",
]
