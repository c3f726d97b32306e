"""Figure 10(b): predictor ablation — enhanced features vs one-hot vs LUT vs GCN.

Regenerates the within-±10% prediction accuracy of four performance-awareness
variants on two representative system configurations:

* GIN + enhanced node features (the GCoDE predictor),
* GIN + one-hot features (HGNAS-style encoding),
* the training-free LUT cost estimator,
* GCN + enhanced features.

The paper's finding: the enhanced features matter most (one-hot collapses in
heterogeneous systems), GIN beats GCN, and the LUT estimator ranks well but
misses absolute latency because it ignores runtime overheads.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import MODELNET_PROFILE, save_report, simulator_for

from repro.core import (CostEstimator, FeatureBuilder, LatencyPredictor,
                        PredictorTrainer, error_bound_accuracy,
                        generate_predictor_dataset, ranking_accuracy,
                        split_samples)
from repro.core.predictor.gin_predictor import PredictorSample
from repro.evaluation import format_table
from repro.hardware import (JETSON_TX2, RASPBERRY_PI_4B, INTEL_I7, NVIDIA_1060,
                            LINK_40MBPS, build_latency_lut)

CONFIGS = [(JETSON_TX2, INTEL_I7, "TX2->i7"),
           (RASPBERRY_PI_4B, NVIDIA_1060, "Pi->1060")]
NUM_SAMPLES = 200
EPOCHS = 30


def evaluate_variants(space, device, edge):
    simulator = simulator_for(device, edge, LINK_40MBPS)
    device_lut = build_latency_lut(device, MODELNET_PROFILE)
    edge_lut = build_latency_lut(edge, MODELNET_PROFILE)
    enhanced = FeatureBuilder(device_lut, edge_lut, LINK_40MBPS, MODELNET_PROFILE,
                              mode="enhanced")
    one_hot = FeatureBuilder(device_lut, edge_lut, LINK_40MBPS, MODELNET_PROFILE,
                             mode="one-hot")

    samples = generate_predictor_dataset(space, simulator, enhanced,
                                         num_samples=NUM_SAMPLES, noise_std=0.02,
                                         seed=0)
    train, val = split_samples(samples, 0.7, seed=0)
    measured = np.array([s.latency_ms for s in val])

    def retarget(sample_list, builder):
        out = []
        for sample in sample_list:
            features, edges = builder.build(sample.architecture)
            out.append(PredictorSample(sample.architecture, features, edges,
                                       sample.latency_ms))
        return out

    def fit_and_score(builder, layer_type):
        predictor = LatencyPredictor(builder.feature_dim, hidden_dim=64,
                                     layer_type=layer_type, seed=0)
        trainer = PredictorTrainer(predictor, lr=3e-3)
        trainer.fit(retarget(train, builder), epochs=EPOCHS, seed=0)
        predictions = trainer.predict_many(retarget(val, builder))
        return (error_bound_accuracy(predictions, measured, 0.10) * 100.0,
                ranking_accuracy(predictions, measured) * 100.0)

    estimator = CostEstimator(device_lut, edge_lut, LINK_40MBPS, MODELNET_PROFILE)
    lut_predictions = np.array([estimator.estimate_latency_ms(s.architecture)
                                for s in val])
    scores = {
        "GIN+enhanced": fit_and_score(enhanced, "gin"),
        "GIN+one-hot": fit_and_score(one_hot, "gin"),
        "GCN+enhanced": fit_and_score(enhanced, "gcn"),
        "LUT": (error_bound_accuracy(lut_predictions, measured, 0.10) * 100.0,
                ranking_accuracy(lut_predictions, measured) * 100.0),
    }
    return scores


@pytest.fixture(scope="module")
def ablation_scores(modelnet_space):
    return {label: evaluate_variants(modelnet_space, device, edge)
            for device, edge, label in CONFIGS}


def test_fig10b_feature_ablation(benchmark, ablation_scores):
    benchmark.pedantic(lambda: ablation_scores, rounds=1, iterations=1)
    rows = []
    for system, scores in ablation_scores.items():
        for variant, (within10, ranking) in scores.items():
            rows.append([system, variant, within10, ranking])
    text = format_table(["system", "variant", "within_±10%_%", "ranking_%"], rows,
                        title="Figure 10(b): performance-awareness ablation")
    save_report("fig10b_feature_ablation.txt", text)

    for system, scores in ablation_scores.items():
        gin_enhanced = scores["GIN+enhanced"]
        # Enhanced features beat the one-hot encoding at capturing the
        # relative latency of candidates in heterogeneous systems.
        assert gin_enhanced[1] >= scores["GIN+one-hot"][1], system
        assert gin_enhanced[1] >= 85.0, system
        # The training-free LUT estimator keeps good relative accuracy
        # (paper: >88%).  Note that in this reproduction the "measured"
        # ground truth comes from the same analytical hardware model the LUT
        # is built from, so the LUT scores higher here than on a physical
        # testbed.
        assert scores["LUT"][1] >= 80.0, system
