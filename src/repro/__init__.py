"""GCoDE reproduction: automated GNN design and deployment for device-edge co-inference.

Reproduction of "Graph Neural Networks Automated Design and Deployment on
Device-Edge Co-Inference Systems" (DAC 2024).  See docs/architecture.md for
the system inventory; the paper-vs-measured comparison is not written yet
(ROADMAP.md, open item 5).

Subpackages
-----------
``repro.nn``
    Minimal numpy autograd / neural-network framework.
``repro.graph``
    Graph containers, KNN graph construction, synthetic datasets.
``repro.gnn``
    GNN operations (the co-inference design-space vocabulary), layers and
    reference models (DGCNN, GIN).
``repro.runtime``
    Compiled inference plans: autograd-free kernels, buffer arenas,
    edge-list canonicalization (the serving hot path).
``repro.hardware``
    Device latency/energy models, wireless link model, latency LUTs.
``repro.system``
    Co-inference simulator, partitioning baselines, socket engine.
``repro.serving``
    Public serving facade: frozen configs, versioned model repository
    with hot zoo reload, lifecycle-managed server/client, ``serve()``.
``repro.core``
    GCoDE itself: design space, supernet, constraint-based search,
    performance predictors, architecture zoo, runtime dispatcher.
``repro.baselines``
    DGCNN / Li et al. / HGNAS / BRANCHY-GNN / PNAS baselines.
``repro.evaluation``
    Metrics, Pareto extraction and report formatting.
"""

__version__ = "1.0.0"

__all__ = ["nn", "graph", "gnn", "hardware", "system", "core", "baselines",
           "evaluation", "runtime", "__version__"]
