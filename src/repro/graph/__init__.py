"""Graph data substrate: containers, KNN graph construction, sampling, datasets."""

from .data import GraphData, Batch, DataLoader
from .knn import knn_graph, random_graph
from .sampling import random_sample, farthest_point_sample, subsample_graph_nodes
from .datasets import SyntheticModelNet40, SyntheticMR, DataSplit, stratified_split

__all__ = [
    "GraphData", "Batch", "DataLoader",
    "knn_graph", "random_graph",
    "random_sample", "farthest_point_sample", "subsample_graph_nodes",
    "SyntheticModelNet40", "SyntheticMR", "DataSplit", "stratified_split",
]
