"""Adaptive multi-agent DBSCAN parameter search.

The pipeline: normalize a point set, build a weighted k-NN graph with k chosen
by normalized structural entropy, compress the graph into a two-level encoding
tree, group tree nodes of similar information uncertainty into density
partitions, and let one reinforcement-learning agent per partition search the
(Eps, MinPts) space coarse-to-fine.
"""

from ardbscan.config import RunConfig
from ardbscan.dataset import Dataset, LabeledSubset, load_csv, normalize
from ardbscan.dbscan_core import ClusterResult, DbscanParams, run_dbscan
from ardbscan.encoding_tree import allocate_agents, optimize_two_level
from ardbscan.metrics import ari, nmi
from ardbscan.recursive_search import merge_agent_results, run_agent
from ardbscan.structured_graph import select_k

__all__ = [
    "Dataset",
    "LabeledSubset",
    "load_csv",
    "normalize",
    "DbscanParams",
    "ClusterResult",
    "run_dbscan",
    "nmi",
    "ari",
    "RunConfig",
    "select_k",
    "optimize_two_level",
    "allocate_agents",
    "run_agent",
    "merge_agent_results",
]

__version__ = "0.1.0"
