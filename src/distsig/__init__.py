"""Distributional graph signals: transport variation, bounds, regularized GCN."""

from .distributional import check_tv_bounds, random_bound_instance
from .graph import build_graph

__version__ = "0.1.0"
