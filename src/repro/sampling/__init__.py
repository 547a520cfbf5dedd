"""Batch-preparation samplers and sampled-subgraph structures."""

from .base import Sampler, draw_neighbors, expand_layers
from .block import SampledBlock, SampledSubgraph, build_block
from .hybrid import HybridSampler
from .layerwise import LayerWiseSampler
from .neighbor import DEFAULT_FANOUT, NeighborSampler
from .rate import RateSampler
from .subgraph import SubgraphSampler

__all__ = [
    "Sampler", "draw_neighbors", "expand_layers",
    "SampledBlock", "SampledSubgraph", "build_block",
    "NeighborSampler", "DEFAULT_FANOUT", "RateSampler", "HybridSampler",
    "LayerWiseSampler", "SubgraphSampler",
]
