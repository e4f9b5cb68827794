"""Synthetic study populations: a power-law network with planted attributes.

Used by the desk-scale evaluation when no real network file is supplied.
The planted columns span the cases that matter for design-weighted
estimation: independent coin flips at several prevalences, a column tied
to degree (so weighting is exercised), and a homophilous column produced
by voter-model smoothing (so network clustering is exercised).
"""

from __future__ import annotations

import numpy as np

from .graph import AttributeTable, PopulationGraph, PowerLawDegree, generate_configuration_graph, largest_connected_component
from .rng import RngStream, generator

__all__ = ["synthetic_population", "plant_attributes", "make_study_population"]


def synthetic_population(
    n_nodes: int,
    rng: RngStream,
    alpha: float = 2.5,
    d_min: int = 2,
    d_max: int = 50,
) -> PopulationGraph:
    """Largest connected component of a power-law configuration-model graph."""
    g = generate_configuration_graph(n_nodes, PowerLawDegree(alpha, d_min, d_max), rng)
    return largest_connected_component(g)


def _voter_smooth(g: PopulationGraph, z: np.ndarray, rounds: int, rng: RngStream) -> np.ndarray:
    """A few voter-model sweeps: each node copies a random neighbour's value.

    One ``integers(0, degree)`` call per sweep picks every node's neighbour;
    it consumes the stream exactly as one scalar call per node, in node
    order, would.
    """
    for _ in range(rounds):
        z = z[g.indices[g.indptr[:-1] + rng.integers(0, g.degree)]]
    return z


def plant_attributes(g: PopulationGraph, rng: RngStream) -> AttributeTable:
    """Five binary columns with distinct structure, non-degenerate by construction."""
    n = g.n_nodes
    cols = {}
    cols["mix_half"] = (rng.random(n) < 0.5).astype(np.uint8)
    cols["mix_third"] = (rng.random(n) < 0.3).astype(np.uint8)
    cols["rare_tenth"] = (rng.random(n) < 0.1).astype(np.uint8)
    # probability rises with degree rank: weighting matters, but the
    # attribute is not a deterministic function of the design variable
    rank = np.argsort(np.argsort(g.degree, kind="stable"), kind="stable") / max(n - 1, 1)
    cols["deg_tilted"] = (rng.random(n) < 0.15 + 0.3 * rank).astype(np.uint8)
    seeded = (rng.random(n) < 0.25).astype(np.uint8)
    cols["clustered"] = _voter_smooth(g, seeded, rounds=2, rng=rng)
    for name, col in cols.items():
        if col.min() == col.max():
            # voter smoothing can in principle sweep a tiny graph to consensus
            col[int(rng.integers(0, n))] ^= 1
    names = list(cols)
    values = np.column_stack([cols[name] for name in names])
    return AttributeTable(names, values)


def make_study_population(n_nodes: int, seed: int) -> tuple[PopulationGraph, AttributeTable]:
    """Deterministic population + attributes for a given seed."""
    g = synthetic_population(n_nodes, generator(seed, 0))
    attrs = plant_attributes(g, generator(seed, 1))
    return g, attrs
