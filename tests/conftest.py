import numpy as np
import pytest

import rdsvar as rv


@pytest.fixture
def tiny_edge_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("a b\nb a\nb c\n")
    return p


@pytest.fixture
def two_recruiter_forest():
    """M -> {N, O}, N -> {P}; the standard worked example."""
    return rv.RecruitmentForest(
        node_id=["M", "N", "O", "P"],
        node_index=[-1, -1, -1, -1],
        parent=[-1, 0, 0, 1],
        degree=[2, 3, 1, 2],
    )


@pytest.fixture
def single_seed_forest():
    """Seed M -> {N, O}."""
    return rv.RecruitmentForest(
        node_id=["M", "N", "O"],
        node_index=[-1, -1, -1],
        parent=[-1, 0, 0],
        degree=[1, 1, 1],
    )


def balanced_forest(s: int, c: int, h: int, degrees=None):
    """Full s-tree forest: every recruiter has exactly c recruits through h waves."""
    node_id, parent = [], []
    for j in range(s):
        frontier = [len(node_id)]
        node_id.append(f"s{j}")
        parent.append(-1)
        for _ in range(h):
            nxt = []
            for p in frontier:
                for _ in range(c):
                    nxt.append(len(node_id))
                    node_id.append(f"n{len(node_id)}")
                    parent.append(p)
            frontier = nxt
    n = len(node_id)
    deg = degrees if degrees is not None else np.ones(n, dtype=np.int64)
    return rv.RecruitmentForest(
        node_id=node_id,
        node_index=np.full(n, -1),
        parent=parent,
        degree=deg,
    )


def seeds_with_one_recruit(degrees):
    """One seed per entry of ``degrees``, each recruiting one entry of that degree; seeds have degree 1."""
    p = len(degrees)
    return rv.RecruitmentForest(
        node_id=[f"s{j}" for j in range(p)] + [f"r{j}" for j in range(p)],
        node_index=np.full(2 * p, -1),
        parent=[-1] * p + list(range(p)),
        degree=[1] * p + list(degrees),
    )


def random_tiny_forest(rng: np.random.Generator, max_recruiters: int = 6, max_recruits: int = 2):
    """Random forest within the enumeration budget, plus random z and degrees."""
    s = int(rng.integers(1, 3))
    node_id, parent = [f"s{j}" for j in range(s)], [-1] * s
    recruiters = 0
    frontier = list(range(s))
    while frontier and recruiters < max_recruiters:
        u = frontier.pop(0)
        if rng.random() < 0.35 and u >= s:
            continue
        k = int(rng.integers(1, max_recruits + 1))
        recruiters += 1
        for _ in range(k):
            node_id.append(f"n{len(node_id)}")
            parent.append(u)
            frontier.append(len(node_id) - 1)
    n = len(node_id)
    forest = rv.RecruitmentForest(
        node_id=node_id,
        node_index=np.full(n, -1),
        parent=parent,
        degree=rng.integers(1, 9, size=n),
    )
    z = rng.integers(0, 2, size=n).astype(float)
    return forest, z


def relabelled(forest, perm):
    """The forest with entry i moved to position perm[i]: children may then precede their parents."""
    at = np.argsort(perm)  # at[j]: the entry that lands at position j
    parent = forest.parent[at]
    return rv.RecruitmentForest(
        node_id=[forest.node_id[i] for i in at.tolist()], node_index=forest.node_index[at],
        parent=np.where(parent >= 0, perm[parent], -1), degree=forest.degree[at],
    )
