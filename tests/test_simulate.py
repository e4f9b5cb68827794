import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdsvar as rv
from rdsvar.errors import BudgetError, DataError
from rdsvar.rng import generator


def path_graph(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("a b\nb c\n")
    return rv.load_edge_list(p)


def star_graph(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text("hub x\nhub y\nhub z\n")
    return rv.load_edge_list(p)


def test_pps_two_nodes_frequency(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text("a b\n")
    g = rv.load_edge_list(p)
    rng = generator(12)
    n = 100_000
    hits = sum(rv.draw_seeds_pps(g, 1, rng)[0] == "a" for _ in range(n))
    se = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 3 * se


def test_pps_exhaustion_returns_all(tmp_path):
    g = path_graph(tmp_path)
    assert sorted(rv.draw_seeds_pps(g, 3, generator(4))) == ["a", "b", "c"]


def test_pps_star_hub_probability(tmp_path):
    g = star_graph(tmp_path)
    rng = generator(9)
    n = 100_000
    hits = sum(rv.draw_seeds_pps(g, 1, rng)[0] == "hub" for _ in range(n))
    p = 3 / 6
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def test_pps_too_many_seeds(tmp_path):
    with pytest.raises(DataError):
        rv.draw_seeds_pps(path_graph(tmp_path), 4, generator(0))


def test_forced_path_recruitment(tmp_path):
    g = path_graph(tmp_path)
    design = rv.RdsDesign(n_seeds=1, max_coupons=2, recruit_count_pmf=(0, 0, 1), target_n=3)
    # draw until the seed is b (pps over degrees 1,2,1)
    for seed in range(50):
        f = rv.simulate_rds(g, design, generator(seed))
        if f.node_id[0] == "b":
            assert sorted(f.node_id[1:]) == ["a", "c"]
            assert f.wave.tolist() == [0, 1, 1]
            assert f.parent.tolist() == [-1, 0, 0]
            break
    else:
        pytest.fail("no replicate started at the middle node")


def test_walk_regime_transition_frequencies(tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text("a b\nb c\na c\n")
    g = rv.load_edge_list(p)
    design = rv.RdsDesign(
        n_seeds=1, max_coupons=1, recruit_count_pmf=(0.0, 1.0), target_n=100_001,
        regime="with_replacement_walk",
    )
    f = rv.simulate_rds(g, design, generator(3))
    assert len(set(f.node_id)) == 3  # repeats allowed, all nodes visited
    trans = {}
    for i in range(1, f.n):
        pair = (f.node_id[int(f.parent[i])], f.node_id[i])
        trans[pair] = trans.get(pair, 0) + 1
        assert g.index_of(pair[1]) in g.neighbors(g.index_of(pair[0]))
    # uniform kernel: each neighbour with probability 1/2
    for a in "abc":
        out = [trans.get((a, b), 0) for b in "abc" if b != a]
        tot = sum(out)
        se = math.sqrt(0.25 / tot)
        assert abs(out[0] / tot - 0.5) < 3 * se


def test_walk_regular_graph_visits_uniform():
    # stationary distribution is uniform on a regular graph: per-node visit
    # frequencies averaged over independent walks match 1/n within 3 Monte
    # Carlo standard errors (computed across the replications)
    g = rv.generate_configuration_graph(20, rv.FixedDegree(4), np.random.default_rng(2))
    design = rv.RdsDesign(
        n_seeds=1, max_coupons=1, recruit_count_pmf=(0.0, 1.0), target_n=500,
        regime="with_replacement_walk",
    )
    M = 400
    freqs = np.empty((M, g.n_nodes))
    for m in range(M):
        f = rv.simulate_rds(g, design, generator(8, 0, m))
        freqs[m] = np.bincount(f.node_index, minlength=g.n_nodes) / f.n
    mean = freqs.mean(axis=0)
    se = freqs.std(axis=0, ddof=1) / math.sqrt(M)
    assert np.all(np.abs(mean - 1 / 20) < 3 * se)


def test_sample_starved_without_reseed(tmp_path):
    g = path_graph(tmp_path)
    design = rv.RdsDesign(
        n_seeds=1, max_coupons=1, recruit_count_pmf=(1.0, 0.0), target_n=3, reseed_on_death=False
    )
    with pytest.raises(BudgetError, match="sample starved"):
        rv.simulate_rds(g, design, generator(0))


def test_reseed_completes_sample(tmp_path):
    g = path_graph(tmp_path)
    design = rv.RdsDesign(n_seeds=1, max_coupons=1, recruit_count_pmf=(1.0, 0.0), target_n=3)
    f = rv.simulate_rds(g, design, generator(0))
    assert f.n == 3
    assert f.n_reseeds == 2
    assert sorted(f.node_id) == ["a", "b", "c"]
    assert set(f.wave.tolist()) == {0}


def test_truncation_keeps_earliest(tmp_path):
    p = tmp_path / "star5.txt"
    p.write_text("h a\nh b\nh c\nh d\nh e\n")
    g = rv.load_edge_list(p)
    design = rv.RdsDesign(n_seeds=1, max_coupons=5, recruit_count_pmf=(0, 0, 0, 0, 0, 1), target_n=3)
    for seed in range(50):
        f = rv.simulate_rds(g, design, generator(seed))
        if f.node_id[0] == "h":
            assert f.n == 3
            assert f.n_truncated == 3
            break
    else:
        pytest.fail("hub never drawn as seed")


def test_design_validation():
    with pytest.raises(DataError):
        rv.RdsDesign(n_seeds=0, max_coupons=1, recruit_count_pmf=(0, 1), target_n=5)
    with pytest.raises(DataError):
        rv.RdsDesign(n_seeds=1, max_coupons=1, recruit_count_pmf=(0.5, 0.4), target_n=5)
    with pytest.raises(DataError):
        rv.RdsDesign(n_seeds=1, max_coupons=2, recruit_count_pmf=(0, 1), target_n=5)


def test_recruiters_examples(two_recruiter_forest):
    assert two_recruiter_forest.recruiter_entries().tolist() == [0, 1]


def test_recruiters_isolated_seeds():
    f = rv.RecruitmentForest(
        node_id=["A", "B"], node_index=[-1, -1], seed_index=[0, 1],
        wave=[0, 0], parent=[-1, -1], degree=[1, 1],
    )
    assert f.recruiter_entries().tolist() == []


def test_recruiters_balanced_count():
    from conftest import balanced_forest

    c, h = 2, 2
    f = balanced_forest(1, c, h)
    assert f.recruiter_entries().size == (c**h - 1) // (c - 1)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    s=st.integers(1, 4),
    target=st.integers(4, 40),
    pmf_choice=st.sampled_from([(1 / 3, 1 / 6, 1 / 6, 1 / 3), (0.5, 0.5), (0.0, 0.2, 0.8)]),
    regime=st.sampled_from(["without_replacement", "with_replacement_walk"]),
)
def test_forest_invariants_property(seed, s, target, pmf_choice, regime):
    g = rv.generate_configuration_graph(50, rv.PowerLawDegree(2.2, 2, 10), np.random.default_rng(17))
    g = rv.largest_connected_component(g)
    s = min(s, target)
    design = rv.RdsDesign(
        n_seeds=s, max_coupons=len(pmf_choice) - 1, recruit_count_pmf=pmf_choice,
        target_n=target, regime=regime,
    )
    f = rv.simulate_rds(g, design, generator(seed))
    assert f.n == target
    seeds = f.seed_entries()
    assert np.all(f.wave[seeds] == 0)
    out_deg = f.out_degree()
    assert int(out_deg.max(initial=0)) <= design.max_coupons
    for i in range(f.n):
        p = int(f.parent[i])
        if p >= 0:
            assert f.wave[i] == f.wave[p] + 1
            assert p < i  # recruiters enter before their recruits
    if regime == "without_replacement":
        assert len(set(f.node_id)) == f.n
        for i in range(f.n):
            p = int(f.parent[i])
            if p >= 0:
                assert f.node_index[i] in g.neighbors(int(f.node_index[p]))
    # determinism
    assert f == rv.simulate_rds(g, design, generator(seed))


def _reference_children_and_bfs(f):
    """Per-child lists in entry order and a FIFO breadth-first order from the seeds."""
    children = [[] for _ in range(f.n)]
    for i in range(f.n):
        if f.parent[i] >= 0:
            children[int(f.parent[i])].append(i)
    order, queue = [], deque(int(s) for s in f.seed_entries())
    while queue:
        u = queue.popleft()
        order.append(u)
        queue.extend(children[u])
    return children, order


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), reseed=st.booleans())
def test_children_and_bfs_match_fifo_reference(tmp_path_factory, seed, reseed):
    g = rv.generate_configuration_graph(200, rv.PowerLawDegree(2.2, 1, 12), np.random.default_rng(17))
    pmf = (0.6, 0.2, 0.1, 0.1) if reseed else (1 / 3, 1 / 6, 1 / 6, 1 / 3)
    f = rv.simulate_rds(g, rv.RdsDesign(n_seeds=3, max_coupons=3, recruit_count_pmf=pmf, target_n=120), generator(seed))
    # the same forest reloaded from a CSV whose rows are in another valid order
    rng = np.random.default_rng(seed)
    kids, _ = _reference_children_and_bfs(f)
    rows, ready = [], [int(s) for s in f.seed_entries()]
    while ready:
        i = ready.pop(int(rng.integers(len(ready))))
        rows.append(i)
        ready.extend(kids[i])
    path = tmp_path_factory.mktemp("forest") / "f.csv"
    path.write_text("id,recruiter,degree\n" + "".join(
        f"{f.node_id[i]},{f.node_id[f.parent[i]] if f.parent[i] >= 0 else ''},{f.degree[i]}\n" for i in rows
    ))
    for forest in (f, rv.read_forest_csv(path)):
        children, order = _reference_children_and_bfs(forest)
        indptr, flat = forest.children_csr()
        assert indptr.tolist() == [0, *np.cumsum([len(c) for c in children]).tolist()]
        assert flat.dtype == np.int64 and flat.tolist() == [c for cs in children for c in cs]
        assert forest.bfs_order().tolist() == order


def test_forest_csv_roundtrip(tmp_path):
    g = rv.generate_configuration_graph(40, rv.PowerLawDegree(2.2, 2, 8), np.random.default_rng(21))
    g = rv.largest_connected_component(g)
    design = rv.RdsDesign(n_seeds=2, max_coupons=3, recruit_count_pmf=(1/3, 1/6, 1/6, 1/3), target_n=20)
    f = rv.simulate_rds(g, design, generator(10))
    path = tmp_path / "forest.csv"
    rv.write_forest_csv(f, path)
    f2 = rv.read_forest_csv(path)
    assert f2 == f


def test_forest_csv_minimal_columns(tmp_path):
    path = tmp_path / "external.csv"
    path.write_text("id,recruiter,degree\nM,,2\nN,M,3\nO,M,1\nP,N,2\n")
    f = rv.read_forest_csv(path)
    assert f.wave.tolist() == [0, 1, 1, 2]
    assert f.seed_index.tolist() == [0, 0, 0, 0]
    assert f.parent.tolist() == [-1, 0, 0, 1]


def test_forest_csv_unknown_recruiter(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,recruiter,degree\nM,,2\nN,Q,3\n")
    with pytest.raises(DataError, match="'Q'"):
        rv.read_forest_csv(path)
