import dataclasses
import itertools
import math
from collections import Counter, defaultdict, deque
from types import SimpleNamespace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdsvar as rv
from rdsvar.errors import BudgetError, DataError
from rdsvar.rng import generator
from rdsvar.simulate import _Tape, _pps_draw_indices
from conftest import random_tiny_forest, relabelled


def path_graph(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("a b\nb c\n")
    return rv.load_edge_list(p)


def star_graph(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text("hub x\nhub y\nhub z\n")
    return rv.load_edge_list(p)


def pps_seeds(g, s, rng):
    """s distinct node ids drawn successively with probability proportional to degree."""
    return [g.node_ids[i] for i in _pps_draw_indices(np.arange(g.n_nodes), g.degree, rng.random(s))]


def test_pps_two_nodes_frequency(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text("a b\n")
    g = rv.load_edge_list(p)
    rng = generator(12)
    n = 100_000
    hits = sum(pps_seeds(g, 1, rng)[0] == "a" for _ in range(n))
    se = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 3 * se


def test_pps_exhaustion_returns_all(tmp_path):
    g = path_graph(tmp_path)
    assert sorted(pps_seeds(g, 3, generator(4))) == ["a", "b", "c"]


def test_pps_star_hub_probability(tmp_path):
    g = star_graph(tmp_path)
    rng = generator(9)
    n = 100_000
    hits = sum(pps_seeds(g, 1, rng)[0] == "hub" for _ in range(n))
    p = 3 / 6
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def test_pps_too_many_seeds(tmp_path):
    design = rv.RdsDesign(4, 1, (0.5, 0.5), 4, "with_replacement_walk")
    with pytest.raises(DataError, match="n_seeds=4 exceeds population size 3"):
        rv.simulate_rds(path_graph(tmp_path), design, generator(0))


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
    f = rv.RecruitmentForest(node_id=["A", "B"], node_index=[-1, -1], parent=[-1, -1], degree=[1, 1])
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


def test_replaced_forest_drops_the_cached_links():
    # dataclasses.replace makes a new forest, whose links, BFS order, waves
    # and recruiter groups come from its own parent column, not its source's
    def forest(parent):
        return rv.RecruitmentForest(node_id=["S", "A", "B"], node_index=[-1] * 3, parent=parent, degree=[1] * 3)

    star = forest([-1, 0, 0])
    star.children_csr(), star.recruiter_groups()
    assert star.wave.tolist() == [0, 1, 1]
    chain, fresh = dataclasses.replace(star, parent=[-1, 0, 1]), forest([-1, 0, 1])
    assert chain == fresh
    assert chain.wave.tolist() == [0, 1, 2] and chain.seed_index.tolist() == [0, 0, 0]
    assert chain.out_degree().tolist() == [1, 1, 0]
    assert [u.tolist() for u, _ in chain.recruiter_groups()] == [[0], [1]]
    # S -> A -> B: two draws from {S, A} give A, B or both, so the mean of z varies
    assert rv.enumerate_neighbourhood(chain, [0, 1, 0]).variance == Fraction(1, 8)
    assert rv.enumerate_neighbourhood(fresh, [0, 1, 0]).variance == Fraction(1, 8)


def _reference_columns(parent):
    """(seed_index, wave) as read_forest_csv rebuilt them, for a forest that lists recruiters first."""
    seed_index, wave, next_seed = [0] * len(parent), [0] * len(parent), 0
    for i, p in enumerate(parent):
        if p < 0:
            seed_index[i] = next_seed
            next_seed += 1
        else:
            assert p < i
            seed_index[i], wave[i] = seed_index[p], wave[p] + 1
    return seed_index, wave


def test_derived_columns_match_the_reference_loop():
    g, _ = rv.make_study_population(120, seed=3)
    rng = np.random.default_rng(5)
    forests = [random_tiny_forest(rng, max_recruiters=12, max_recruits=3)[0] for _ in range(40)]
    for regime, seeds in (("without_replacement", 2), ("with_replacement_walk", 1)):
        design = rv.RdsDesign(seeds, 3, (0.6, 0.2, 0.1, 0.1), 100, regime)
        forests += [rv.simulate_rds(g, design, generator(9, i)) for i in range(5)]
        assert all(f.n_reseeds for f in forests[-5:])
    for f in forests:
        seed_index, wave = _reference_columns(f.parent.tolist())
        assert f.seed_index.tolist() == seed_index and f.wave.tolist() == wave
        assert f.seed_index.dtype == f.wave.dtype == np.int64
        # the same forest in another entry order: the waves move with their
        # entries, and the seeds are ranked in the new order
        perm = rng.permutation(f.n)
        moved = relabelled(f, perm)
        seeds = f.seed_entries()
        rank = np.argsort(np.argsort(perm[seeds]))  # new rank of the seed ranked j before
        assert moved.wave[perm].tolist() == wave
        assert moved.seed_index[perm].tolist() == rank[seed_index].tolist()
        # given columns that agree with the links are accepted and not kept
        again = rv.RecruitmentForest(
            node_id=moved.node_id, node_index=moved.node_index, parent=moved.parent, degree=moved.degree,
            seed_index=moved.seed_index.copy(), wave=moved.wave.tolist(),
        )
        assert again == moved and not {"seed_index", "wave"} & set(vars(again))


def test_forest_constructor_checks_the_given_columns(two_recruiter_forest):
    # S -> {A, B}, A -> {A1, A2}
    links = dict(node_id=["S", "A", "B", "A1", "A2"], node_index=[-1] * 5, parent=[-1, 0, 0, 1, 1])
    links["degree"] = [1] * 5
    for columns in (
        {"wave": [0, 1, 2, 2, 2]},  # B is a leaf of the first wave, not of the last
        {"wave": [0] * 5},
        {"seed_index": [0, 0, 0, 1, 0]},
        {"seed_index": [1, 1, 1, 1, 1]},  # the one seed has rank 0
        {"seed_index": [0] * 5, "wave": [0, 1, 1, 2, 3]},
    ):
        with pytest.raises(DataError, match="disagrees with the recruiter links"):
            rv.RecruitmentForest(**links, **columns)
    two_seeds = dict(links, parent=[-1, 0, -1, 1, 2])
    with pytest.raises(DataError, match="entry 2 disagrees"):
        rv.RecruitmentForest(**two_seeds, seed_index=[0, 0, 0, 0, 0])
    assert rv.RecruitmentForest(**two_seeds, seed_index=[0, 0, 1, 0, 1]).wave.tolist() == [0, 1, 0, 2, 1]
    with pytest.raises(DataError, match="one row per entry"):
        rv.RecruitmentForest(**links, wave=[0, 1, 1, 2])
    with pytest.raises(DataError, match="entry 1 disagrees"):
        rv.RecruitmentForest(**dict(links, parent=[-1, 7, 0, 1, 1]), wave=[0, 1, 1, 2, 2])
    with pytest.raises(TypeError):
        rv.RecruitmentForest(["a"], [-1], [-1], [1])
    # the derived columns are read-only: writing to them cannot desynchronise the links
    with pytest.raises(AttributeError):
        two_recruiter_forest.wave = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError):
        two_recruiter_forest.seed_index[0] = 1


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


# ------------------------------------------------- the law of the FIFO loop


def fifo_forest_law(g, design):
    """Exact law of the serial FIFO recruitment loop, as {outcome: Fraction}.

    An outcome is ((node, recruiter entry, seed index) per entry, n_reseeds,
    n_truncated). The loop: seeds drawn successively proportional to degree;
    then entries in FIFO order, each drawing a recruit count k from the pmf
    and taking min(k, free) uniformly ordered never-sampled neighbours
    (without replacement) or k uniform neighbours (walk); the entry that
    reaches the target loses its excess picks and the loop stops; an empty
    queue draws one reseed proportional to degree (from never-sampled nodes
    without replacement, from all nodes in the walk regime).
    """
    wor = design.regime == "without_replacement"
    pmf = [Fraction(p) for p in design.recruit_count_pmf]
    degree = g.degree.tolist()
    nbrs = [g.neighbors(i).tolist() for i in range(g.n_nodes)]
    target = design.target_n
    law = defaultdict(Fraction)

    def pps(candidates):
        total = sum(degree[c] for c in candidates)
        return [(c, Fraction(degree[c], total)) for c in candidates]

    def seeds(entries, p):
        if len(entries) == design.n_seeds:
            run(entries, 0, 0, 0, p)
            return
        taken = {e[0] for e in entries}
        for v, q in pps([v for v in range(g.n_nodes) if v not in taken]):
            seeds(entries + ((v, -1, len(entries)),), p * q)

    def run(entries, head, n_reseeds, n_truncated, p):
        count = len(entries)
        if count == target:
            law[(entries, n_reseeds, n_truncated)] += p
            return
        sampled = {e[0] for e in entries}
        if head == count:
            fresh = [v for v in range(g.n_nodes) if not (wor and v in sampled)]
            for v, q in pps(fresh):
                reseed = (v, -1, design.n_seeds + n_reseeds)
                run(entries + (reseed,), head, n_reseeds + 1, n_truncated, p * q)
            return
        node, _, seed = entries[head]
        for k, pk in enumerate(pmf):
            if pk == 0:
                continue
            if wor:
                avail = [v for v in nbrs[node] if v not in sampled]
                take = min(k, len(avail))
                q = Fraction(1, math.perm(len(avail), take))
                outcomes = itertools.permutations(avail, take)
            else:
                q = Fraction(1, len(nbrs[node]) ** k)
                outcomes = itertools.product(nbrs[node], repeat=k)
            for picks in outcomes:
                kept = picks[: target - count]
                recruits = tuple((v, head, seed) for v in kept)
                run(entries + recruits, head + 1, n_reseeds, n_truncated + len(picks) - len(kept), p * pk * q)

    seeds((), Fraction(1))
    return dict(law)


def _outcome(f):
    return tuple(zip(f.node_index.tolist(), f.parent.tolist(), f.seed_index.tolist())), f.n_reseeds, f.n_truncated


def _chi_square(law, observed, n):
    """Pearson statistic and degrees of freedom, outcomes expected fewer than 5 times pooled."""
    assert set(observed) <= set(law), "simulated an outcome the loop cannot produce"
    cells, rest_exp, rest_obs = [], 0.0, 0
    for key, p in law.items():
        exp = float(p) * n
        if exp < 5:
            rest_exp += exp
            rest_obs += observed.get(key, 0)
        else:
            cells.append((exp, observed.get(key, 0)))
    if rest_exp > 0:
        cells.append((rest_exp, rest_obs))
    return sum((o - e) ** 2 / e for e, o in cells), len(cells) - 1


# graph edges, design, draws, and the pinned degrees of freedom with the
# chi-square 0.999 quantile at them
LAW_CASES = {
    # the two seeds share neighbours 1 and 2 (conflicts within a wave), k=0
    # kills chains (reseeds), and k=2 with one place left truncates
    "without_replacement": (
        "0 1\n0 2\n1 2\n1 3\n2 4\n3 4\n",
        rv.RdsDesign(2, 2, (0.25, 0.25, 0.5), 4),
        20_000, 348, 435.25,
    ),
    "with_replacement_walk": (
        "0 1\n0 2\n1 2\n2 3\n",
        rv.RdsDesign(2, 2, (0.25, 0.25, 0.5), 4, regime="with_replacement_walk"),
        20_000, 454, 552.84,
    ),
}


@pytest.mark.parametrize("regime", sorted(LAW_CASES))
def test_simulator_matches_fifo_loop_law(tmp_path, regime):
    edges, design, n, df_pinned, critical = LAW_CASES[regime]
    path = tmp_path / "g.txt"
    path.write_text(edges)
    g = rv.load_edge_list(path)
    law = fifo_forest_law(g, design)
    assert sum(law.values()) == 1
    observed = Counter(_outcome(rv.simulate_rds(g, design, generator(2026, i))) for i in range(n))
    stat, df = _chi_square(law, observed, n)
    assert df == df_pinned
    assert stat < critical, f"chi-square {stat:.1f} at {df} degrees of freedom"


# ------------------------------------- the draws of the one-call-per-draw loop


def scalar_draw_loop(g, design, rng):
    """The FIFO loop with one Generator method call per draw, as a reference.

    Returns (node, parent, seed index, n_reseeds, n_truncated) per entry, or
    the starvation message.
    """
    wor = design.regime == "without_replacement"

    def pps(cand, s):
        cand, w = cand.copy(), g.degree[cand].astype(float)
        picked = []
        for m in range(cand.size, cand.size - s, -1):
            cums = np.cumsum(w[:m])
            j = min(int(np.searchsorted(cums, rng.random() * cums[-1], side="right")), m - 1)
            picked.append(int(cand[j]))
            cand[[j, m - 1]], w[[j, m - 1]] = cand[[m - 1, j]], w[[m - 1, j]]
        return picked

    node = pps(np.arange(g.n_nodes), design.n_seeds)
    parent, seed = [-1] * len(node), list(range(len(node)))
    n_reseeds = n_truncated = head = 0
    while len(node) < design.target_n:
        if head == len(node):
            if not design.reseed_on_death:
                return f"sample starved: all chains dead at {len(node)} of {design.target_n} entries"
            fresh = np.array([v for v in range(g.n_nodes) if not (wor and v in node)], dtype=np.int64)
            node += pps(fresh, 1)
            parent.append(-1)
            seed.append(design.n_seeds + n_reseeds)
            n_reseeds += 1
            continue
        u, acc, k = rng.random(), 0.0, design.max_coupons
        for c, p in enumerate(design.recruit_count_pmf):
            acc += p
            if u < acc:
                k = c
                break
        entry, head = head, head + 1
        nbrs = g.neighbors(node[entry]).tolist()
        if wor:
            avail = [v for v in nbrs if v not in node]
            picks = []
            for _ in range(min(k, len(avail))):
                picks.append(avail.pop(j := int(rng.integers(0, len(avail)))))
                if j < len(avail):
                    avail.insert(j, avail.pop())
        else:
            picks = [nbrs[int(rng.integers(0, len(nbrs)))] for _ in range(k)]
        room = design.target_n - len(node)
        n_truncated += max(len(picks) - room, 0)
        node += picks[:room]
        parent += [entry] * len(picks[:room])
        seed += [seed[entry]] * len(picks[:room])
    return node, parent, seed, n_reseeds, n_truncated


def random_simple_graph(tmp_path, rng):
    n = int(rng.integers(2, 30))
    pairs = {(min(a, b), max(a, b)) for a, b in rng.integers(0, n, size=(2 * n, 2)) if a != b}
    path = tmp_path / "g.txt"
    path.write_text("".join(f"v{a} v{b}\n" for a, b in sorted(pairs)) or "v0 v1\n")
    return rv.largest_connected_component(rv.load_edge_list(path))


def test_simulator_draws_equal_scalar_draw_loop(tmp_path):
    # forests, starvation, and the generator state afterwards, on random
    # graphs and designs in both regimes and on every bit generator
    rng = np.random.default_rng(17)
    bit_generators = (np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM)
    seen = Counter()
    for case in range(400):
        g = random_simple_graph(tmp_path, rng)
        regime = ("without_replacement", "with_replacement_walk")[case % 2]
        c = int(rng.integers(1, 4))
        pmf = rng.dirichlet(np.ones(c + 1))
        s = int(rng.integers(1, min(3, g.n_nodes) + 1))
        top = g.n_nodes if regime == "without_replacement" else 3 * g.n_nodes
        design = rv.RdsDesign(s, c, tuple(pmf), int(rng.integers(s, top + 1)), regime, bool(case % 3))
        bits = bit_generators[case % len(bit_generators)]
        ours, ref = np.random.Generator(bits(case)), np.random.Generator(bits(case))
        if case % 3 == 0:
            # leave half a raw word in the 32-bit buffer
            assert ours.integers(0, 7) == ref.integers(0, 7)
        expected = scalar_draw_loop(g, design, ref)
        if isinstance(expected, str):
            with pytest.raises(BudgetError, match=expected):
                rv.simulate_rds(g, design, ours)
            seen["starved"] += 1
        else:
            f = rv.simulate_rds(g, design, ours)
            got = (f.node_index.tolist(), f.parent.tolist(), f.seed_index.tolist(), f.n_reseeds, f.n_truncated)
            assert got == expected, case
            seen["reseeded"] += f.n_reseeds > 0
            seen["truncated"] += f.n_truncated > 0
        assert ours.random() == ref.random(), case
    assert min(seen["starved"], seen["reseeded"], seen["truncated"]) >= 20, seen


class WordRng:
    """``Generator.random()`` and ``Generator.integers(0, n)`` read from given 64-bit words.

    numpy's algorithms for its 64-bit bit generators: a double is one word x
    as (x >> 11) * 2**-53; 32-bit words are the low and then the high half
    of one word, the high half buffered; integers(0, n) is Lemire's
    multiply-shift with his rejection step, with no word for n = 1.
    """

    def __init__(self, words):
        self.words, self.pos, self.half, self.rejections = words, 0, None, 0

    def _next64(self):
        self.pos += 1
        return self.words[self.pos - 1]

    def _next32(self):
        if self.half is not None:
            r, self.half = self.half, None
            return r
        x = self._next64()
        self.half = x >> 32
        return x & 0xFFFFFFFF

    def random(self):
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low, high):
        n = high - low
        if n == 1:
            return low
        m = self._next32() * n
        while (m & 0xFFFFFFFF) < (2**32 - n) % n:
            self.rejections += 1
            m = self._next32() * n
        return low + (m >> 32)


class WordBits:
    """A bit generator stand-in that serves given 64-bit words as its raw output."""

    def __init__(self, words):
        self.words, self.pos, self.has, self.half = words, 0, 0, 0

    @property
    def state(self):
        return {"bit_generator": "WordBits", "pos": self.pos, "has_uint32": self.has, "uinteger": self.half}

    @state.setter
    def state(self, state):
        self.pos, self.has, self.half = state["pos"], state["has_uint32"], state["uinteger"]

    def random_raw(self, size):
        self.pos += size
        assert self.pos <= len(self.words)
        return np.array(self.words[self.pos - size : self.pos], dtype=np.uint64)


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64])
def test_word_reader_equals_generator_methods(bits):
    # n = 2**31 + 1 rejects about half of its words, n = 2**32 takes them whole
    sizes = [1, 2, 3, 7, 1000, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]
    ours, ref = WordRng(bits(5).random_raw(20_000).tolist()), np.random.Generator(bits(5))
    pick = np.random.default_rng(6)
    for _ in range(3000):
        n = sizes[int(pick.integers(0, len(sizes)))]
        if pick.random() < 0.3:
            assert ours.random() == ref.random()
        assert ours.integers(0, n) == int(ref.integers(0, n)), n
    assert ours.random() == ref.random()


@pytest.mark.parametrize("bits", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64])
def test_tape_decodes_the_generator_draws(bits):
    tape = _Tape(bits(5), np.array([0.3, np.inf]), 400)
    ref = np.random.Generator(bits(5))
    assert tape.double.tolist() == ref.random(400).tolist()
    assert tape.counts == (tape.double >= 0.3).astype(int).tolist()
    ref = np.random.Generator(bits(5))
    words = [x for pair in zip(tape.lo, tape.hi) for x in pair]
    assert words == ref.integers(0, 2**32, size=len(words), dtype=np.uint32).tolist()


def test_simulator_reads_past_its_first_chunk(tmp_path, monkeypatch):
    # recruiters that mostly recruit nobody, and the reseeds after them, read
    # about twice the words that the first chunk holds
    chunks = Counter()
    more = _Tape.more

    def counted(self):
        chunks["more"] += 1
        return more(self)

    monkeypatch.setattr(_Tape, "more", counted)
    g = random_simple_graph(tmp_path, np.random.default_rng(4))
    for regime in ("without_replacement", "with_replacement_walk"):
        design = rv.RdsDesign(1, 1, (0.9, 0.1), min(g.n_nodes, 600) if regime == "without_replacement" else 600, regime)
        ours, ref = np.random.default_rng(8), np.random.default_rng(8)
        expected = scalar_draw_loop(g, design, ref)
        f = rv.simulate_rds(g, design, ours)
        assert (f.node_index.tolist(), f.parent.tolist(), f.seed_index.tolist(), f.n_reseeds, f.n_truncated) == expected
        assert ours.random() == ref.random()
    assert chunks["more"] >= 1


def test_simulator_rejects_unknown_bit_generators(tmp_path):
    # MT19937 serves 32-bit raw words, not 32-bit halves of 64-bit ones
    other = SimpleNamespace(bit_generator=SimpleNamespace(state={"bit_generator": "Other"}))
    for rng in (other, np.random.Generator(np.random.MT19937(0))):
        with pytest.raises(DataError, match="unsupported bit generator"):
            rv.simulate_rds(path_graph(tmp_path), rv.RdsDesign(1, 1, (0.5, 0.5), 2), rng)


def test_simulator_rejections_and_refills_follow_the_words(tmp_path):
    # a zero 32-bit word is rejected for every n > 1 that is not a power of
    # two; words rich in zero halves make the simulator redraw, and draw its
    # words ahead again, many times per forest
    rng = np.random.default_rng(23)
    rejected = 0
    for case in range(120):
        g = random_simple_graph(tmp_path, rng)
        regime = ("without_replacement", "with_replacement_walk")[case % 2]
        c = int(rng.integers(1, 4))
        s = int(rng.integers(1, min(3, g.n_nodes) + 1))
        top = g.n_nodes if regime == "without_replacement" else 3 * g.n_nodes
        design = rv.RdsDesign(s, c, tuple(rng.dirichlet(np.ones(c + 1))), int(rng.integers(s, top + 1)), regime)
        raw = rng.integers(0, 2**64, size=50_000, dtype=np.uint64)
        raw[rng.random(raw.size) < 0.3] &= np.uint64(0xFFFFFFFF00000000)
        raw[rng.random(raw.size) < 0.3] &= np.uint64(0x00000000FFFFFFFF)
        words = raw.tolist()
        ref, bits = WordRng(words), WordBits(words)
        expected = scalar_draw_loop(g, design, ref)
        f = rv.simulate_rds(g, design, SimpleNamespace(bit_generator=bits))
        got = (f.node_index.tolist(), f.parent.tolist(), f.seed_index.tolist(), f.n_reseeds, f.n_truncated)
        assert got == expected, case
        assert bits.pos == ref.pos and bool(bits.has) == (ref.half is not None), case
        assert not bits.has or bits.half == ref.half, case
        rejected += ref.rejections
    assert rejected >= 100, rejected
