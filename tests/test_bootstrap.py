
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdsvar as rv
from rdsvar.bootstrap import BLOCK, _nb_counts, _tree_counts
from rdsvar.errors import DataError
from rdsvar.exact import _balanced_sample_mean_moments, _tree_linear_moments
from rdsvar.rng import generator
from conftest import balanced_forest, random_tiny_forest, relabelled


def dist_of(estimates, point=0.0):
    return rv.BootstrapDistribution(np.asarray(estimates, dtype=float), point)


class TestPercentileCI:
    def test_nearest_rank_95(self):
        d = dist_of(np.arange(1, 101))
        assert rv.percentile_ci(d, 0.95) == (3.0, 98.0)

    def test_nearest_rank_80(self):
        d = dist_of(np.arange(1, 101))
        assert rv.percentile_ci(d, 0.80) == (10.0, 90.0)

    def test_constant_degenerate(self):
        d = dist_of([2.5, 2.5, 2.5])
        assert rv.percentile_ci(d, 0.95) == (2.5, 2.5)

    def test_level_out_of_range(self):
        d = dist_of([1.0, 2.0])
        with pytest.raises(DataError):
            rv.percentile_ci(d, 1.0)
        with pytest.raises(DataError):
            rv.percentile_ci(d, 0.0)

    def test_lo_not_above_hi_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = dist_of(rng.random(int(rng.integers(2, 40))))
            level = float(rng.uniform(0.05, 0.99))
            lo, hi = rv.percentile_ci(d, level)
            assert lo <= hi


class TestBootstrapVariance:
    def test_two_point(self):
        assert rv.bootstrap_variance(dist_of([0.0, 1.0])) == 0.5

    def test_constant(self):
        assert rv.bootstrap_variance(dist_of([3.0, 3.0, 3.0])) == 0.0

    def test_four_values(self):
        assert rv.bootstrap_variance(dist_of([1.0, 2.0, 3.0, 4.0])) == pytest.approx(5 / 3)

    def test_needs_two(self):
        with pytest.raises(DataError):
            rv.bootstrap_variance(dist_of([1.0]))


class TestNeighbourhoodResample:
    def test_single_recruiter_always_same(self, single_seed_forest):
        z = np.array([0.0, 1.0, 0.0])
        for seed in range(5):
            ws = rv.neighbourhood_resample(single_seed_forest, z, generator(seed))
            assert ws.n_effective == 2
            assert sorted(zip(ws.z.tolist(), ws.multiplicity.tolist())) == [(0.0, 1), (1.0, 1)]
        cfg = rv.BootstrapConfig("neighbourhood", 50, estimator="sample_mean")
        d = rv.bootstrap_distribution(single_seed_forest, cfg, z, root=3)
        assert rv.bootstrap_variance(d) == 0.0

    def test_two_recruiter_multisets(self, two_recruiter_forest):
        # draws over recruiters {M, N} give multisets {N2,O2}, {N,O,P}, {P2}
        z = np.array([0.0, 1.0, 0.0, 0.0])
        seen = set()
        for seed in range(60):
            ws = rv.neighbourhood_resample(two_recruiter_forest, z, generator(seed))
            key = tuple(sorted(zip(ws.degree.tolist(), ws.multiplicity.tolist())))
            seen.add(key)
        assert seen == {
            ((1, 2), (3, 2)),  # N twice, O twice
            ((1, 1), (2, 1), (3, 1)),  # N, O, P
            ((2, 2),),  # P twice
        }

    def test_degenerate_forest_errors(self):
        f = rv.RecruitmentForest(
            node_id=["A"], node_index=[-1], parent=[-1], degree=[1]
        )
        with pytest.raises(DataError, match="degenerate"):
            rv.neighbourhood_resample(f, [1.0], generator(0))

    def test_balanced_resample_size_constant(self):
        f = balanced_forest(1, 2, 2)
        z = np.zeros(f.n)
        n_r = f.recruiter_entries().size
        for seed in range(20):
            ws = rv.neighbourhood_resample(f, z, generator(seed))
            assert ws.n_effective == n_r * 2

    def test_expected_resample_size_general_forest(self):
        # each of the n_r draws adds the drawn recruiter's recruit count, so
        # the expected size equals the total number of non-seed entries
        rng = np.random.default_rng(13)
        for _ in range(5):
            forest, z = random_tiny_forest(rng)
            if forest.out_degree().max(initial=0) == 0:
                continue
            expected = int((forest.parent >= 0).sum())
            R = 4000
            sizes = np.empty(R)
            ws_rng = generator(int(rng.integers(10**6)))
            for i in range(R):
                sizes[i] = rv.neighbourhood_resample(forest, z, ws_rng).n_effective
            se = sizes.std(ddof=1) / np.sqrt(R) + 1e-12
            assert abs(sizes.mean() - expected) < 3 * se

    def test_seeds_never_sampled(self, two_recruiter_forest):
        z = np.array([1.0, 0.0, 0.0, 0.0])
        for seed in range(20):
            ws = rv.neighbourhood_resample(two_recruiter_forest, z, generator(seed))
            assert not np.any(ws.degree == 2) or np.all(ws.z[ws.degree == 2] == 0)
            # entry 0 (the seed M, degree 2 z=1) never appears: no z=1 at all
            assert ws.z.sum() == 0 or np.all(ws.z[ws.z == 1] == 0)


class TestTreeResample:
    def test_leaf_seed_always_itself(self):
        f = rv.RecruitmentForest(
            node_id=["M"], node_index=[-1], parent=[-1], degree=[4]
        )
        for seed in range(5):
            ws = rv.tree_resample(f, [1.0], generator(seed))
            assert ws.n_effective == 1 and ws.z.tolist() == [1.0]

    def test_single_seed_multisets(self, single_seed_forest):
        z = np.array([0.0, 1.0, 0.0])
        seen = {}
        n = 3000
        rng = generator(11)
        for _ in range(n):
            ws = rv.tree_resample(single_seed_forest, z, rng)
            mean = rv.sample_mean(ws)
            seen[mean] = seen.get(mean, 0) + 1
        # {M,N,N}: 2/3 w.p. 1/4; {M,N,O}: 1/3 w.p. 1/2; {M,O,O}: 0 w.p. 1/4
        assert set(seen) == {2 / 3, 1 / 3, 0.0}
        for val, p in [(2 / 3, 0.25), (1 / 3, 0.5), (0.0, 0.25)]:
            se = (p * (1 - p) / n) ** 0.5
            assert abs(seen[val] / n - p) < 4 * se

    def test_union_of_root_paths_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            forest, z = random_tiny_forest(rng)
            # a sample multiset does not record which entry each occurrence
            # is, so check the kernel's per-entry counts instead
            counts = _tree_counts(forest, "with_replacement", generator(int(rng.integers(10**6))), 1)[0]
            for i in range(forest.n):
                p = int(forest.parent[i])
                if counts[i] > 0 and p >= 0:
                    assert counts[p] > 0


class TestBootstrapDistribution:
    def test_constant_attribute(self, two_recruiter_forest):
        cfg = rv.BootstrapConfig("neighbourhood", 25, estimator="vh")
        d = rv.bootstrap_distribution(two_recruiter_forest, cfg, np.ones(4), root=1)
        assert np.all(d.estimates == 1.0)
        assert rv.bootstrap_variance(d) == 0.0
        cfgT = rv.BootstrapConfig("tree", 25, estimator="vh")
        dT = rv.bootstrap_distribution(two_recruiter_forest, cfgT, np.ones(4), root=1)
        assert np.all(dT.estimates == 1.0)

    def test_determinism_same_root(self, two_recruiter_forest):
        z = np.array([0.0, 1.0, 0.0, 1.0])
        for method in ("neighbourhood", "tree"):
            cfg = rv.BootstrapConfig(method, 40, estimator="vh")
            d1 = rv.bootstrap_distribution(two_recruiter_forest, cfg, z, root=9)
            d2 = rv.bootstrap_distribution(two_recruiter_forest, cfg, z, root=9)
            assert np.array_equal(d1.estimates, d2.estimates)

    def test_replicates_are_keyed_substreams(self, two_recruiter_forest):
        # replicate b of a B-run equals replicate b of a longer run: order free
        z = np.array([0.0, 1.0, 0.0, 1.0])
        for method in ("neighbourhood", "tree"):
            for b_small, b_big in ((10, 30), (BLOCK + 7, 2 * BLOCK + 3)):
                cfg_small = rv.BootstrapConfig(method, b_small, estimator="sample_mean")
                cfg_big = rv.BootstrapConfig(method, b_big, estimator="sample_mean")
                d_small = rv.bootstrap_distribution(two_recruiter_forest, cfg_small, z, root=5)
                d_big = rv.bootstrap_distribution(two_recruiter_forest, cfg_big, z, root=5)
                assert np.array_equal(d_small.estimates, d_big.estimates[:b_small])

    def test_multi_column_shares_draws(self, two_recruiter_forest):
        za = np.array([0.0, 1.0, 0.0, 0.0])
        zb = np.array([0.0, 1.0, 1.0, 0.0])
        cfg = rv.BootstrapConfig("neighbourhood", 30, estimator="sample_mean")
        both = rv.bootstrap_distributions(two_recruiter_forest, cfg, {"a": za, "b": zb}, root=2)
        single_a = rv.bootstrap_distribution(two_recruiter_forest, cfg, za, root=2)
        assert np.array_equal(both["a"].estimates, single_a.estimates)

    def test_point_estimate_matches_estimator(self, two_recruiter_forest):
        z = np.array([1.0, 1.0, 0.0, 1.0])
        cfg = rv.BootstrapConfig("tree", 10, estimator="vh")
        d = rv.bootstrap_distribution(two_recruiter_forest, cfg, z, root=0)
        ws = rv.WeightedSample(z, two_recruiter_forest.degree, np.ones(4, dtype=np.int64))
        assert d.estimator_on_original == rv.vh_estimate(ws)

    def test_estimates_match_resampler_plus_estimator(self, two_recruiter_forest):
        # the distribution's estimates are exactly the declared estimator
        # applied to the rows of block 0, drawn from substream (root, 0)
        forest = two_recruiter_forest
        z = np.array([0.0, 1.0, 0.0, 1.0])
        root = 31
        totals = rv.PopulationTotals(7, 19)
        estimators = {
            "sample_mean": rv.sample_mean,
            "vh": rv.vh_estimate,
            "ipw": lambda ws: rv.ipw_estimate(ws, totals),
        }
        counts, pool_entries = _nb_counts(forest, "recruiters_only", generator(root, 0), BLOCK)
        recruits = np.flatnonzero(forest.parent >= 0)
        drawn = {"neighbourhood": np.zeros((BLOCK, forest.n), dtype=np.int64)}
        drawn["neighbourhood"][:, recruits] = counts[:, np.searchsorted(pool_entries, forest.parent[recruits])]
        drawn["tree"] = _tree_counts(forest, "with_replacement", generator(root, 0), BLOCK)
        for method, mult in drawn.items():
            for name, estimate in estimators.items():
                cfg = rv.BootstrapConfig(method, BLOCK, estimator=name)
                d = rv.bootstrap_distribution(forest, cfg, z, totals=totals, root=root)
                for b in range(BLOCK):
                    k = np.flatnonzero(mult[b])
                    assert d.estimates[b] == estimate(rv.WeightedSample(z[k], forest.degree[k], mult[b, k]))

    def test_degree_lcm_beyond_float_range(self):
        # a seed recruiting 150 distinct primes in [1000, 4000): the degree
        # lcm is far above 2**1024, so the terms only stay finite scaled
        primes = [p for p in range(1000, 4000) if all(p % q for q in range(2, int(p**0.5) + 1))][:150]
        n = len(primes) + 1
        forest = rv.RecruitmentForest(
            node_id=[f"n{i}" for i in range(n)], node_index=np.full(n, -1),
            parent=[-1] + [0] * (n - 1), degree=[2] + primes,
        )
        z = (np.arange(n) % 3 == 0).astype(float)
        totals = rv.PopulationTotals(1000, 10**6)
        ws = rv.WeightedSample(z, forest.degree, np.ones(n, dtype=np.int64))
        for method in ("neighbourhood", "tree"):
            for name, exact in (("vh", rv.vh_estimate(ws)), ("ipw", rv.ipw_estimate(ws, totals))):
                d = rv.bootstrap_distribution(forest, rv.BootstrapConfig(method, 50, estimator=name), z, totals, 4)
                assert np.isfinite(d.estimates).all()
                assert d.estimator_on_original == exact
        # every neighbourhood replicate draws the seed's recruits once: the original sample
        d = rv.bootstrap_distribution(forest, rv.BootstrapConfig("neighbourhood", 10, estimator="vh"), z, root=4)
        assert d.estimates == pytest.approx(rv.vh_estimate(rv.WeightedSample(z[1:], primes, np.ones(n - 1))), rel=1e-12)

    def test_ipw_requires_totals(self, two_recruiter_forest):
        cfg = rv.BootstrapConfig("tree", 5, estimator="ipw")
        with pytest.raises(DataError, match="totals"):
            rv.bootstrap_distribution(two_recruiter_forest, cfg, np.zeros(4))


# derandomized: a 3-SE gate fails by chance on about 3 % of random seed sets
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_production_path_matches_oracle_moments(seed):
    # the block-keyed path of bootstrap_distribution, not just the single
    # stream of mc_bootstrap_moments, agrees with exhaustive enumeration
    rng = np.random.default_rng(seed)
    forest, z = random_tiny_forest(rng)
    if forest.out_degree().max(initial=0) == 0:
        return
    B = 4000
    cfg = rv.BootstrapConfig("neighbourhood", B, estimator="sample_mean")
    d = rv.bootstrap_distribution(forest, cfg, z, root=seed)
    exact = rv.enumerate_neighbourhood(forest, z)
    mc_mean = float(d.estimates.mean())
    sd = float(d.estimates.std(ddof=1))
    tol = 3 * sd / B**0.5 + 1e-12
    assert abs(mc_mean - exact.mean_float) < tol


def test_tree_counts_conserve_occurrences():
    # in every replicate a recruiter's k recruits share exactly k times its
    # count, a single recruit copies it, and the seeds hold s occurrences
    g, _ = rv.make_study_population(300, seed=4)
    design = rv.RdsDesign(3, 3, (1 / 3, 1 / 6, 1 / 6, 1 / 3), 120)
    rng = np.random.default_rng(21)
    forests = [random_tiny_forest(rng, max_recruiters=12, max_recruits=3)[0] for _ in range(30)]
    # entry order plays no part: children may precede their parents
    forests += [relabelled(f, rng.permutation(f.n)) for f in forests[:10]]
    forests += [rv.simulate_rds(g, design, generator(9, i)) for i in range(5)]
    for i, forest in enumerate(forests):
        seeds = forest.seed_entries()
        indptr, children = forest.children_csr()
        for mode in ("with_replacement", "without_replacement"):
            counts = _tree_counts(forest, mode, generator(i), 50)
            assert counts.shape == (50, forest.n) and counts.min() >= 0
            if mode == "with_replacement":
                assert (counts[:, seeds].sum(axis=1) == seeds.size).all()
            else:
                assert (counts[:, seeds] == 1).all()
            for u in forest.recruiter_entries():
                kid = children[indptr[u] : indptr[u + 1]]
                assert (counts[:, kid].sum(axis=1) == kid.size * counts[:, u]).all()
                if kid.size == 1:
                    assert (counts[:, kid[0]] == counts[:, u]).all()


def test_lone_seed_drawn_with_replacement_draws_nothing():
    # a one-category multinomial consumes no randomness, so skipping it leaves
    # the counts and the generator's state where drawing it would
    rng = np.random.default_rng(8)
    forests = [random_tiny_forest(rng, max_recruiters=12, max_recruits=3)[0] for _ in range(40)]
    forests = [f for f in forests if f.seed_entries().size == 1]
    assert len(forests) >= 10
    for i, forest in enumerate(forests):
        rng, ref = generator(i), generator(i)
        counts = _tree_counts(forest, "with_replacement", rng, 50)
        ref.multinomial(1, [1.0], size=50)
        assert (counts == _tree_counts(forest, "without_replacement", ref, 50)).all()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("mode", ["with_replacement", "without_replacement"])
def test_tree_counts_match_exact_linear_moments_at_realistic_size(mode):
    # simulated n = 1000 forests mix recruit counts within a wave, so every
    # wave makes several grouped draws; S = counts @ z and the resample size
    # (z = 1) each have exact moments on any forest
    g, attrs = rv.make_study_population(4000, seed=20250810)
    design = rv.RdsDesign(10, 3, (1 / 3, 1 / 6, 1 / 6, 1 / 3), 1000)
    B = 4000
    for i in range(2):
        forest = rv.simulate_rds(g, design, generator(778, 0, i))
        groups = forest.recruiter_groups()
        assert forest.n == 1000 and len({r.shape[1] for _, r in groups}) == 3
        assert len(groups) > len({int(forest.wave[r[0]]) for r, _ in groups})
        counts = _tree_counts(forest, mode, generator(70, i), B)
        for z in (attrs.column("rare_tenth")[forest.node_index], np.ones(forest.n, dtype=np.int64)):
            mean, var = _tree_linear_moments(forest, z, mode)
            S = (counts @ z).astype(np.float64)
            centered = S - S.mean()
            mc_var = float(centered @ centered) / (B - 1)
            se_mean = (mc_var / B) ** 0.5
            se_var = (max(float(np.mean(centered**4)) - mc_var**2, 0.0) / B) ** 0.5
            assert abs(S.mean() - float(mean)) < 4 * se_mean
            assert abs(mc_var - float(var)) < 4 * se_var


def test_balanced_closed_forms_equal_enumeration():
    rng = np.random.default_rng(3)
    tiny = ((1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2), (1, 3, 1), (1, 3, 2), (2, 3, 1))
    for s, c, h in tiny + ((2, 2, 5), (1, 3, 4), (3, 4, 2), (2, 5, 2), (1, 2, 6)):  # then n = 62 to 127
        f = balanced_forest(s, c, h)
        z = rng.integers(0, 2, size=f.n)
        nb = rv.enumerate_neighbourhood(f, z, estimator="sample_mean")
        assert _balanced_sample_mean_moments(f, z, "neighbourhood") == (nb.mean, nb.variance)
        for mode in ("with_replacement", "without_replacement"):
            tree = rv.enumerate_tree(f, z, estimator="sample_mean", seed_mode=mode)
            assert _balanced_sample_mean_moments(f, z, "tree", mode) == (tree.mean, tree.variance)


@pytest.mark.parametrize("s, c, h", [(1, 3, 6), (2, 2, 9)])
def test_production_kernels_match_closed_forms_at_realistic_size(s, c, h):
    # n = 1093 and 2046: the kernels that the experiments run, at their size
    f = balanced_forest(s, c, h)
    z = np.random.default_rng(c * h).integers(0, 2, size=f.n)
    for method in ("neighbourhood", "tree"):
        mean, var = _balanced_sample_mean_moments(f, z, method)
        mm = rv.mc_bootstrap_moments(f, z, method, "sample_mean", 2000, generator(60, s, c, h))
        assert abs(mm.mean - float(mean)) < 4 * mm.se_mean
        assert abs(mm.variance - float(var)) < 4 * mm.se_variance


def test_non_numeric_z_is_a_data_error():
    # one binary-z rule serves the estimators, the resamplers and the oracle
    forest, z = balanced_forest(1, 2, 1), ["a", "1", "0"]
    calls = [
        lambda: rv.WeightedSample(z, [1, 1, 1], [1, 1, 1]),
        lambda: rv.enumerate_neighbourhood(forest, z),
        lambda: rv.mc_bootstrap_moments(forest, z, "neighbourhood", "sample_mean", 10, generator(0)),
        lambda: rv.bootstrap_distribution(forest, rv.BootstrapConfig("tree", 10), z),
    ]
    for call in calls:
        with pytest.raises(DataError, match="z values must be 0 or 1"):
            call()


class CountingRng:
    """A generator whose ``integers`` calls are counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("estimator", ["sample_mean", "vh"])
def test_all_participants_pool_matches_enumeration(two_recruiter_forest, monkeypatch, estimator):
    # M -> {N, O}, N -> {P}: two draws from all four entries find no recruit
    # when both fall on O or P, a quarter of the time, and are then redrawn;
    # enumeration renormalizes over the draws that find one
    forest, z = two_recruiter_forest, np.array([0.0, 1.0, 0.0, 1.0])
    exact = rv.enumerate_neighbourhood(forest, z, pool="all_participants", estimator=estimator)
    assert exact.variance > 0

    B = 20_000
    rng = CountingRng(generator(41))
    mc = rv.mc_bootstrap_moments(forest, z, "neighbourhood", estimator, B, rng, pool="all_participants")
    assert rng.calls >= 2
    assert abs(mc.mean - exact.mean_float) < 4 * mc.se_mean
    assert abs(mc.variance - exact.variance_float) < 4 * mc.se_variance

    streams = []

    def counted(*key):
        streams.append(CountingRng(generator(*key)))
        return streams[-1]

    monkeypatch.setattr("rdsvar.bootstrap.generator", counted)
    cfg = rv.BootstrapConfig("neighbourhood", 4000, selection_pool="all_participants", estimator=estimator)
    d = rv.bootstrap_distribution(forest, cfg, z, root=42)
    assert len(streams) == 40 and all(s.calls >= 2 for s in streams)
    se = float(d.estimates.std(ddof=1)) / np.sqrt(d.n_replicates)
    assert abs(float(d.estimates.mean()) - exact.mean_float) < 4 * se
