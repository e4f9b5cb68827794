import dataclasses
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdsvar as rv
from rdsvar.bootstrap import (
    BLOCK,
    POOLS,
    _counts,
    _half_binomial,
    _nb_counts,
    _nb_draws,
    _replicate_terms,
    _tree_counts,
)
from rdsvar import bootstrap, exact
from rdsvar.errors import DataError
from rdsvar.exact import _balanced_sample_mean_moments, _tree_linear_moments
from rdsvar.rng import generator, substream
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

    def test_nearest_ranks_are_exact_at_large_n(self):
        # sizes where float64 q * n lands more than 1e-9 above the exact integer rank
        assert bootstrap._nearest_ranks(47_185_960, 0.95)[0] == 47_185_960 // 40
        assert bootstrap._nearest_ranks(23_301_700, 0.68)[1] == 19_573_428
        for level in ("0.5", "0.68", "0.8", "0.9", "0.95", "0.99", "0.123"):
            q = (1 - Fraction(level)) / 2
            for n in (1, 2, 39, 40, 100, 1000, 12_345):
                want = tuple(min(max(math.ceil(x * n), 1), n) for x in (q, 1 - q))
                assert bootstrap._nearest_ranks(n, float(level)) == want

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

    def test_no_columns_give_no_distributions(self, two_recruiter_forest):
        for method in ("neighbourhood", "tree"):
            cfg = rv.BootstrapConfig(method, 10, estimator="vh")
            assert rv.bootstrap_distributions(two_recruiter_forest, cfg, {}, root=0) == {}

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
            S = (counts.astype(np.int64) @ z).astype(np.float64)
            centered = S - S.mean()
            mc_var = float(centered @ centered) / (B - 1)
            se_mean = (mc_var / B) ** 0.5
            se_var = (max(float(np.mean(centered**4)) - mc_var**2, 0.0) / B) ** 0.5
            assert abs(S.mean() - float(mean)) < 4 * se_mean
            assert abs(mc_var - float(var)) < 4 * se_var


def _fair_bit_splits(rng, trials):
    """(first, second) shares of each trial, in C order: the ones among its n fair bits, and n minus them.

    Trial n reads max(1, ceil(n / 64)) full-range uint64 words and counts
    the ones of its whole words and of the top r = n - 64 (words - 1) bits
    of its last one, one Python int at a time.
    """
    flat = trials.ravel().tolist()
    width = [max(1, -(-n // 64)) for n in flat]
    words = iter(rng.integers(0, 2**64, size=sum(width), dtype=np.uint64).tolist())
    first = []
    for n, w in zip(flat, width):
        ones = sum(bin(next(words)).count("1") for _ in range(w - 1))
        first.append(ones + bin(next(words) >> (64 - (n - 64 * (w - 1)))).count("1"))
    first = np.array(first, dtype=np.int64).reshape(trials.shape)
    return first, trials - first


def _int64_tree_counts(forest, seed_mode, rng, size):
    """The tree kernel in int64 with one draw call per group, a reference for its unsigned counts drawn in runs."""
    seeds = forest.seed_entries()
    s = int(seeds.size)
    counts = np.zeros((forest.n, size), dtype=np.int64)
    if seed_mode == "with_replacement" and s == 2:
        counts[seeds] = _fair_bit_splits(rng, np.full(size, 2))
    elif seed_mode == "with_replacement" and s > 2:
        counts[seeds] = rng.multinomial(s, np.full(s, 1.0 / s), size=size).T
    else:
        counts[seeds] = 1
    for recruiters, recruits in forest.recruiter_groups():
        k = recruits.shape[1]
        if k == 1:
            counts[recruits[:, 0]] = counts[recruiters]
        elif k == 2:
            counts[recruits[:, 0]], counts[recruits[:, 1]] = _fair_bit_splits(rng, counts[recruiters] * 2)
        else:
            draws = rng.multinomial(counts[recruiters] * k, np.full(k, 1.0 / k))
            counts[recruits] = draws.transpose(0, 2, 1)
    return counts.T


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65, 128, 129, 200])
def test_half_binomial_law(n):
    # binomial(n, 1/2): mean n/2, and E (X - n/2)**2 = n/4 with variance
    # mu4 - (n/4)**2, mu4 = (n/4) (1 + 3 (n - 2) / 4)
    N = 20_000
    x = _half_binomial(generator(90, n), np.full(N, n, dtype=np.int64)).astype(np.float64)
    assert x.min() >= 0 and x.max() <= n
    second = (x - n / 2) ** 2
    mu4 = n / 4 * (1 + 3 * (n - 2) / 4)
    assert abs(x.mean() - n / 2) <= 4 * math.sqrt(n / 4 / N)
    assert abs(second.mean() - n / 4) <= 4 * math.sqrt(max(mu4 - (n / 4) ** 2, 0.0) / N)


def test_half_binomial_reads_its_words_in_trial_order():
    # trial n reads max(1, ceil(n / 64)) full-range words, one call for all
    # trials, whichever path counts them; shapes keep their C order
    rng = np.random.default_rng(91)
    for j in range(30):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 9)))
        top = (64, 65, 300)[j % 3]
        n = rng.integers(0, top + 1, size=shape)
        run, ref, words = generator(92, j), generator(92, j), generator(92, j)
        x = _half_binomial(run, n)
        assert x.shape == shape
        assert np.array_equal(x, _fair_bit_splits(ref, n)[0])
        words.integers(0, 2**64, size=int(np.maximum(1, -(-n // 64)).sum()), dtype=np.uint64)
        assert run.bit_generator.state == ref.bit_generator.state == words.bit_generator.state


def test_half_binomial_paths_agree():
    # one trial above 64 sends the whole call down the multi-word path; the
    # trials before it read the same words and count the same ones
    n = np.random.default_rng(93).integers(0, 65, size=500)
    short = _half_binomial(generator(94), n)
    long = _half_binomial(generator(94), np.append(n, 129))
    assert long.dtype == np.int64 and np.array_equal(long[:-1], short)


def _forest(parent):
    """A forest of the given links, with unit degrees."""
    n = len(parent)
    return rv.RecruitmentForest(
        node_id=[f"n{i}" for i in range(n)], node_index=np.full(n, -1), parent=parent, degree=np.ones(n, dtype=np.int64)
    )


def _recording(kind):
    """A subclass of the bit generator type ``kind`` that records each read of its raw words in ``calls``."""

    class Recording(kind):
        def random_raw(self, size=None, output=True):
            self.calls.add("random_raw")
            return super().random_raw(size, output)

    return Recording


class _Calls:
    """A generator on ``bits`` that records each draw call: integers with its dtype, multinomial with its number
    of cells, and the raw words of its bit generator."""

    def __init__(self, bits):
        self.rng, self.bit_generator, self.calls = np.random.Generator(bits), bits, set()
        bits.calls = self.calls

    def integers(self, *args, **kwargs):
        self.calls.add(("integers", kwargs.get("dtype")))
        return self.rng.integers(*args, **kwargs)

    def multinomial(self, n, pvals, size=None):
        self.calls.add(("multinomial", len(pvals)))
        return self.rng.multinomial(n, pvals, size=size)


def test_only_two_way_tree_splits_draw_fair_bits():
    # two seeds drawn with replacement and k = 2 recruits read uint64 words,
    # as raw words where those are the full-range integers words (PCG64) and
    # by integers otherwise (MT19937); three or more seeds or recruits still
    # call multinomial
    mn = "multinomial"
    for kind, words in ((np.random.PCG64, "random_raw"), (np.random.MT19937, ("integers", np.uint64))):
        for s, recruited_by, mode, want in (
            (2, [0, 0, 1], "with_replacement", {words}),
            (3, [0, 0, 1], "with_replacement", {words, (mn, 3)}),
            (4, [0, 0, 1], "with_replacement", {words, (mn, 4)}),
            (4, [0, 0, 1], "without_replacement", {words}),
            (1, [0, 0, 0, 1, 1], "with_replacement", {words, (mn, 3)}),
        ):
            forest = _forest([-1] * s + recruited_by)
            rng = _Calls(_recording(kind)(substream(95, s)))
            counts = _tree_counts(forest, mode, rng, 40)
            assert rng.calls == want
            ref = np.random.Generator(kind(substream(95, s)))
            assert np.array_equal(counts, _int64_tree_counts(forest, mode, ref, 40))


def _state(rng):
    """The bit generator's state as JSON text (Philox's state holds arrays)."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("kind", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
                                  np.random.MT19937])
def test_fair_bits_are_the_integers_words_on_every_bit_generator(kind):
    # raw words are read only where they are the integers call's words and
    # leave its state, a buffered 32-bit half included; the one-word and the
    # multi-word path
    assert isinstance(kind(0), bootstrap._RAW_WORDS) == (kind is not np.random.MT19937)
    for top in (64, 300):
        n = np.random.default_rng(96).integers(0, top + 1, size=(3, 50))
        assert (n.max() > 64) == (top > 64)
        run, ref = np.random.Generator(kind(97)), np.random.Generator(kind(97))
        for rng in (run, ref):
            rng.integers(0, 2**32, dtype=np.uint32)  # buffer a 32-bit half (MT19937's words are 32-bit)
        assert np.array_equal(_half_binomial(run, n), _fair_bit_splits(ref, n)[0])
        assert _state(run) == _state(ref)
        assert ref.bit_generator.state.get("has_uint32", 1) == 1


def _deep_forest(depth, tail=0):
    """One seed, a chain of ``depth`` recruiters with 3 recruits each (the first carries on), then ``tail`` single links."""
    parent, u = [-1], 0
    for _ in range(depth):
        parent += [u] * 3
        u = len(parent) - 3
    for _ in range(tail):
        parent.append(u)
        u = len(parent) - 1
    return _forest(parent)


def test_tree_count_type_holds_deep_chains():
    # the type holds s * k_max ** depth, saturated at 2**63 (uint64), and the
    # counts are the int64 reference's
    for depth, tail, dtype in ((5, 0, np.uint8), (10, 0, np.uint16), (20, 0, np.uint32), (21, 0, np.uint64),
                               (45, 0, np.uint64), (2, 40, np.uint64)):
        forest = _deep_forest(depth, tail)
        for i, mode in enumerate(("with_replacement", "without_replacement")):
            rng, ref = generator(98, depth, i), generator(98, depth, i)
            counts = _tree_counts(forest, mode, rng, 300)
            assert counts.dtype == dtype
            assert np.array_equal(counts, _int64_tree_counts(forest, mode, ref, 300))
            assert rng.bit_generator.state == ref.bit_generator.state


def test_unsigned_counts_give_the_int64_products_bits(monkeypatch):
    # a desk-size forest whose degree lcm is above 2**53, so its float terms
    # and their sums are inexact: casting a block's counts once must leave
    # every replicate as the int64 count matrix times the terms gave it
    g, attrs = rv.make_study_population(4000, seed=20250810)
    forest = rv.simulate_rds(g, rv.RdsDesign(10, 3, (1 / 3, 1 / 6, 1 / 6, 1 / 3), 1000), generator(778, 0, 0))
    assert math.lcm(*set(forest.degree.tolist())) > 2**53
    cols = {name: attrs.column(name)[forest.node_index] for name in attrs.column_names}
    B = 2 * BLOCK + 50
    for method in ("neighbourhood", "tree"):
        cfg = rv.BootstrapConfig(method, B)
        dists = rv.bootstrap_distributions(forest, cfg, cols, root=5)
        nums, den = _replicate_terms(forest, cfg, None, cols)
        for k in range(3):
            if method == "tree":
                counts = _int64_tree_counts(forest, cfg.tree_seed_mode, generator(5, k), BLOCK)
            else:
                counts = _nb_counts(forest, cfg.selection_pool, generator(5, k), BLOCK)[0]
                assert counts.dtype.kind == "u"
                counts = counts.astype(np.int64)
            lo, hi = k * BLOCK, min(B, (k + 1) * BLOCK)
            den_sums = counts @ den
            for name, num in nums.items():
                assert dists[name].estimates[lo:hi].tobytes() == ((counts @ num) / den_sums)[: hi - lo].tobytes()
        # the Monte Carlo moments, from one stream, as the int64 counts cast for the product gave them
        z = cols["rare_tenth"]
        mm = rv.mc_bootstrap_moments(forest, z, method, "vh", 2000, generator(8))
        if method == "tree":
            counts = _int64_tree_counts(forest, cfg.tree_seed_mode, generator(8), 2000)
        else:
            counts = _nb_counts(forest, cfg.selection_pool, generator(8), 2000)[0]
        nums, den = _replicate_terms(forest, cfg, None, {"z": z})
        den_sums, num_sums = np.stack([den, nums["z"]]) @ counts.T.astype(np.float64)
        centered = num_sums / den_sums - mm.mean
        assert mm.mean == float((num_sums / den_sums).mean())
        assert mm.variance == float((centered @ centered) / 1999)
        assert mm.se_variance == math.sqrt(max(float(np.mean(centered**2 * centered**2)) - mm.variance**2, 0.0) / 2000)
    for i, mode in enumerate(("with_replacement", "without_replacement")):
        rng, ref = generator(6, i), generator(6, i)
        counts = _tree_counts(forest, mode, rng, 300)
        assert counts.dtype.kind == "u"
        assert np.array_equal(counts, _int64_tree_counts(forest, mode, ref, 300))
        assert rng.bit_generator.state == ref.bit_generator.state
        ws = rv.tree_resample(forest, cols["rare_tenth"], generator(7, i), mode)
        assert ws.multiplicity.dtype == np.int64
    # runs of at most 7 trials on tiny forests: a group's draws split into
    # runs of recruiter rows (sizes 1 to 3) or of one whole row (size 7, and
    # sizes 8 and 30, larger than any caller asks for)
    monkeypatch.setattr(bootstrap, "MC_CHUNK", 7)
    rng = np.random.default_rng(41)
    for j in range(40):
        forest = random_tiny_forest(rng, max_recruiters=12, max_recruits=3)[0]
        for size in (1, 2, 3, 7, 8, 30):
            for i, mode in enumerate(("with_replacement", "without_replacement")):
                run, ref = generator(42, j, i), generator(42, j, i)
                counts = _tree_counts(forest, mode, run, size)
                assert counts.dtype.kind == "u"
                assert np.array_equal(counts, _int64_tree_counts(forest, mode, ref, size))
                assert run.bit_generator.state == ref.bit_generator.state


def _group_width(p, n_r):
    """The pool slots that one bounded neighbourhood draw stands for: the widest g <= n_r with p**g <= MC_TABLE."""
    return max([g for g in range(1, n_r + 1) if p**g <= bootstrap.MC_TABLE], default=1)


def _decoded_counts(forest, pool, rng, size, g):
    """Pool-slot counts of ``size`` replicates whose n_r draws are q = ceil(n_r / g) codes of g base-p digits.

    Each replicate's codes come from one bounded ``integers`` call, and
    their digits, least significant first and code after code, are its
    first n_r drawn slots; at g = 1 they are the slot draws themselves.
    Replicates that draw no recruiter (all_participants) are redrawn after
    the batch.
    """
    recruiters = forest.recruiter_entries()
    n_r = recruiters.size
    pool_entries = recruiters if pool == "recruiters_only" else np.arange(forest.n)
    p, q = pool_entries.size, -(-n_r // g)

    def slots(rows):
        codes = rng.integers(0, p**g, size=(rows, q))
        return ((codes[:, :, None] // p ** np.arange(g)) % p).reshape(rows, q * g)[:, :n_r]

    draws = slots(size)
    if pool == "all_participants":
        recruiting = forest.out_degree() > 0
        empty = ~recruiting[draws].any(axis=1)
        while empty.any():
            draws[empty] = slots(int(empty.sum()))
            empty = ~recruiting[draws].any(axis=1)
    return np.bincount((draws + np.arange(size)[:, None] * p).ravel(), minlength=size * p).reshape(size, p)


def _run_moments(forest, z, cfg, rng, run, g=None):
    """Monte Carlo (mean, variance) from one count matrix and one product per ``run`` replicates.

    The tree method's counts are ``_counts``'s. The neighbourhood method's
    are decoded from codes of g pool slots each (``_decoded_counts``): by
    default the widest group within ``MC_TABLE`` where the terms pack, and
    single slots where they do not.
    """
    nums, den = _replicate_terms(forest, cfg, None, {"z": z})
    terms = np.stack([den, nums["z"]])
    if g is None:
        n_r = forest.recruiter_entries().size
        packs = cfg.method == "neighbourhood" and bootstrap._pack_radix(terms, n_r)
        g = _group_width(den.size, n_r) if packs else 1
    B = cfg.n_replicates
    est = []
    for lo in range(0, B, run):
        size = min(run, B - lo)
        if cfg.method == "neighbourhood":
            counts = _decoded_counts(forest, cfg.selection_pool, rng, size, g)
        else:
            counts = _counts(forest, cfg, rng, size)
        den_sums, num_sums = terms @ counts.T.astype(np.float64)
        est.append(num_sums / den_sums)
    est = np.concatenate(est)
    centered = est - float(est.mean())
    return float(est.mean()), float((centered @ centered) / (B - 1))


def test_monte_carlo_runs_make_the_one_batch_draws_and_bits(monkeypatch):
    # B = 2, 7 and 30 in kernel calls of at most 7 replicates, whose row
    # runs hold at most 7 trials: the draws, the generator's state after
    # them and every bit of the moments are those of one batch of B
    # wherever the draws of consecutive calls continue one call's (the
    # neighbourhood method's recruiters_only pool, and every option set at
    # B <= 7), and otherwise those of one grouped call per group in each
    # kernel call; also where large degrees make the float terms and sums
    # inexact
    rng = np.random.default_rng(31)
    for j in range(40):
        forest, z = random_tiny_forest(rng, max_recruits=3)
        if j % 2:
            forest = dataclasses.replace(forest, degree=rng.integers(1, 10**6, size=forest.n))
        for method, pool, seed_mode in (
            ("neighbourhood", "recruiters_only", "with_replacement"),
            ("neighbourhood", "all_participants", "with_replacement"),
            ("tree", "recruiters_only", "with_replacement"),
            ("tree", "recruiters_only", "without_replacement"),
        ):
            for estimator, B in itertools.product(("sample_mean", "vh"), (2, 7, 30)):
                mc_rng, ref = generator(32, j), generator(32, j)
                monkeypatch.setattr(bootstrap, "MC_CHUNK", 7)
                mm = rv.mc_bootstrap_moments(forest, z, method, estimator, B, mc_rng, pool, seed_mode)
                monkeypatch.setattr(bootstrap, "MC_CHUNK", B * forest.n + 1)
                cfg = rv.BootstrapConfig(method, B, pool, seed_mode, estimator)
                one_batch = B <= 7 or (method, pool) == ("neighbourhood", "recruiters_only")
                assert (mm.mean, mm.variance) == _run_moments(forest, z, cfg, ref, B if one_batch else 7)
                assert mc_rng.bit_generator.state == ref.bit_generator.state


def test_neighbourhood_monte_carlo_sums_its_draws_to_the_count_products_bits(monkeypatch):
    # integer terms on criterion 1's tiny forests: the Monte Carlo runs sum
    # the pooled terms at the drawn slots and make no counts, and the
    # moments keep every bit, and the generator its state, of the count
    # matrix of each run times the terms, over B > MC_CHUNK
    rng = np.random.default_rng(29)
    B = 2 * bootstrap.MC_CHUNK + 100

    def no_counts(*args):
        raise AssertionError("integer terms need no count matrix")

    for j in range(12):
        forest, z = random_tiny_forest(rng)
        if forest.out_degree().max(initial=0) == 0:
            continue
        for pool, estimator in itertools.product(("recruiters_only", "all_participants"), ("sample_mean", "vh")):
            mc_rng, ref = generator(30, j), generator(30, j)
            with monkeypatch.context() as patched:
                patched.setattr(bootstrap, "_nb_counts", no_counts)
                mm = rv.mc_bootstrap_moments(forest, z, "neighbourhood", estimator, B, mc_rng, pool)
            cfg = rv.BootstrapConfig("neighbourhood", B, pool, estimator=estimator)
            assert (mm.mean, mm.variance) == _run_moments(forest, z, cfg, ref, bootstrap.MC_CHUNK)
            assert mc_rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "seed, degree, packs",
    [
        (0, np.arange(1, 14), True),  # integer terms whose packed sums stay below 2**53
        (1, [1000003, 1000033, 999983] * 4 + [1000003], False),  # the packed sums would not, each sum would
        (2, [1000003, 1000033, 999983, 1000037, 999979] * 2 + [1000039, 999961, 1000081], False),  # past 2**53
    ],
)
def test_neighbourhood_monte_carlo_regimes_keep_the_count_products_bits(monkeypatch, seed, degree, packs):
    # each run makes one packed gather of the drawn slots and no counts, or
    # where the terms do not pack casts its counts; in both regimes the moments
    # and the generator state are the per-run count product's over B > MC_CHUNK
    forest = rv.RecruitmentForest(
        node_id=[f"n{i}" for i in range(13)],
        node_index=np.full(13, -1),
        parent=[-1, -1, 0, 0, 1, 2, 2, 3, 4, 4, 5, 7, 7],
        degree=degree,
    )
    z = np.arange(13) % 2
    B = 2 * bootstrap.MC_CHUNK + 100
    calls = {}

    def counted(name, call):
        def count(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)

        return count

    for pool in POOLS:
        calls.update(take=0, counts=0)
        mc_rng, ref = generator(33, seed), generator(33, seed)
        with monkeypatch.context() as patched:
            patched.setattr(np, "take", counted("take", np.take))
            patched.setattr(bootstrap, "_nb_counts", counted("counts", _nb_counts))
            mm = rv.mc_bootstrap_moments(forest, z, "neighbourhood", "vh", B, mc_rng, pool)
        assert calls == ({"take": 3, "counts": 0} if packs else {"take": 0, "counts": 3})
        cfg = rv.BootstrapConfig("neighbourhood", B, pool, estimator="vh")
        assert (mm.mean, mm.variance) == _run_moments(forest, z, cfg, ref, bootstrap.MC_CHUNK)
        assert mc_rng.bit_generator.state == ref.bit_generator.state


def _thirteen_entry_forest():
    """Two seeds and seven recruiters over 13 entries, with exact integer terms that pack."""
    return rv.RecruitmentForest(
        node_id=[f"n{i}" for i in range(13)],
        node_index=np.full(13, -1),
        parent=[-1, -1, 0, 0, 1, 2, 2, 3, 4, 4, 5, 7, 7],
        degree=np.arange(1, 14),
    )


@pytest.mark.parametrize("pool", POOLS)
def test_neighbourhood_monte_carlo_without_room_for_a_group_makes_the_slot_draws(monkeypatch, pool):
    # where p**2 > MC_TABLE (patched below p**2 on tiny forests, as it is on a
    # balanced forest of 121 recruiters and 364 entries) a bounded draw stands
    # for one pool slot: the packed runs make the slot draws, and keep their
    # generator state and every bit of their count product
    rng = np.random.default_rng(43)
    big = balanced_forest(1, 3, 5, degrees=np.arange(364) % 7 + 1)
    cases = [random_tiny_forest(rng) for _ in range(8)] + [(big, np.arange(big.n) % 2)]
    B = bootstrap.MC_CHUNK + 100
    widths, takes, take = [], [], np.take

    def recorded_draws(forest, pool, rng, size, g):
        widths.append(g)
        return _nb_draws(forest, pool, rng, size, g)

    def recorded_take(*args, **kwargs):
        takes.append(1)
        return take(*args, **kwargs)

    for j, (forest, z) in enumerate(cases):
        if forest.out_degree().max(initial=0) == 0:
            continue
        p = forest.n if pool == "all_participants" else forest.recruiter_entries().size
        for estimator in ("sample_mean", "vh"):
            widths.clear()
            takes.clear()
            mc_rng, ref = generator(44, j), generator(44, j)
            with monkeypatch.context() as patched:
                if p <= 64:
                    patched.setattr(bootstrap, "MC_TABLE", p * p - 1)
                patched.setattr(bootstrap, "_nb_draws", recorded_draws)
                patched.setattr(np, "take", recorded_take)
                mm = rv.mc_bootstrap_moments(forest, z, "neighbourhood", estimator, B, mc_rng, pool)
            assert widths == [1, 1] and len(takes) == 2
            cfg = rv.BootstrapConfig("neighbourhood", B, pool, estimator=estimator)
            assert (mm.mean, mm.variance) == _run_moments(forest, z, cfg, ref, bootstrap.MC_CHUNK, g=1)
            assert mc_rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("estimator", ["sample_mean", "vh"])
@pytest.mark.parametrize("pool", POOLS)
def test_grouped_neighbourhood_draws_match_enumeration(monkeypatch, pool, estimator):
    # MC_TABLE = p**3: each code stands for three of the p pool slots, and the
    # n_r = 7 draws of a replicate are q = 3 codes, the last counting r = 1 of
    # its digits; the all_participants pool redraws its empty replicates
    # through the digit table of its recruiting indicator
    forest, z = _thirteen_entry_forest(), np.arange(13) % 2
    p = 7 if pool == "recruiters_only" else 13
    monkeypatch.setattr(bootstrap, "MC_TABLE", p**3)
    shapes = []

    def recorded(forest, pool, rng, size, g):
        codes, pool_entries = _nb_draws(forest, pool, rng, size, g)
        shapes.append((g, codes.shape[1]))
        return codes, pool_entries

    monkeypatch.setattr(bootstrap, "_nb_draws", recorded)
    exact = rv.enumerate_neighbourhood(forest, z, pool=pool, estimator=estimator)
    mc = rv.mc_bootstrap_moments(forest, z, "neighbourhood", estimator, 20_000, generator(45), pool)
    assert shapes == [(3, 3)] * 3
    assert abs(mc.mean - exact.mean_float) < 4 * mc.se_mean
    assert abs(mc.variance - exact.variance_float) < 4 * mc.se_variance


def test_digit_tables_sum_their_codes_slots_within_twice_mc_table(monkeypatch):
    # a table of width g > 1 holds the g-digit sums of all p**g codes and, where
    # the last code counts r < g digits, their r-digit sums: at most 2 MC_TABLE
    # entries; at g = 1 it is the p values themselves
    values = np.random.default_rng(47).integers(0, 1000, size=80).astype(np.float64)
    for p, n_r in itertools.product(range(1, 81), range(1, 14)):
        g = bootstrap._group_width(p, n_r)
        assert g == _group_width(p, n_r)
        table = bootstrap._digit_sums(values[:p], g, n_r)
        if g == 1:
            assert np.array_equal(table, values[:p])
            continue
        assert table.size <= 2 * bootstrap.MC_TABLE
        q = -(-n_r // g)
        r = n_r - (q - 1) * g
        digits = (np.arange(p**g)[:, None] // p ** np.arange(g)) % p
        rows = [values[:p][digits].sum(axis=1)] + ([values[:p][digits[:, :r]].sum(axis=1)] if r < g else [])
        assert np.array_equal(table, np.concatenate(rows))
    # and every table that the Monte Carlo runs build, on tiny forests and on pools of 31 and 63 slots
    built, digit_sums = [], bootstrap._digit_sums

    def recorded(values, g, n_r):
        table = digit_sums(values, g, n_r)
        built.append((values.size, g, table.size))
        return table

    monkeypatch.setattr(bootstrap, "_digit_sums", recorded)
    rng = np.random.default_rng(48)
    forests = [random_tiny_forest(rng, max_recruiters=12) for _ in range(10)]
    forests.append((balanced_forest(1, 2, 5, degrees=np.arange(63) % 5 + 1), np.arange(63) % 2))
    forests.append((_thirteen_entry_forest(), np.arange(13) % 2))
    for (forest, z), pool in itertools.product(forests, POOLS):
        if forest.out_degree().max(initial=0) > 0:
            rv.mc_bootstrap_moments(forest, z, "neighbourhood", "vh", 100, generator(49), pool)
    assert all(size <= 2 * bootstrap.MC_TABLE if g > 1 else size == p for p, g, size in built)
    assert (63, 2, 2 * 63**2) in built  # all_participants: 31 draws in 16 codes of two slots


@pytest.mark.parametrize("method", ["neighbourhood", "tree"])
def test_monte_carlo_holds_no_count_matrix_of_all_replicates(method):
    # 13 entries at B = 100000: the float64 count matrix of all replicates
    # alone is 10.4 MB, and its draws and gathers came on top of it. The
    # peak grows with B by one float64 estimate per replicate and no more
    # (a count matrix of all B and two float64 sums per replicate grew it
    # by about 23 bytes per replicate, and the tree by 29)
    forest = rv.RecruitmentForest(
        node_id=[f"n{i}" for i in range(13)],
        node_index=np.full(13, -1),
        parent=[-1, -1, 0, 0, 1, 2, 2, 3, 4, 4, 5, 7, 7],
        degree=np.arange(1, 14),
    )
    z = np.arange(13) % 2
    rv.mc_bootstrap_moments(forest, z, method, "vh", 2, generator(1))  # warm the forest's caches

    def peak(B):
        tracemalloc.start()
        try:
            rv.mc_bootstrap_moments(forest, z, method, "vh", B, generator(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    half, full = peak(50_000), peak(100_000)
    assert full < 13 * 100_000 * 8
    assert full - half <= 8 * 50_000 + 2**16, (full - half) / 50_000


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
    """A generator whose draw calls (``integers``, ``multinomial``, ...) are counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return draw(*args, **kwargs)

        return counted


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


# entry 1's recruiter index is past the last entry, so the first walk of the
# links raises its own DataError: a check that says "unknown ..." ran first
_UNWALKABLE = dict(node_id=["S", "A"], node_index=[-1, -1], parent=[-1, 5], degree=[1, 2])


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda f, z, rng: rv.mc_bootstrap_moments(f, z, "bogus", "vh", 10, rng),
            "unknown bootstrap method: 'bogus'", id="mc-method",
        ),
        pytest.param(
            lambda f, z, rng: rv.mc_bootstrap_moments(f, z, "neighbourhood", "vh", 10, rng, pool="bogus"),
            "unknown selection pool: 'bogus'", id="mc-pool",
        ),
        pytest.param(
            lambda f, z, rng: rv.mc_bootstrap_moments(f, z, "tree", "vh", 10, rng, seed_mode="bogus"),
            "unknown tree seed mode: 'bogus'", id="mc-seed_mode",
        ),
        pytest.param(
            lambda f, z, rng: rv.mc_bootstrap_moments(f, z, "tree", "bogus", 10, rng),
            "unknown estimator: 'bogus'", id="mc-estimator",
        ),
        pytest.param(
            lambda f, z, rng: rv.mc_bootstrap_moments(f, z, "tree", "vh", 1, rng),
            "need at least 2 bootstrap replicates", id="mc-B=1",
        ),
        pytest.param(
            lambda f, z, rng: rv.BootstrapConfig("tree", 10, estimator="bogus"),
            "unknown estimator: 'bogus'", id="config-estimator",
        ),
        pytest.param(
            lambda f, z, rng: rv.neighbourhood_resample(f, z, rng, pool="bogus"),
            "unknown selection pool: 'bogus'", id="neighbourhood_resample-pool",
        ),
        pytest.param(
            lambda f, z, rng: rv.tree_resample(f, z, rng, seed_mode="bogus"),
            "unknown tree seed mode: 'bogus'", id="tree_resample-seed_mode",
        ),
        pytest.param(
            lambda f, z, rng: rv.enumerate_neighbourhood(f, z, pool="bogus"),
            "unknown selection pool: 'bogus'", id="enumerate_neighbourhood-pool",
        ),
        pytest.param(
            lambda f, z, rng: rv.enumerate_neighbourhood(f, z, estimator="bogus"),
            "unknown estimator: 'bogus'", id="enumerate_neighbourhood-estimator",
        ),
        pytest.param(
            lambda f, z, rng: rv.enumerate_tree(f, z, seed_mode="bogus"),
            "unknown tree seed mode: 'bogus'", id="enumerate_tree-seed_mode",
        ),
        pytest.param(
            lambda f, z, rng: rv.enumerate_tree(f, z, estimator="bogus"),
            "unknown estimator: 'bogus'", id="enumerate_tree-estimator",
        ),
        pytest.param(
            lambda f, z, rng: exact._tree_law(f, [0, 1], [1, 1], "bogus"),
            "unknown tree seed mode: 'bogus'", id="_tree_law-seed_mode",
        ),
        pytest.param(
            lambda f, z, rng: _tree_linear_moments(f, z, "bogus"),
            "unknown tree seed mode: 'bogus'", id="_tree_linear_moments-seed_mode",
        ),
    ],
)
def test_unknown_option_is_rejected_before_any_draw_or_walk(call, message):
    rng = CountingRng(generator(0))
    with pytest.raises(DataError) as raised:
        call(rv.RecruitmentForest(**_UNWALKABLE), [0.0, 1.0], rng)
    assert str(raised.value) == message
    assert rng.calls == 0


def test_unwalkable_probe_forest_fails_its_first_walk():
    with pytest.raises(DataError, match="recruiter index 5"):
        rv.RecruitmentForest(**_UNWALKABLE).out_degree()


@pytest.mark.parametrize("pool", ["recruiters_only", "all_participants"])
def test_neighbourhood_paths_walk_the_links_before_any_draw(pool):
    # entries 2 and 3 recruit each other and hang from no seed: the neighbourhood
    # paths reject them as the tree paths and every view of the links do, before any draw
    def forest():
        return rv.RecruitmentForest(node_id=list("SABC"), node_index=[-1] * 4, parent=[-1, 0, 3, 2], degree=[1, 2, 2, 2])

    z = [0.0, 1.0, 0.0, 1.0]
    rng = CountingRng(generator(0))
    for use in (
        lambda f: rv.neighbourhood_resample(f, z, rng, pool),
        lambda f: rv.bootstrap_distribution(f, rv.BootstrapConfig("neighbourhood", 10, pool), z),
        lambda f: rv.mc_bootstrap_moments(f, z, "neighbourhood", "vh", 10, rng, pool),
        lambda f: rv.enumerate_neighbourhood(f, z, pool),
        lambda f: rv.bootstrap_distribution(f, rv.BootstrapConfig("tree", 10), z),
        lambda f: f.seed_entries(),
        lambda f: f.children_csr(),
        lambda f: f.out_degree(),
        lambda f: f.bfs_order(),
        lambda f: f.recruiter_entries(),
        lambda f: f.recruiter_groups(),
        lambda f: f.wave,
        lambda f: f.seed_index,
    ):
        with pytest.raises(DataError, match="forest has entries unreachable from any seed"):
            use(forest())
    assert rng.calls == 0
