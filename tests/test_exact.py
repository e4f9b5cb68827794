from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import rdsvar as rv
from rdsvar import exact
from rdsvar.errors import BudgetError, DataError
from rdsvar.rng import generator
from conftest import balanced_forest, random_tiny_forest, seeds_with_one_recruit


def test_neighbourhood_hand_enumeration(two_recruiter_forest):
    z = [0, 1, 0, 0]  # z(N)=1, z(O)=0, z(P)=0
    d = rv.enumerate_neighbourhood(two_recruiter_forest, z)
    d.validate()
    assert d.outcomes == [
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 4)),
    ]
    assert d.mean == Fraction(7, 24)


def test_neighbourhood_constant_z(two_recruiter_forest):
    d = rv.enumerate_neighbourhood(two_recruiter_forest, [1, 1, 1, 1])
    assert d.outcomes == [(Fraction(1), Fraction(1))]
    assert d.variance == 0


def test_neighbourhood_single_recruiter_forced(single_seed_forest):
    d = rv.enumerate_neighbourhood(single_seed_forest, [1, 1, 0])
    assert d.outcomes == [(Fraction(1, 2), Fraction(1))]


def test_tree_leaf_seed():
    f = rv.RecruitmentForest(
        node_id=["M"], node_index=[-1], parent=[-1], degree=[5]
    )
    d = rv.enumerate_tree(f, [1])
    assert d.outcomes == [(Fraction(1), Fraction(1))]


def test_tree_hand_enumeration(single_seed_forest):
    d = rv.enumerate_tree(single_seed_forest, [0, 1, 0])
    d.validate()
    assert d.outcomes == [
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(2, 3), Fraction(1, 4)),
    ]


def test_tree_two_level_cross_check(two_recruiter_forest):
    z = [0, 1, 0, 1]
    exact = rv.enumerate_tree(two_recruiter_forest, z)
    exact.validate()
    mm = rv.mc_bootstrap_moments(two_recruiter_forest, z, "tree", "sample_mean", 100_000, generator(5))
    assert abs(mm.mean - exact.mean_float) < 3 * mm.se_mean + 1e-12
    assert abs(mm.variance - exact.variance_float) < 3 * mm.se_variance + 1e-12


def test_enumeration_order_independent(two_recruiter_forest):
    z = [0, 1, 0, 1]
    base = rv.enumerate_neighbourhood(two_recruiter_forest, z)
    # same forest with entries listed in a different order (O before N)
    reordered = rv.RecruitmentForest(
        node_id=["M", "O", "N", "P"],
        node_index=[-1, -1, -1, -1],
        parent=[-1, 0, 0, 2],
        degree=[2, 1, 3, 2],
    )
    other = rv.enumerate_neighbourhood(reordered, [0, 0, 1, 1])
    assert base.outcomes == other.outcomes


def test_neighbourhood_budget_error():
    # 300 recruiters whose one recruit's degrees differ: about 300 distinct
    # vh keys, so the second convolution alone needs over 10**7 products
    f = seeds_with_one_recruit(range(1, 301))
    with pytest.raises(BudgetError, match="mc_bootstrap_moments"):
        rv.enumerate_neighbourhood(f, np.arange(f.n) % 2, estimator="vh")


def test_neighbourhood_budget_counts_key_products():
    # recruit sums 0, 2, 1, 0, 0, 0 of 2 recruits each: the uniform law has
    # the 3 keys (a, 2), the i-fold law the 2i + 1 keys (a, 2i), so the 5
    # convolutions up to n_r = 6 make 3 * (3 + 5 + 7 + 9 + 11) = 105 key
    # products (against C(11, 6) = 462 draw multisets and 6**6 tuples)
    f = balanced_forest(2, 2, 2)
    assert f.recruiter_entries().tolist() == [0, 1, 2, 7, 8, 9]
    z = np.zeros(f.n, dtype=int)
    z[[3, 4, 5]] = 1
    rv.enumerate_neighbourhood(f, z, budget=105).validate()
    with pytest.raises(BudgetError, match="105"):
        rv.enumerate_neighbourhood(f, z, budget=104)


def test_tree_budget_error():
    # a constant z would collapse every occurrence law to one key
    f = balanced_forest(2, 3, 5)
    with pytest.raises(BudgetError, match="mc_bootstrap_moments"):
        rv.enumerate_tree(f, np.arange(f.n) % 2, budget=1000)


def test_all_participants_pool_renormalizes(single_seed_forest):
    # pool {M, N, O}: only M has recruits; empty draws are conditioned away
    d = rv.enumerate_neighbourhood(single_seed_forest, [0, 1, 0], pool="all_participants")
    d.validate()
    total = sum(p for _, p in d.outcomes)
    assert total == 1


def test_vh_and_ipw_enumeration(two_recruiter_forest):
    z = [0, 1, 0, 1]
    d_vh = rv.enumerate_neighbourhood(two_recruiter_forest, z, estimator="vh")
    d_vh.validate()
    totals = rv.PopulationTotals(10, 40)
    d_ipw = rv.enumerate_neighbourhood(two_recruiter_forest, z, estimator="ipw", totals=totals)
    d_ipw.validate()
    # degrees N=3 O=1 P=2; draw (M,M): vh = (2/3)/(2/3+2) = 1/4
    assert (Fraction(1, 4), Fraction(1, 4)) in d_vh.outcomes


NB_EXACT_DIFFS = (
    "neighbourhood_mean_enumerated_minus_closed_form",
    "neighbourhood_variance_enumerated_minus_closed_form",
    "neighbourhood_mean_enumerated_minus_non_seed_mean",
)


class TestMomentIdentity:
    def test_balanced_mean_equals_non_seed_mean(self):
        rng = np.random.default_rng(3)
        for s in (1, 2):
            for h in (1, 2):
                f = balanced_forest(s, 2, h, degrees=rng.integers(1, 7, size=(2 ** (h + 1) - 1) * s))
                z = rng.integers(0, 2, size=f.n)
                report = rv.check_moment_identity(f, z)
                assert all(report["exact_diff"][key] == "0" for key in NB_EXACT_DIFFS)
                assert report["balanced"] == {
                    "s": s,
                    "c": 2,
                    "h": h,
                    "n": f.n,
                    "n_r": (2**h - 1) * s,
                }

    def test_constant_z_zero_variance(self):
        f = balanced_forest(2, 2, 1)
        report = rv.check_moment_identity(f, np.ones(f.n, dtype=int))
        assert report["neighbourhood_enumerated"]["variance"] == 0.0
        assert report["neighbourhood_closed_form"]["variance_exact"] == "0"
        assert report["tree_closed_form"]["variance_exact"] == "0"

    def test_reports_closed_forms(self):
        f = balanced_forest(2, 2, 1)
        z = [1, 1, 0, 0, 1, 0]
        report = rv.check_moment_identity(f, z)
        nb = rv.enumerate_neighbourhood(f, z)
        tree = rv.enumerate_tree(f, z)
        moments = ("neighbourhood_enumerated", "neighbourhood_closed_form", "tree_closed_form")
        for key, dist in zip(moments, (nb, nb, tree)):
            assert (report[key]["mean_exact"], report[key]["variance_exact"]) == (str(dist.mean), str(dist.variance))
        assert report["non_seed_mean_exact"] == "1/2"
        assert report["exact_diff"] == {
            **{key: "0" for key in NB_EXACT_DIFFS},
            "variance_tree_minus_neighbourhood_closed_form": str(tree.variance - nb.variance),
        }

    def test_unbalanced_rejected(self, two_recruiter_forest):
        with pytest.raises(DataError, match="balanced"):
            rv.check_moment_identity(two_recruiter_forest, [0, 1, 0, 1])
        # S -> {A, B}, A -> {A1, A2}, B a leaf: the depths come from the
        # links, and a wave column that puts B at the last level is rejected
        links = dict(node_id=["S", "A", "B", "A1", "A2"], node_index=[-1] * 5, parent=[-1, 0, 0, 1, 1])
        links["degree"] = [1] * 5
        with pytest.raises(DataError, match="balanced"):
            rv.check_moment_identity(rv.RecruitmentForest(**links), [0, 1, 0, 1, 1])
        with pytest.raises(DataError, match="entry 2 disagrees with the recruiter links"):
            rv.RecruitmentForest(**links, wave=[0, 1, 2, 2, 2])

    def test_wave_column_that_flattens_a_forest_is_rejected(self):
        f = balanced_forest(1, 2, 2)
        with pytest.raises(DataError, match="entry 1 disagrees with the recruiter links"):
            replace(f, wave=np.zeros(f.n, dtype=np.int64))
        assert f.wave.tolist() == [0, 1, 1, 2, 2, 2, 2]


def test_non_binary_z_rejected():
    # a value that truncates to 0 or 1 is still not 0 or 1
    f = balanced_forest(1, 2, 1)
    for call in (rv.enumerate_neighbourhood, rv.enumerate_tree, rv.check_moment_identity):
        with pytest.raises(DataError, match="0 or 1"):
            call(f, [0, 0.7, 0.7])


def test_mc_agreement_sweep():
    # sampled mini version of the oracle-equivalence acceptance criterion
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(6):
        forest, z = random_tiny_forest(rng)
        if forest.out_degree().max(initial=0) == 0:
            continue
        master = int(rng.integers(10**9))
        for method, enum in (
            ("neighbourhood", rv.enumerate_neighbourhood),
            ("tree", rv.enumerate_tree),
        ):
            exact = enum(forest, z)
            mm = rv.mc_bootstrap_moments(forest, z, method, "sample_mean", 30_000, generator(master))
            assert abs(mm.mean - exact.mean_float) < 3 * mm.se_mean + 1e-12
            assert abs(mm.variance - exact.variance_float) < 3 * mm.se_variance + 1e-12
        checked += 1
    assert checked >= 3


def _plain_estimate(drawn, z, d, estimator, totals):
    """The estimator of the multiset ``drawn`` (entry indices), in Fractions from its definition."""
    if estimator == "sample_mean":
        return Fraction(sum(z[i] for i in drawn), len(drawn))
    weighted = sum((Fraction(z[i], d[i]) for i in drawn), Fraction(0))
    if estimator == "vh":
        return weighted / sum((Fraction(1, d[i]) for i in drawn), Fraction(0))
    return Fraction(totals.total_degree, totals.n_population) * weighted / len(drawn)


def _plain_law(draws):
    """Sorted (estimate, probability) of (estimate or None, probability) draws; None is conditioned away."""
    law = {}
    for est, p in draws:
        law[est] = law.get(est, Fraction(0)) + p
    kept = 1 - law.pop(None, 0)
    return sorted((est, p / kept) for est, p in law.items())


def _kids(forest):
    """Each entry's recruits, read from the parent column."""
    parent = forest.parent.tolist()
    return [[c for c in range(forest.n) if parent[c] == u] for u in range(forest.n)]


def _ordered_neighbourhood_draws(forest, pool, estimate):
    """Every ordered n_r-tuple of pool draws with its probability."""
    kids = _kids(forest)
    recruiters = [u for u in range(forest.n) if kids[u]]
    members = recruiters if pool == "recruiters_only" else list(range(forest.n))
    p = Fraction(1, len(members) ** len(recruiters))
    for tup in product(members, repeat=len(recruiters)):
        drawn = [c for u in tup for c in kids[u]]
        yield (estimate(drawn) if drawn else None), p


def _ordered_tree_draws(forest, seed_mode, estimate):
    """Every ordered draw sequence of the tree bootstrap with its probability."""
    kids = _kids(forest)
    seeds = [u for u in range(forest.n) if forest.parent[u] < 0]

    def expand(pending, drawn, p):
        if not pending:
            yield estimate(drawn), p
            return
        u, rest = pending[0], pending[1:]
        k = kids[u]
        if not k:
            yield from expand(rest, drawn, p)
            return
        for pick in product(k, repeat=len(k)):
            yield from expand(rest + list(pick), drawn + list(pick), p / len(k) ** len(k))

    starts = product(seeds, repeat=len(seeds)) if seed_mode == "with_replacement" else [tuple(seeds)]
    share = Fraction(1, len(seeds) ** len(seeds)) if seed_mode == "with_replacement" else Fraction(1)
    for start in starts:
        yield from expand(list(start), list(start), share)


def _plain_moments(law):
    """(mean, variance) of a sorted (estimate, probability) law, by plain Fraction sums."""
    mean = sum((v * p for v, p in law), Fraction(0))
    return mean, sum((p * (v - mean) ** 2 for v, p in law), Fraction(0))


def test_enumeration_equals_ordered_draw_brute_force():
    # the enumerators convolve integer-keyed laws and take their moments
    # from integer sums; a plain Fraction walk over every ordered draw must
    # give the same outcome lists and moments
    rng = np.random.default_rng(2024)
    totals = rv.PopulationTotals(40, 160)
    for _ in range(30):
        forest, z = random_tiny_forest(rng, max_recruiters=4)
        zi, d = z.astype(int).tolist(), forest.degree.tolist()
        for estimator in ("sample_mean", "vh", "ipw"):
            memo = {}

            def estimate(drawn):
                key = tuple(sorted(drawn))
                if key not in memo:
                    memo[key] = _plain_estimate(key, zi, d, estimator, totals)
                return memo[key]

            if forest.recruiter_entries().size:
                for pool in ("recruiters_only", "all_participants"):
                    got = rv.enumerate_neighbourhood(forest, z, pool, estimator, totals)
                    want = _plain_law(_ordered_neighbourhood_draws(forest, pool, estimate))
                    assert got.outcomes == want
                    assert (got.mean, got.variance) == _plain_moments(want)
            for mode in ("with_replacement", "without_replacement"):
                got = rv.enumerate_tree(forest, z, mode, estimator, totals)
                want = _plain_law(_ordered_tree_draws(forest, mode, estimate))
                assert got.outcomes == want
                assert (got.mean, got.variance) == _plain_moments(want)


def _shallow_forest(rng, n, max_depth=4, max_recruits=3):
    """A random forest of n entries (at most 242): 2 or 3 seeds, each new entry recruited by an open earlier one."""
    s = int(rng.integers(2, 4))
    parent, depth, recruits = [-1] * s, [0] * s, [0] * s
    while len(parent) < n:
        open_ = [u for u in range(len(parent)) if depth[u] < max_depth and recruits[u] < max_recruits]
        u = open_[int(rng.integers(len(open_)))]
        recruits[u] += 1
        parent.append(u)
        depth.append(depth[u] + 1)
        recruits.append(0)
    m = len(parent)
    return rv.RecruitmentForest(
        node_id=[f"e{i}" for i in range(m)], node_index=np.full(m, -1), parent=parent,
        degree=np.ones(m, dtype=np.int64),
    )


def test_convolved_tree_law_has_linear_moments_at_larger_size():
    # with every den term 0 the tree law's keys are (S, 0): the law of its
    # num marginal S = counts @ num, whose moments the O(n) recursion gives
    rng = np.random.default_rng(11)
    for n in (50, 80, 120, 160, 200):
        forest = _shallow_forest(rng, n)
        assert forest.n == n
        for num in (rng.integers(0, 2, size=forest.n).tolist(), [1] * forest.n):
            for mode in ("with_replacement", "without_replacement"):
                law, total = exact._tree_law(forest, num, [0] * forest.n, mode)
                assert {den for _, den in law} == {0} and sum(law.values()) == total
                moments = exact._moments(((s, 1, w) for (s, _), w in law.items()), total)
                assert moments == exact._tree_linear_moments(forest, num, mode)


def test_outcomes_in_exact_order_beyond_float_precision():
    # 1 - 1/(2**60 + 1) < 1 - 1/(2**60 + 2), but both are the float 1.0
    big = 2**60
    d = rv.ExactDistribution.from_law({(big + 1, big + 2): 1, (big, big + 1): 3}, 4)
    assert d.outcomes == [(Fraction(big, big + 1), Fraction(3, 4)), (Fraction(big + 1, big + 2), Fraction(1, 4))]
    d.validate()


def test_laws_are_held_as_integers(monkeypatch):
    # keys 2/4 and 1/2 merge; the law keeps reduced integer triples in
    # increasing order, builds only its two moment Fractions, and makes the
    # outcome Fractions when they are read
    made = []
    monkeypatch.setattr(exact, "Fraction", lambda *args: made.append(args) or Fraction(*args))
    d = rv.ExactDistribution.from_law({(3, 3): 4, (2, 4): 1, (0, 3): 1, (1, 2): 2}, 8, scale=5)
    assert len(made) == 2
    assert (d.triples, d.total, d.scale) == ([(0, 1, 1), (1, 2, 3), (1, 1, 4)], 8, 5)
    assert (d.mean, d.variance) == (Fraction(11, 80), Fraction(31, 6400))
    assert d.outcomes == [(Fraction(0), Fraction(1, 8)), (Fraction(1, 10), Fraction(3, 8)), (Fraction(1, 5), Fraction(1, 2))]
    d.validate()


def _fraction(text: str) -> Fraction:
    """A Fraction string back to its value, past the digit cap of ``int(str)``."""
    return Fraction(*(int(Decimal(part)) for part in text.split("/")))


def test_exact_strings_keep_every_digit_past_the_int_string_cap():
    # the vh variance of this forest has 6146 digits; str() of a Fraction
    # stops at Python's default cap of 4300 digits per int
    forest = balanced_forest(2, 3, 2, degrees=np.random.default_rng(1).integers(1, 9, size=26))
    law = rv.enumerate_neighbourhood(forest, np.random.default_rng(2).integers(0, 2, size=26), estimator="vh")
    report = law.to_json_dict()
    assert len(report["variance_exact"]) > 4300
    assert _fraction(report["variance_exact"]) == law.variance and _fraction(report["mean_exact"]) == law.mean
    outcomes = [(_fraction(o["estimate_exact"]), _fraction(o["probability_exact"])) for o in report["outcomes"]]
    assert outcomes == law.outcomes
    for q in (Fraction(0), Fraction(-3), Fraction(7, 24), Fraction(-(10**40), 7)):
        assert exact._exact_str(q) == str(q)


def test_validate_rejects_inconsistent_laws(single_seed_forest):
    d = rv.enumerate_tree(single_seed_forest, [0, 1, 0])
    d.validate()
    bad = [
        (replace(d, total=2 * d.total), "sum to 1/2"),
        (replace(d, triples=[(0, 1, -1), (1, 1, 2)], total=1), "negative"),
        (replace(d, mean=d.mean + Fraction(1, 10**30)), "disagree"),
        (replace(d, variance=d.variance + Fraction(1, 10**30)), "disagree"),
    ]
    for dist, message in bad:
        with pytest.raises(DataError, match=message):
            dist.validate()
