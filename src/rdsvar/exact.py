"""Exhaustive enumeration of bootstrap distributions for tiny forests.

Ground truth for the Monte Carlo resamplers: every possible draw sequence
is enumerated with exact rational probabilities, so enumerated moments are
exact and comparisons against simulation need only Monte Carlo error
bounds. Enumeration budgets keep this to toy problem sizes; past the
budget the error advises falling back to ``mc_bootstrap_moments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .errors import BudgetError, DataError
from .estimators import PopulationTotals
from .simulate import RecruitmentForest

__all__ = [
    "ExactDistribution",
    "enumerate_neighbourhood",
    "enumerate_tree",
    "check_moment_identity",
]

DEFAULT_BUDGET = 10**7


@dataclass
class ExactDistribution:
    """All outcome values of an estimator with exact probabilities."""

    outcomes: list[tuple[Fraction, Fraction]]  # (estimate, probability), sorted by estimate
    mean: Fraction
    variance: Fraction

    @classmethod
    def from_outcomes(cls, acc: dict[Fraction, Fraction]) -> "ExactDistribution":
        outcomes = sorted(acc.items())
        mean = sum((v * p for v, p in outcomes), Fraction(0))
        var = sum((p * (v - mean) ** 2 for v, p in outcomes), Fraction(0))
        return cls(outcomes, mean, var)

    def validate(self) -> None:
        total = sum((p for _, p in self.outcomes), Fraction(0))
        if total != 1:
            raise DataError(f"outcome probabilities sum to {total}, not 1")
        if any(p < 0 for _, p in self.outcomes):
            raise DataError("negative outcome probability")
        mean = sum((v * p for v, p in self.outcomes), Fraction(0))
        var = sum((p * (v - mean) ** 2 for v, p in self.outcomes), Fraction(0))
        if mean != self.mean or var != self.variance:
            raise DataError("stored moments disagree with recomputed moments")

    @property
    def mean_float(self) -> float:
        return float(self.mean)

    @property
    def variance_float(self) -> float:
        return float(self.variance)

    def to_json_dict(self) -> dict:
        return {
            "outcomes": [
                {
                    "estimate": float(v),
                    "probability": float(p),
                    "estimate_exact": str(v),
                    "probability_exact": str(p),
                }
                for v, p in self.outcomes
            ],
            "mean": float(self.mean),
            "variance": float(self.variance),
            "mean_exact": str(self.mean),
            "variance_exact": str(self.variance),
        }


def _exact_terms(forest: RecruitmentForest, z, estimator: str, totals: PopulationTotals | None):
    """Per-entry numerator/denominator terms; estimate = sum(c*num)/(sum(c*den)*scale)."""
    zi = [int(v) for v in np.asarray(z)]
    if len(zi) != forest.n or any(v not in (0, 1) for v in zi):
        raise DataError("z must be one 0/1 value per forest entry")
    d = [int(x) for x in forest.degree]
    if estimator == "sample_mean":
        return [Fraction(v) for v in zi], [Fraction(1)] * forest.n, Fraction(1)
    if estimator == "vh":
        return (
            [Fraction(v, di) for v, di in zip(zi, d)],
            [Fraction(1, di) for di in d],
            Fraction(1),
        )
    if estimator == "ipw":
        if totals is None:
            raise DataError("ipw estimator requires population totals")
        T = int(totals.total_degree)
        return (
            [Fraction(v * T, di) for v, di in zip(zi, d)],
            [Fraction(1)] * forest.n,
            Fraction(int(totals.n_population)),
        )
    raise DataError(f"unknown estimator: {estimator!r}")


def _multinomial_coefficient(counts) -> int:
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def _pool_draw_outcomes(agg_num, agg_den, n_draws: int):
    """Outcomes of drawing ``n_draws`` times uniformly with replacement from a pool.

    Yields (num, den, weight) where weight counts ordered draw tuples; the
    tuple total is p**n_draws.
    """
    p = len(agg_num)
    for combo in combinations_with_replacement(range(p), n_draws):
        counts: dict[int, int] = {}
        for j in combo:
            counts[j] = counts.get(j, 0) + 1
        weight = _multinomial_coefficient(list(counts.values()))
        num = sum((c * agg_num[j] for j, c in counts.items()), Fraction(0))
        den = sum((c * agg_den[j] for j, c in counts.items()), Fraction(0))
        yield num, den, weight


def _nb_aggregates(forest: RecruitmentForest, pool_entries, num, den):
    indptr, children = forest.children_csr()
    agg_num, agg_den = [], []
    for e in pool_entries:
        kid = children[indptr[e] : indptr[e + 1]]
        agg_num.append(sum((num[c] for c in kid), Fraction(0)))
        agg_den.append(sum((den[c] for c in kid), Fraction(0)))
    return agg_num, agg_den


def enumerate_neighbourhood(
    forest: RecruitmentForest,
    z,
    pool: str = "recruiters_only",
    estimator: str = "sample_mean",
    totals: PopulationTotals | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ExactDistribution:
    """Exact law of an estimator under the neighbourhood bootstrap.

    Iterates every multiset of n_r pool draws, C(p + n_r - 1, n_r) of
    them, each weighted by the number of n_r-tuples (of probability
    p**-n_r each) that produce it; the budget bounds that count. With the
    all_participants pool, tuples yielding no observations are dropped
    and the law renormalized, matching the resampler's
    redraw-until-nonempty behaviour.
    """
    num, den, scale = _exact_terms(forest, z, estimator, totals)
    recruiters = forest.recruiter_entries()
    n_r = int(recruiters.size)
    if n_r == 0:
        raise DataError("degenerate forest: no recruiters to resample")
    pool_entries = recruiters if pool == "recruiters_only" else np.arange(forest.n)
    p = len(pool_entries)
    n_multisets = math.comb(p + n_r - 1, n_r)
    if n_multisets > budget:
        raise BudgetError(
            f"neighbourhood enumeration needs {n_multisets} draw multisets (> budget {budget}); "
            "use mc_bootstrap_moments instead"
        )
    agg_num, agg_den = _nb_aggregates(forest, pool_entries, num, den)
    denom_total = p**n_r
    acc: dict[Fraction, Fraction] = {}
    skipped = 0
    for onum, oden, weight in _pool_draw_outcomes(agg_num, agg_den, n_r):
        if oden == 0:
            skipped += weight
            continue
        est = onum / (oden * scale)
        prob = Fraction(weight, denom_total)
        acc[est] = acc.get(est, Fraction(0)) + prob
    if skipped:
        kept = Fraction(denom_total - skipped, denom_total)
        acc = {v: pr / kept for v, pr in acc.items()}
    return ExactDistribution.from_outcomes(acc)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_tree(
    forest: RecruitmentForest,
    z,
    seed_mode: str = "with_replacement",
    estimator: str = "sample_mean",
    totals: PopulationTotals | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ExactDistribution:
    """Exact law of an estimator under the tree bootstrap.

    Recursively enumerates the seed draw and every per-node recruit-draw
    outcome; probabilities are products of uniform draw probabilities.
    """
    if forest.n == 0:
        raise DataError("empty forest")
    num, den, scale = _exact_terms(forest, z, estimator, totals)
    indptr, children = forest.children_csr()
    seeds = [int(i) for i in forest.seed_entries()]
    s = len(seeds)
    plan = []  # internal entries in BFS order with their children
    for u in forest.bfs_order():
        kid = [int(c) for c in children[indptr[u] : indptr[u + 1]]]
        if kid:
            plan.append((int(u), kid))

    counts = [0] * forest.n
    acc: dict[Fraction, Fraction] = {}
    visited = 0

    def settle(i: int, prob: Fraction, run_num: Fraction, run_den: Fraction):
        nonlocal visited
        if i == len(plan):
            visited += 1
            if visited > budget:
                raise BudgetError(
                    f"tree enumeration exceeded budget {budget}; use mc_bootstrap_moments instead"
                )
            est = run_num / (run_den * scale)
            acc[est] = acc.get(est, Fraction(0)) + prob
            return
        u, kid = plan[i]
        m = counts[u]
        if m == 0:
            settle(i + 1, prob, run_num, run_den)
            return
        k = len(kid)
        total = m * k
        denom = k**total
        for combo in _compositions(total, k):
            w = _multinomial_coefficient(combo)
            add_num = Fraction(0)
            add_den = Fraction(0)
            for c, child in zip(combo, kid):
                counts[child] = c
                if c:
                    add_num += c * num[child]
                    add_den += c * den[child]
            settle(i + 1, prob * Fraction(w, denom), run_num + add_num, run_den + add_den)
        for child in kid:
            counts[child] = 0

    def run_seed_config(seed_counts, prob: Fraction):
        run_num = Fraction(0)
        run_den = Fraction(0)
        for c, e in zip(seed_counts, seeds):
            counts[e] = c
            run_num += c * num[e]
            run_den += c * den[e]
        settle(0, prob, run_num, run_den)
        for e in seeds:
            counts[e] = 0

    if seed_mode == "with_replacement":
        denom = s**s
        for combo in _compositions(s, s):
            w = _multinomial_coefficient(combo)
            run_seed_config(combo, Fraction(w, denom))
    elif seed_mode == "without_replacement":
        run_seed_config([1] * s, Fraction(1))
    else:
        raise DataError(f"unknown tree seed mode: {seed_mode!r}")
    return ExactDistribution.from_outcomes(acc)


def _balanced_shape(forest: RecruitmentForest) -> tuple[int, int, int]:
    """(s, c, h) of a balanced forest, or raise."""
    out_deg = forest.out_degree()
    rec = np.flatnonzero(out_deg > 0)
    if rec.size == 0:
        raise DataError("identity only asserted for balanced forests (no recruiters here)")
    cs = set(int(x) for x in out_deg[rec])
    if len(cs) != 1:
        raise DataError("identity only asserted for balanced forests (mixed recruit counts)")
    c = cs.pop()
    h = int(forest.wave.max())
    full = (forest.wave < h) == (out_deg > 0)
    if not bool(full.all()) or h < 1:
        raise DataError("identity only asserted for balanced forests (trees not full)")
    return int(forest.seed_entries().size), c, h


def _per_tree_enumeration(forest: RecruitmentForest, z) -> tuple[Fraction, Fraction]:
    """Moments of the sample mean when each tree's recruiters are drawn separately.

    Draws ell_j recruiters with replacement within tree j (ell_j = that
    tree's recruiter count) and pools the selected recruits across trees.
    """
    num, den, _ = _exact_terms(forest, z, "sample_mean", None)
    out_deg = forest.out_degree()
    per_tree: list[list[tuple[Fraction, Fraction, Fraction]]] = []
    for j in sorted(set(int(x) for x in forest.seed_index)):
        pool = [
            int(e)
            for e in np.flatnonzero((forest.seed_index == j) & (out_deg > 0))
        ]
        if not pool:
            raise DataError("identity needs at least one recruiter per tree")
        agg_num, agg_den = _nb_aggregates(forest, pool, num, den)
        ell = len(pool)
        total = Fraction(len(pool) ** ell)
        per_tree.append(
            [(n_, d_, Fraction(w) / total) for n_, d_, w in _pool_draw_outcomes(agg_num, agg_den, ell)]
        )
    combos = [(Fraction(0), Fraction(0), Fraction(1))]
    for tree_outcomes in per_tree:
        combos = [
            (n1 + n2, d1 + d2, p1 * p2)
            for n1, d1, p1 in combos
            for n2, d2, p2 in tree_outcomes
        ]
    acc: dict[Fraction, Fraction] = {}
    for n_, d_, p_ in combos:
        est = n_ / d_
        acc[est] = acc.get(est, Fraction(0)) + p_
    dist = ExactDistribution.from_outcomes(acc)
    return dist.mean, dist.variance


def check_moment_identity(forest: RecruitmentForest, z) -> dict:
    """Compare enumerated neighbourhood-bootstrap moments with closed forms.

    For a balanced forest the enumerated expectation of the bootstrap
    sample mean must equal the mean of z over non-seed entries exactly.
    The printed variance decomposition (squared deviations plus the
    sibling cross term with (n-1)/n**2 factors) is evaluated as written
    and reported as a diagnostic beside both the pooled-draw and the
    per-tree-draw enumerations; it is not asserted.
    """
    s, c, h = _balanced_shape(forest)
    zi = [int(v) for v in np.asarray(z)]
    pooled = enumerate_neighbourhood(forest, z, "recruiters_only", "sample_mean")
    pt_mean, pt_var = _per_tree_enumeration(forest, z)

    nonseed = [zi[i] for i in range(forest.n) if forest.parent[i] >= 0]
    non_seed_mean = Fraction(sum(nonseed), len(nonseed))

    n = forest.n
    zbar = Fraction(sum(zi), n)
    term_dev = sum(((Fraction(v) - zbar) ** 2 for v in zi), Fraction(0))
    term_sq = Fraction(sum(v * v for v in zi))
    indptr, children = forest.children_csr()
    cross = 0
    for u in range(n):
        kid = [int(x) for x in children[indptr[u] : indptr[u + 1]]]
        for a in kid:
            for b in kid:
                if a != b:
                    cross += zi[a] * zi[b]
    var_formula = term_dev / n**2 + Fraction(n - 1, n**4) * (term_sq + cross)

    n_r = int(forest.recruiter_entries().size)
    return {
        "balanced": {"s": s, "c": c, "h": h, "n": n, "n_r": n_r},
        "enumerated": {
            "pooled": {"mean": float(pooled.mean), "variance": float(pooled.variance)},
            "per_tree": {"mean": float(pt_mean), "variance": float(pt_var)},
        },
        "non_seed_mean": float(non_seed_mean),
        "formula_terms": {
            "sum_squared_deviations": float(term_dev),
            "sum_squares": float(term_sq),
            "sibling_cross_sum": float(Fraction(cross)),
            "variance_formula": float(var_formula),
        },
        "abs_diff": {
            "pooled_mean_vs_non_seed_mean": float(abs(pooled.mean - non_seed_mean)),
            "per_tree_mean_vs_non_seed_mean": float(abs(pt_mean - non_seed_mean)),
            "pooled_variance_vs_formula": float(abs(pooled.variance - var_formula)),
            "per_tree_variance_vs_formula": float(abs(pt_var - var_formula)),
        },
    }
