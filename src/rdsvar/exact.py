"""Exhaustive enumeration of bootstrap distributions for tiny forests.

Ground truth for the Monte Carlo resamplers: every possible draw sequence
is enumerated with exact rational probabilities, so enumerated moments are
exact and comparisons against simulation need only Monte Carlo error
bounds. The estimator's terms are integers over one common denominator,
each draw outcome adds its integer weight to the key of its integer
(numerator, denominator) sums (in the tree, also of its probability's
denominator), and the ``Fraction`` estimate and probability are built
once per distinct key. Enumeration budgets keep this to toy problem sizes
(the neighbourhood budget counts draw multisets, the tree budget
enumerated outcomes); past the budget the error advises falling back to
``mc_bootstrap_moments``.

Past the budgets, two closed forms stay exact at O(n) Fraction cost: the
mean and variance of the tree bootstrap's linear statistic counts @ z on
any forest (with z = 1, the resample size), and of the sample mean under
either bootstrap on a balanced forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .errors import BudgetError, DataError
from .estimators import PopulationTotals, _as_z
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
            **_moments_json(self.mean, self.variance),
        }


def _moments_json(mean: Fraction, variance: Fraction) -> dict:
    return {"mean": float(mean), "variance": float(variance), "mean_exact": str(mean), "variance_exact": str(variance)}


def _exact_terms(forest: RecruitmentForest, z, estimator: str, totals: PopulationTotals | None):
    """Per-entry integer numerator/denominator terms; estimate = sum(c*num)/(sum(c*den)*scale).

    The terms are the estimator's weights put over one common denominator
    (the lcm of the degrees), which cancels in the ratio.
    """
    zi = _as_z(z, forest.n).astype(np.int64).tolist()
    d = [int(x) for x in forest.degree]
    if estimator == "sample_mean":
        return zi, [1] * forest.n, Fraction(1)
    lcm = math.lcm(*d)
    w = [lcm // di for di in d]
    if estimator == "vh":
        return [v * wi for v, wi in zip(zi, w)], w, Fraction(1)
    if estimator == "ipw":
        if totals is None:
            raise DataError("ipw estimator requires population totals")
        T = int(totals.total_degree)
        return [v * T * wi for v, wi in zip(zi, w)], [lcm] * forest.n, Fraction(int(totals.n_population))
    raise DataError(f"unknown estimator: {estimator!r}")


def _multinomial_coefficient(counts) -> int:
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def _law(outcomes, scale: Fraction) -> ExactDistribution:
    """The law of num / (den * scale) over (num, den, probability) outcomes, equal estimates merged."""
    acc: dict[Fraction, Fraction] = {}
    for num, den, prob in outcomes:
        est = Fraction(num, den) / scale
        acc[est] = acc.get(est, Fraction(0)) + prob
    return ExactDistribution.from_outcomes(acc)


def _nb_aggregates(forest: RecruitmentForest, pool_entries, num, den):
    indptr, children = forest.children_csr()
    agg_num, agg_den = [], []
    for e in pool_entries:
        kid = children[indptr[e] : indptr[e + 1]].tolist()
        agg_num.append(sum(num[c] for c in kid))
        agg_den.append(sum(den[c] for c in kid))
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
    them, each weighted by the number n_r! / prod(c_j!) of n_r-tuples
    (of probability p**-n_r each) that produce it; the budget bounds that
    count. The weights add up as integers per distinct (numerator,
    denominator) pair of integer sums. With the all_participants pool,
    tuples yielding no observations are dropped and the law
    renormalized, matching the resampler's redraw-until-nonempty
    behaviour.
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
    orderings = math.factorial(n_r)
    weights: dict[tuple[int, int], int] = {}  # (num, den) -> number of draw tuples
    for combo in combinations_with_replacement(range(p), n_r):
        # combo is sorted, so the product of each draw's position within its
        # run of equal members is prod(c_j!)
        onum = oden = 0
        div = run = 1
        prev = -1
        for j in combo:
            onum += agg_num[j]
            oden += agg_den[j]
            run = run + 1 if j == prev else 1
            div *= run
            prev = j
        weights[onum, oden] = weights.get((onum, oden), 0) + orderings // div
    kept = p**n_r - sum(w for (_, oden), w in weights.items() if oden == 0)
    return _law(((onum, oden, Fraction(w, kept)) for (onum, oden), w in weights.items() if oden), scale)


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
    outcome, whose number the budget bounds. Probabilities are products
    of uniform draw probabilities, carried as an integer numerator and
    denominator, and add up as integers per distinct (numerator,
    denominator, probability denominator) triple.
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
    weights: dict[tuple[int, int, int], int] = {}  # (num, den, prob denominator) -> prob numerator
    visited = 0

    def settle(i: int, pw: int, pd: int, run_num: int, run_den: int):
        nonlocal visited
        if i == len(plan):
            visited += 1
            if visited > budget:
                raise BudgetError(
                    f"tree enumeration exceeded budget {budget}; use mc_bootstrap_moments instead"
                )
            key = (run_num, run_den, pd)
            weights[key] = weights.get(key, 0) + pw
            return
        u, kid = plan[i]
        m = counts[u]
        if m == 0:
            settle(i + 1, pw, pd, run_num, run_den)
            return
        k = len(kid)
        total = m * k
        pd *= k**total
        for combo in _compositions(total, k):
            add_num = add_den = 0
            for c, child in zip(combo, kid):
                counts[child] = c
                add_num += c * num[child]
                add_den += c * den[child]
            settle(i + 1, pw * _multinomial_coefficient(combo), pd, run_num + add_num, run_den + add_den)
        for child in kid:
            counts[child] = 0

    def run_seed_config(seed_counts, pw: int, pd: int):
        run_num = run_den = 0
        for c, e in zip(seed_counts, seeds):
            counts[e] = c
            run_num += c * num[e]
            run_den += c * den[e]
        settle(0, pw, pd, run_num, run_den)
        for e in seeds:
            counts[e] = 0

    if seed_mode == "with_replacement":
        for combo in _compositions(s, s):
            run_seed_config(combo, _multinomial_coefficient(combo), s**s)
    elif seed_mode == "without_replacement":
        run_seed_config([1] * s, 1, 1)
    else:
        raise DataError(f"unknown tree seed mode: {seed_mode!r}")
    return _law(((onum, oden, Fraction(w, pd)) for (onum, oden, pd), w in weights.items()), scale)


def _balanced_shape(forest: RecruitmentForest) -> tuple[int, int, int]:
    """(s, c, h) of a balanced forest, or raise.

    The depths come from the recruitment links, not the ``wave`` column,
    which a hand-built forest need not keep consistent.
    """
    out_deg = forest.out_degree()
    cs = set(out_deg[out_deg > 0].tolist())
    if not cs:
        raise DataError("identity only asserted for balanced forests (no recruiters here)")
    if len(cs) != 1:
        raise DataError("identity only asserted for balanced forests (mixed recruit counts)")
    order, depth = forest._breadth_first()
    h = int(depth.max())
    if not bool(((depth < h) == (out_deg[order] > 0)).all()):
        raise DataError("identity only asserted for balanced forests (trees not full)")
    return int(forest.seed_entries().size), cs.pop(), h


def _tree_linear_moments(forest: RecruitmentForest, z, seed_mode: str = "with_replacement"):
    """Exact (mean, variance) of S = counts @ z under the tree bootstrap, on any forest.

    S of an occurrence of u is z_u plus the S of k iid uniform picks from
    u's k recruits, so E S_u = z_u + sum(E S_c) and
    Var S_u = sum(Var S_c) + sum((E S_c - mean(E S_c))**2) over those
    recruits c. The seeds are s iid picks from the seeds' S (with
    replacement) or each seed once. With z = 1, S is the resample size.
    O(n) Fraction operations.
    """
    num, _, _ = _exact_terms(forest, z, "sample_mean", None)
    indptr, children = forest.children_csr()
    moments: list = [None] * forest.n  # (E S_u, Var S_u)

    def picks(nodes):
        """(mean, variance) of the sum of len(nodes) iid uniform picks from ``nodes``."""
        means = [moments[c][0] for c in nodes]
        m = sum(means, Fraction(0)) / len(nodes)
        dev = sum(((e - m) ** 2 for e in means), Fraction(0))
        return len(nodes) * m, sum((moments[c][1] for c in nodes), Fraction(0)) + dev

    for u in forest.bfs_order()[::-1].tolist():
        kids = children[indptr[u] : indptr[u + 1]].tolist()
        mean, var = picks(kids) if kids else (Fraction(0), Fraction(0))
        moments[u] = (num[u] + mean, var)
    seeds = forest.seed_entries().tolist()
    if seed_mode == "with_replacement":
        return picks(seeds)
    if seed_mode == "without_replacement":
        return sum(moments[e][0] for e in seeds), sum(moments[e][1] for e in seeds)
    raise DataError(f"unknown tree seed mode: {seed_mode!r}")


def _balanced_sample_mean_moments(
    forest: RecruitmentForest, z, method: str, seed_mode: str = "with_replacement"
) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the bootstrap sample mean on a balanced forest.

    Neighbourhood: each of the n_r draws adds c recruits, so the estimate
    is the mean of n_r iid draws of a recruiter's recruit mean ybar_j.
    Tree: the resample size is fixed at n, so the estimate is S / n for
    the S of ``_tree_linear_moments``. The forest is not checked.
    """
    if method == "tree":
        mean, var = _tree_linear_moments(forest, z, seed_mode)
        return mean / forest.n, var / forest.n**2
    num, den, _ = _exact_terms(forest, z, "sample_mean", None)
    ybar = [Fraction(a, b) for a, b in zip(*_nb_aggregates(forest, forest.recruiter_entries(), num, den))]
    mean = sum(ybar, Fraction(0)) / len(ybar)
    return mean, sum(((y - mean) ** 2 for y in ybar), Fraction(0)) / len(ybar) ** 2


def check_moment_identity(forest: RecruitmentForest, z) -> dict:
    """Bootstrap moments of the sample mean on a balanced forest, enumerated and in closed form.

    Reports the enumerated neighbourhood moments, their closed form, the
    tree bootstrap's closed form (seeds drawn with replacement), the mean
    of z over non-seed entries, and exact differences as Fraction strings.
    On a balanced forest the enumerated neighbourhood mean equals the
    closed form and the non-seed mean, and the enumerated variance equals
    the closed form: each of those differences is "0". The tree bootstrap
    is not enumerated here, as that costs far more than the neighbourhood
    enumeration; the tests hold its closed form to ``enumerate_tree``.
    """
    s, c, h = _balanced_shape(forest)
    nb = enumerate_neighbourhood(forest, z, "recruiters_only", "sample_mean")
    nb_mean, nb_var = _balanced_sample_mean_moments(forest, z, "neighbourhood")
    tree_mean, tree_var = _balanced_sample_mean_moments(forest, z, "tree")
    nonseed = _as_z(z, forest.n)[forest.parent >= 0]
    non_seed_mean = Fraction(int(nonseed.sum()), nonseed.size)
    return {
        "balanced": {"s": s, "c": c, "h": h, "n": forest.n, "n_r": int(forest.recruiter_entries().size)},
        "non_seed_mean": float(non_seed_mean),
        "non_seed_mean_exact": str(non_seed_mean),
        "neighbourhood_enumerated": _moments_json(nb.mean, nb.variance),
        "neighbourhood_closed_form": _moments_json(nb_mean, nb_var),
        "tree_closed_form": _moments_json(tree_mean, tree_var),
        "exact_diff": {
            "neighbourhood_mean_enumerated_minus_closed_form": str(nb.mean - nb_mean),
            "neighbourhood_variance_enumerated_minus_closed_form": str(nb.variance - nb_var),
            "neighbourhood_mean_enumerated_minus_non_seed_mean": str(nb.mean - non_seed_mean),
            "variance_tree_minus_neighbourhood_closed_form": str(tree_var - nb_var),
        },
    }
