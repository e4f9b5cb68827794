"""Exact bootstrap laws of estimators, built by convolution.

Ground truth for the Monte Carlo resamplers: the laws carry exact
rational probabilities, so their moments are exact and comparisons
against simulation need only Monte Carlo error bounds. The estimator's
terms are integers over one common denominator, so a resample's estimate
is num / (den * scale) for two integer sums num and den. A law is a dict
from the key (num, den) to an integer weight, all weights over one
integer total, and both bootstraps are sums of independent draws, so each
law is a convolution of smaller laws (keys add, weights multiply):

* neighbourhood: the n_r-fold convolution of the uniform law over the
  pool members' (recruit num sum, recruit den sum) values; with the
  all_participants pool the keys with den = 0 (nothing drawn) are
  dropped and the rest renormalized, as the resampler redraws those;
* tree: one occurrence of entry u has the law of its own point
  (num_u, den_u) plus the k-fold convolution of the uniform mixture of
  its k recruits' laws, built in reverse BFS order without recursion;
  the seeds' law is the s-fold convolution of the seeds' mixture (seeds
  drawn with replacement) or the convolution of the s seed laws
  (without).

One integer routine turns a law into an ``ExactDistribution``, which holds
integers: keys are reduced and merged, put in exact order (by float
value, each adjacent pair checked by integer cross-multiplication, and
sorted by it where the floats tie), and the mean and variance come from
the integer sums of w*v and w*v**2, v = num * (D // den) over the lcm D
of the denominators, one ``Fraction`` each; ``validate`` recomputes them
the same way. The estimate and probability ``Fraction`` of an outcome
are built on read. The budget counts the (key, key) products of all
convolutions and is checked before each one; past it the error advises
falling back to ``mc_bootstrap_moments``.

Two closed forms stay exact at O(n) Fraction cost: the mean and variance
of the tree bootstrap's linear statistic counts @ z on any forest (with
z = 1, the resample size), and of the sample mean under either bootstrap
on a balanced forest. The tests hold the convolved laws to both.

Only the option names and their check come from ``rdsvar.bootstrap``;
the law code is independent of the resamplers it is held against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

from .bootstrap import ESTIMATORS, POOLS, SEED_MODES, _check_option
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


def _moments(outcomes, total: int, scale: int = 1) -> tuple[Fraction, Fraction]:
    """(mean, variance) of num / (den * scale) drawn with probability w / total.

    ``outcomes`` yields (num, den, w) with den > 0 and the weights adding
    up to ``total``. Over the lcm D of the dens, an outcome's value is the
    integer v = num * (D // den), and the moments come from the integer
    sums s1 = sum(w * v) and s2 = sum(w * v**2). Both are summed per
    distinct den first, so only one product per den carries D, which has
    thousands of bits when the dens are many.
    """
    per_den: dict[int, list[int]] = {}
    for num, den, w in outcomes:
        wn = w * num
        sums = per_den.get(den)
        if sums is None:
            per_den[den] = [wn, wn * num]
        else:
            sums[0] += wn
            sums[1] += wn * num
    lcm = math.lcm(*per_den)
    s1 = s2 = 0
    for den, (a, b) in per_den.items():
        f = lcm // den
        s1 += a * f
        s2 += b * f * f
    unit = total * lcm * scale
    return Fraction(s1, unit), Fraction(s2 * total - s1 * s1, unit * unit)


@dataclass
class ExactDistribution:
    """All outcome values of an estimator with exact probabilities, held as integers.

    Outcome (num, den, w) of ``triples`` is the estimate num / (den * scale)
    with probability w / total; its (num, den) is reduced and the triples
    are in increasing order of estimate. ``outcomes`` and ``to_json_dict``
    make the ``Fraction`` values when they are read.
    """

    triples: list[tuple[int, int, int]]
    total: int
    scale: int
    mean: Fraction
    variance: Fraction

    @classmethod
    def from_law(cls, law: dict[tuple[int, int], int], total: int, scale: int = 1) -> "ExactDistribution":
        """The law of num / (den * scale) over keys (num, den > 0) of integer weight w / total."""
        merged: dict[tuple[int, int], int] = {}
        for (num, den), w in law.items():
            g = math.gcd(num, den)
            key = (num // g, den // g)
            merged[key] = merged.get(key, 0) + w
        # the merged keys are distinct values; a float order is exact if
        # every adjacent pair is in order by integer cross-multiplication
        ranked = sorted(merged, key=lambda key: key[0] / key[1])
        if any(a * d >= c * b for (a, b), (c, d) in zip(ranked, ranked[1:])):
            ranked.sort(key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
        triples = [(num, den, merged[num, den]) for num, den in ranked]
        return cls(triples, total, scale, *_moments(triples, total, scale))

    @property
    def outcomes(self) -> list[tuple[Fraction, Fraction]]:
        """(estimate, probability) of each outcome, in increasing order of estimate."""
        return [(Fraction(num, den * self.scale), Fraction(w, self.total)) for num, den, w in self.triples]

    def validate(self) -> None:
        """Raise ``DataError`` unless the weights are a law and the moments are those of the triples."""
        weights = [w for _, _, w in self.triples]
        if sum(weights) != self.total:
            raise DataError(f"outcome probabilities sum to {Fraction(sum(weights), self.total)}, not 1")
        if any(w < 0 for w in weights):
            raise DataError("negative outcome probability")
        if _moments(self.triples, self.total, self.scale) != (self.mean, self.variance):
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
                    "estimate_exact": _exact_str(v),
                    "probability_exact": _exact_str(p),
                }
                for v, p in self.outcomes
            ],
            **_moments_json(self.mean, self.variance),
        }


def _exact_str(q: Fraction) -> str:
    """``str(q)`` with all its digits, where ``str`` of an int stops at Python's digit cap (4300 by default)."""
    num, den = str(Decimal(q.numerator)), str(Decimal(q.denominator))
    return num if den == "1" else f"{num}/{den}"


def _moments_json(mean: Fraction, variance: Fraction) -> dict:
    return {"mean": float(mean), "variance": float(variance), "mean_exact": _exact_str(mean), "variance_exact": _exact_str(variance)}


def _exact_terms(forest: RecruitmentForest, z, estimator: str, totals: PopulationTotals | None):
    """Per-entry integer numerator/denominator terms; estimate = sum(c*num)/(sum(c*den)*scale).

    The terms are the estimator's weights put over one common denominator
    (the lcm of the degrees), which cancels in the ratio.
    """
    _check_option("estimator", estimator, ESTIMATORS)
    zi = _as_z(z, forest.n).astype(np.int64).tolist()
    d = [int(x) for x in forest.degree]
    if estimator == "sample_mean":
        return zi, [1] * forest.n, 1
    lcm = math.lcm(*d)
    w = [lcm // di for di in d]
    if estimator == "vh":
        return [v * wi for v, wi in zip(zi, w)], w, 1
    if totals is None:
        raise DataError("ipw estimator requires population totals")
    T = int(totals.total_degree)
    return [v * T * wi for v, wi in zip(zi, w)], [lcm] * forest.n, int(totals.n_population)


class _Convolver:
    """Convolves laws, counting their (key, key) products against an enumeration budget."""

    def __init__(self, method: str, budget: int):
        self.method, self.budget, self.products = method, budget, 0

    def convolve(self, a: dict, b: dict) -> dict:
        """The law of the sum of independent draws from ``a`` and ``b``: keys add, weights multiply."""
        self.products += len(a) * len(b)
        if self.products > self.budget:
            raise BudgetError(
                f"{self.method} enumeration needs at least {self.products} (key, key) products of "
                f"convolved laws (> budget {self.budget}); use mc_bootstrap_moments instead"
            )
        out: dict[tuple[int, int], int] = {}
        get = out.get
        pairs = list(b.items())
        for (an, ad), aw in a.items():
            for (bn, bd), bw in pairs:
                key = (an + bn, ad + bd)
                out[key] = get(key, 0) + aw * bw
        return out

    def power(self, law: dict, k: int) -> dict:
        """The k-fold convolution of ``law`` with itself (k >= 1)."""
        out = law
        for _ in range(k - 1):
            out = self.convolve(out, law)
        return out


def _mixture(parts: list[tuple[dict, int]]) -> tuple[dict, int]:
    """The uniform mixture of (law, total) parts, as one (law, total)."""
    common = math.lcm(*(total for _, total in parts))
    out: dict[tuple[int, int], int] = {}
    for law, total in parts:
        f = common // total
        for key, w in law.items():
            out[key] = out.get(key, 0) + w * f
    return out, common * len(parts)


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

    The n_r-fold convolution of the uniform law over the pool members'
    (numerator, denominator) sums of their recruits' terms, of total
    p**n_r. With the all_participants pool, draws yielding no
    observations (den = 0) are dropped and the law renormalized, matching
    the resampler's redraw-until-nonempty behaviour.
    """
    _check_option("selection pool", pool, POOLS)
    num, den, scale = _exact_terms(forest, z, estimator, totals)
    recruiters = forest.recruiter_entries()
    n_r = int(recruiters.size)
    if n_r == 0:
        raise DataError("degenerate forest: no recruiters to resample")
    pool_entries = recruiters if pool == "recruiters_only" else np.arange(forest.n)
    uniform: dict[tuple[int, int], int] = {}
    for key in zip(*_nb_aggregates(forest, pool_entries, num, den)):
        uniform[key] = uniform.get(key, 0) + 1
    law = _Convolver("neighbourhood", budget).power(uniform, n_r)
    # every den term is positive, so den = 0 only at the key (0, 0) of draws without recruits
    dropped = law.pop((0, 0), 0)
    return ExactDistribution.from_law(law, len(pool_entries) ** n_r - dropped, scale)


def enumerate_tree(
    forest: RecruitmentForest,
    z,
    seed_mode: str = "with_replacement",
    estimator: str = "sample_mean",
    totals: PopulationTotals | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ExactDistribution:
    """Exact law of an estimator under the tree bootstrap.

    Each entry's occurrence law is built from its recruits' in reverse
    BFS order: its own point plus the k-fold convolution of the uniform
    mixture of its k recruits' laws. The seeds' law combines the seed
    laws as the seed mode draws them.
    """
    if forest.n == 0:
        raise DataError("empty forest")
    num, den, scale = _exact_terms(forest, z, estimator, totals)
    return ExactDistribution.from_law(*_tree_law(forest, num, den, seed_mode, budget), scale)


def _tree_law(forest: RecruitmentForest, num, den, seed_mode: str, budget: int = DEFAULT_BUDGET):
    """(law, total) of the tree bootstrap's (sum of num, sum of den) over the resample's entries."""
    _check_option("tree seed mode", seed_mode, SEED_MODES)
    indptr, children = forest.children_csr()
    conv = _Convolver("tree", budget)
    laws: list = [None] * forest.n  # (law, total) of one occurrence of each entry, until its recruiter's is built
    for u in forest.bfs_order()[::-1].tolist():
        kids = children[indptr[u] : indptr[u + 1]].tolist()
        if not kids:
            laws[u] = ({(num[u], den[u]): 1}, 1)
            continue
        mix, total = _mixture([laws[c] for c in kids])
        for c in kids:
            laws[c] = None
        draws = conv.power(mix, len(kids))
        laws[u] = ({(a + num[u], b + den[u]): w for (a, b), w in draws.items()}, total ** len(kids))
    seeds = [laws[e] for e in forest.seed_entries().tolist()]
    if seed_mode == "with_replacement":
        mix, total = _mixture(seeds)
        return conv.power(mix, len(seeds)), total ** len(seeds)
    law, total = seeds[0]
    for other, other_total in seeds[1:]:
        law, total = conv.convolve(law, other), total * other_total
    return law, total


def _balanced_shape(forest: RecruitmentForest) -> tuple[int, int, int]:
    """(s, c, h) of a balanced forest, or raise."""
    out_deg = forest.out_degree()
    cs = set(out_deg[out_deg > 0].tolist())
    if not cs:
        raise DataError("identity only asserted for balanced forests (no recruiters here)")
    if len(cs) != 1:
        raise DataError("identity only asserted for balanced forests (mixed recruit counts)")
    wave = forest.wave
    h = int(wave.max())
    if not bool(((wave < h) == (out_deg > 0)).all()):
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
    _check_option("tree seed mode", seed_mode, SEED_MODES)
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
    return sum(moments[e][0] for e in seeds), sum(moments[e][1] for e in seeds)


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


def check_moment_identity(forest: RecruitmentForest, z, laws: dict[str, ExactDistribution] | None = None) -> dict:
    """Bootstrap moments of the sample mean on a balanced forest, enumerated and in closed form.

    Reports the enumerated neighbourhood moments, their closed form, the
    tree bootstrap's enumerated moments and closed form (seeds drawn with
    replacement), the mean of z over non-seed entries, and exact
    differences as Fraction strings. On a balanced forest the enumerated
    neighbourhood mean equals the closed form and the non-seed mean, and
    the enumerated variance equals the closed form: each of those
    differences is "0"; the enumerated tree moments equal their closed
    form. ``laws`` maps "neighbourhood" or "tree" to the law of the sample
    mean the caller has already: over the recruiters_only pool, or with the
    seeds drawn with replacement. A law not given is enumerated.
    """
    s, c, h = _balanced_shape(forest)
    laws = laws or {}
    nb = laws["neighbourhood"] if "neighbourhood" in laws else enumerate_neighbourhood(forest, z)
    tree = laws["tree"] if "tree" in laws else enumerate_tree(forest, z, "with_replacement", "sample_mean")
    nb_mean, nb_var = _balanced_sample_mean_moments(forest, z, "neighbourhood")
    tree_mean, tree_var = _balanced_sample_mean_moments(forest, z, "tree")
    nonseed = _as_z(z, forest.n)[forest.parent >= 0]
    non_seed_mean = Fraction(int(nonseed.sum()), nonseed.size)
    return {
        "balanced": {"s": s, "c": c, "h": h, "n": forest.n, "n_r": int(forest.recruiter_entries().size)},
        "non_seed_mean": float(non_seed_mean),
        "non_seed_mean_exact": _exact_str(non_seed_mean),
        "neighbourhood_enumerated": _moments_json(nb.mean, nb.variance),
        "neighbourhood_closed_form": _moments_json(nb_mean, nb_var),
        "tree_enumerated": _moments_json(tree.mean, tree.variance),
        "tree_closed_form": _moments_json(tree_mean, tree_var),
        "exact_diff": {
            "neighbourhood_mean_enumerated_minus_closed_form": _exact_str(nb.mean - nb_mean),
            "neighbourhood_variance_enumerated_minus_closed_form": _exact_str(nb.variance - nb_var),
            "neighbourhood_mean_enumerated_minus_non_seed_mean": _exact_str(nb.mean - non_seed_mean),
            "variance_tree_minus_neighbourhood_closed_form": _exact_str(tree_var - nb_var),
        },
    }
