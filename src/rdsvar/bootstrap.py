"""Bootstrap resampling of recruitment forests.

Two methods:

* ``neighbourhood`` -- draw n_r individuals with replacement from the
  selection pool (the recruiters by default) and take the multiset of the
  drawn individuals' recruits as the bootstrap sample.
* ``tree`` -- hierarchical resampling: draw the seeds (with replacement by
  default), then for every drawn occurrence of a participant draw k times
  with replacement from its k recruits, recursing down the tree. The
  bootstrap sample is the multiset of all drawn occurrences, seeds
  included.

Each method has one draw kernel for a batch of replicates: ``_nb_draws``
returns bounded codes that stand for g drawn pool slots each (the slots
themselves at g = 1, which ``_nb_counts`` counts), and ``_tree_counts``
returns a count matrix. For the tree method the
counts propagate one BFS wave at a time: m occurrences of a recruiter with
k recruits spawn m*k independent uniform child draws, i.e. the child
counts are multinomial(m*k, uniform). Each wave makes one draw call per
distinct k among its recruiters, over all of them and all replicates at
once (``RecruitmentForest.recruiter_groups``), and a recruiter with one
recruit copies its count without a draw -- the same random object as the
recursive description, grouped by node and wave. A two-way split (k = 2,
or two seeds drawn with replacement) draws its first share as the ones
among fair random bits (``_half_binomial``); three or more ways call
``multinomial``. The single-sample resamplers are the kernels at batch
size 1.

Every caller asks a kernel for at most ``MC_CHUNK`` replicates: a block
of ``BLOCK``, a run of ``mc_bootstrap_moments`` or one resample. The
tree kernel draws each group in runs of recruiter rows of at most
``MC_CHUNK`` trials; a bounded draw, a word of fair bits or a
multinomial over a run continues the stream where the last run stopped,
so the runs have the draws of one call. ``mc_bootstrap_moments`` draws
its B replicates as consecutive kernel calls on its one stream. For the
neighbourhood method with the recruiters_only pool these are the draws
and the generator state of one (B, q) call of its codes; the tree method
and the all_participants pool, which redraws a call's empty replicates
after that call, draw the same law in another order when B exceeds
``MC_CHUNK``.

Multiplicities are accumulated rather than materializing duplicate
records. A bootstrap distribution draws its replicates in blocks of
``BLOCK``: block k holds replicates [k*BLOCK, (k+1)*BLOCK) and draws from
the derived substream (root, k). The last block is drawn in full and
truncated, so replicate b never depends on B, and the blocks can run in
any order or split across workers without changing the result.

Counts are held in the smallest unsigned type that holds any count: a
neighbourhood count is at most n_r, and a tree count at most s times
k_max to the power of the deepest wave. A consumer casts them to float64,
exact below 2**53: ``bootstrap_distributions`` into one C-ordered
buffer per call, refilled with each block's counts, the buffer numpy
would make for each product of int64 counts, so the replicates keep
their bits; ``mc_bootstrap_moments`` one copy per tree run, in the
memory order the kernel returned, as numpy would. A
neighbourhood run of ``mc_bootstrap_moments`` makes no counts when the
pooled terms are non-negative integers with n_r (max den * 2**s + max
num) < 2**53, where 2**s > n_r max num. Then one bounded draw over p**g
codes stands for g of the p pool slots, its base-p digits, for the
widest g <= n_r with p**g <= ``MC_TABLE`` (g = 1 wherever p > 64; see
``_nb_draws``): uniform codes have independent uniform digits, so the
law is the slot draws'. A run gathers a table of the sums of
den * 2**s + num over each code's slots (``_digit_sums``, built once per
call) at its codes and sums the gathered entries, each partial sum an
exact integer in any order, and splits each sum S exactly into the den
sum floor(S / 2**s) and the num sum, the rest, so it has the count
product's bits. With other terms a run draws single slots and casts
their counts as a tree run does.

Fair bits are full-range uint64 words. Where the bit generator is a
PCG64, PCG64DXSM, Philox or SFC64 (or a subclass: ``rng._RAW_WORDS``,
the types ``simulate_rds`` accepts), they are read as its raw words,
which are the words and leave the state of the ``integers`` call; any
other bit generator, MT19937 among them, whose raw words are 32-bit, is
asked through ``integers``.

A replicate estimate is (counts @ num) / (counts @ den) in float64, where
num and den are the estimator's own integer terms from
``estimators._degree_terms`` (see ``_replicate_terms``). It equals the
exact estimator of the resample whenever every term and partial sum is an
integer below 2**53, and can differ in the last bits otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError
from .estimators import PopulationTotals, WeightedSample, _as_z, _degree_terms, _estimate
from .rng import _RAW_WORDS, RngStream, generator
from .simulate import RecruitmentForest

__all__ = [
    "BootstrapConfig",
    "BootstrapDistribution",
    "MonteCarloMoments",
    "neighbourhood_resample",
    "tree_resample",
    "bootstrap_distribution",
    "bootstrap_distributions",
    "percentile_ci",
    "bootstrap_variance",
    "mc_bootstrap_moments",
]

METHODS = ("neighbourhood", "tree")
POOLS = ("recruiters_only", "all_participants")
SEED_MODES = ("with_replacement", "without_replacement")
ESTIMATORS = ("sample_mean", "vh", "ipw")
BLOCK = 100  # replicates per keyed substream in bootstrap_distributions
MC_CHUNK = 1 << 13  # replicates per kernel call, and trials per draw call in the tree kernel's row runs
MC_TABLE = 1 << 12  # most codes of one bounded draw in a neighbourhood Monte Carlo run (see _group_width)


def _check_option(what: str, value, allowed: tuple[str, ...]) -> None:
    """Raise ``DataError`` unless ``value`` is one of the ``allowed`` names of option ``what``."""
    if value not in allowed:
        raise DataError(f"unknown {what}: {value!r}")


@dataclass(frozen=True)
class BootstrapConfig:
    method: str
    n_replicates: int
    selection_pool: str = "recruiters_only"
    tree_seed_mode: str = "with_replacement"
    estimator: str = "vh"

    def __post_init__(self):
        _check_option("bootstrap method", self.method, METHODS)
        _check_option("selection pool", self.selection_pool, POOLS)
        _check_option("tree seed mode", self.tree_seed_mode, SEED_MODES)
        _check_option("estimator", self.estimator, ESTIMATORS)
        if self.n_replicates < 2:
            raise DataError("need at least 2 bootstrap replicates")


@dataclass
class BootstrapDistribution:
    """B bootstrap estimates (in replicate order) plus the original-sample estimate."""

    estimates: np.ndarray
    estimator_on_original: float

    def __post_init__(self):
        self.estimates = np.asarray(self.estimates, dtype=np.float64)

    @property
    def n_replicates(self) -> int:
        return int(self.estimates.shape[0])


def _nb_pool(forest: RecruitmentForest, pool: str) -> tuple[np.ndarray, int]:
    """(pool entry indices, n_r). n_r is the number of draws for either pool."""
    recruiters = forest.recruiter_entries()
    n_r = int(recruiters.size)
    if n_r == 0:
        raise DataError("degenerate forest: no recruiters to resample")
    if pool == "recruiters_only":
        return recruiters, n_r
    return np.arange(forest.n, dtype=np.int64), n_r


def _group_width(p: int, n_r: int) -> int:
    """The pool slots g that one bounded draw stands for: the largest g <= n_r with p**g <= ``MC_TABLE``, at least 1."""
    g = 1
    while g < n_r and p ** (g + 1) <= MC_TABLE:
        g += 1
    return g


def _digit_sums(values: np.ndarray, g: int, n_r: int) -> np.ndarray:
    """Table of the sums of ``values`` over the pool slots that each code of ``_nb_draws`` at width g stands for.

    Entry c < p**g sums values[(c // p**j) % p] over its g digits j. Where
    the last of a replicate's q = ceil(n_r / g) codes counts only its
    r = n_r - (q - 1) g < g low digits, entries p**g + c sum them over
    j < r. So the table has at most 2 p**g entries, and on bool values it
    tells whether any of the slots is True.
    """
    r = n_r - (-(-n_r // g) - 1) * g
    sums = low = values
    for j in range(1, g):
        if j == r:
            low = sums
        sums = (values[:, None] + sums).ravel()  # entry d p**j + c: digit j is d, the lower ones are c's
    if r < g:
        sums = np.concatenate([sums, np.tile(low, values.size ** (g - r))])
    return sums


def _nb_draws(
    forest: RecruitmentForest, pool: str, rng: RngStream, size: int, g: int
) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the n_r uniform draws of ``size`` replicates in groups of g pool slots, shape (size, q), and the pool entries.

    One bounded draw over p**g codes stands for g pool slots, the code's
    digits (c // p**j) % p for j < g, least significant first: uniform
    codes have independent uniform digits. A replicate makes
    q = ceil(n_r / g) draws in one ``integers`` call with the others, and
    its last code counts only its r = n_r - (q - 1) g low digits; where
    r < g that column is offset by p**g, to index the second row of a
    ``_digit_sums`` table. At g = 1 the codes are the drawn pool slots.

    Replicates whose drawn individuals have no recruits at all (possible
    only with the all_participants pool) are redrawn after the whole
    batch, i.e. the bootstrap law is conditioned on producing at least
    one observation.
    """
    pool_entries, n_r = _nb_pool(forest, pool)
    codes_per_draw, q = int(pool_entries.size) ** g, -(-n_r // g)

    def draw(rows: int) -> np.ndarray:
        codes = rng.integers(0, codes_per_draw, size=(rows, q))
        if q * g > n_r:
            codes[:, -1] += codes_per_draw
        return codes

    codes = draw(size)
    if pool == "all_participants":
        recruiting = _digit_sums(forest.out_degree()[pool_entries] > 0, g, n_r)
        empty = ~recruiting[codes].any(axis=1)
        while empty.any():
            codes[empty] = draw(int(empty.sum()))
            empty = ~recruiting[codes].any(axis=1)
    return codes, pool_entries


def _nb_counts(forest: RecruitmentForest, pool: str, rng: RngStream, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw counts over the pool for ``size`` replicates, shape (size, p), and the pool entries."""
    draws, pool_entries = _nb_draws(forest, pool, rng, size, 1)
    p = int(pool_entries.size)
    draws += np.arange(size, dtype=np.int64)[:, None] * p
    counts = np.bincount(draws.ravel(), minlength=size * p).reshape(size, p)
    return counts.astype(np.min_scalar_type(draws.shape[1])), pool_entries


def _recruit_slots(forest: RecruitmentForest, pool_entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(recruit entries, pool slot of each one's recruiter), in entry order."""
    recruits = np.flatnonzero(forest.parent >= 0)
    return recruits, np.searchsorted(pool_entries, forest.parent[recruits])


def neighbourhood_resample(
    forest: RecruitmentForest, z, rng: RngStream, pool: str = "recruiters_only"
) -> WeightedSample:
    """One neighbourhood bootstrap sample: the recruits of n_r drawn individuals.

    A recruit's multiplicity is the number of times its recruiter was
    drawn. Seeds are nobody's recruit and therefore never appear in the
    returned sample.
    """
    _check_option("selection pool", pool, POOLS)
    z = _as_z(z, forest.n)
    counts, pool_entries = _nb_counts(forest, pool, rng, 1)
    recruits, slot = _recruit_slots(forest, pool_entries)
    mult = np.zeros(forest.n, dtype=np.int64)
    mult[recruits] = counts[0, slot]
    picked = np.flatnonzero(mult)
    return WeightedSample(z[picked], forest.degree[picked], mult[picked])


def _fair_words(rng: RngStream, shape) -> np.ndarray:
    """Full-range uint64 words of ``shape``, read raw where ``_RAW_WORDS`` holds the bit generator's type."""
    bits = rng.bit_generator
    if isinstance(bits, _RAW_WORDS):
        return bits.random_raw(shape)
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64)


def _half_binomial(rng: RngStream, n: np.ndarray) -> np.ndarray:
    """binomial(n, 1/2) for each trial of the C-ordered int64 array ``n``: the ones among n fair bits.

    Trial i reads w_i = max(1, ceil(n_i / 64)) words of one full-range
    uint64 ``integers`` call (one raw word each, read by ``_fair_words``),
    in trial order, and counts the ones in its whole words and in the top
    n_i - 64 (w_i - 1) bits of its last word. A trial with n = 0 still
    reads one word. Runs of trials therefore read the words of one call.
    """
    if n.max(initial=0) <= 64:  # one word per trial
        words = _fair_words(rng, n.shape)
        words >>= (64 - n).astype(np.uint64)
        return np.bitwise_count(words)
    flat = n.ravel()
    width = np.maximum(1, -(-flat // 64))
    last = np.cumsum(width) - 1
    shift = np.zeros(int(last[-1]) + 1, dtype=np.uint64)
    shift[last] = 64 * width - flat
    words = _fair_words(rng, shift.size)
    words >>= shift
    return np.add.reduceat(np.bitwise_count(words), last - (width - 1), dtype=np.int64).reshape(n.shape)


def _tree_counts(forest: RecruitmentForest, seed_mode: str, rng: RngStream, size: int) -> np.ndarray:
    """Occurrence counts per entry for ``size`` tree-bootstrap replicates, shape (size, n).

    The counts are held entry-major, so every gather and scatter is a
    contiguous row, and returned as the transposed view. Callers ask for
    at most ``MC_CHUNK`` replicates, so the seeds take one draw call; each
    group's (m, size) trials are drawn in C order in runs of
    ``MC_CHUNK // size`` recruiter rows. A two-way split (k = 2 recruits,
    or two seeds drawn with replacement) is multinomial(n, (1/2, 1/2)):
    the first recruit gets X ~ binomial(n, 1/2) from ``_half_binomial``
    and the second n - X. Three or more ways call ``multinomial``.
    """
    seeds = forest.seed_entries()
    s = int(seeds.size)
    # a count is at most s times the recruit counts on the path from its seed, each at most k_max
    most = s * int(forest.out_degree().max(initial=1)) ** int(forest.wave.max(initial=0))
    counts = np.zeros((forest.n, size), dtype=np.min_scalar_type(min(most, 2**63)))
    if seed_mode == "with_replacement" and s == 2:
        first = _half_binomial(rng, np.full(size, 2))
        counts[seeds] = first, 2 - first
    elif seed_mode == "with_replacement" and s > 2:
        counts[seeds] = rng.multinomial(s, np.full(s, 1.0 / s), size=size).T
    else:
        # a lone seed drawn with replacement is drawn once: a one-category
        # multinomial uses no randomness, like the k == 1 copy below
        counts[seeds] = 1
    rows = max(1, MC_CHUNK // size)
    for recruiters, recruits in forest.recruiter_groups():
        k = recruits.shape[1]
        if k == 1:
            counts[recruits[:, 0]] = counts[recruiters]
            continue
        for i in range(0, recruiters.size, rows):
            kids = recruits[i : i + rows]
            # trial (j, b) splits recruiter j's k * count draws over its k recruits
            trials = counts[recruiters[i : i + rows]].astype(np.int64)
            trials *= k
            if k == 2:
                first = _half_binomial(rng, trials)
                counts[kids[:, 0]] = first
                trials -= first
                counts[kids[:, 1]] = trials
            else:
                draws = rng.multinomial(trials, np.full(k, 1.0 / k))  # (rows, size, k)
                counts[kids] = draws.transpose(0, 2, 1)
    return counts.T


def tree_resample(
    forest: RecruitmentForest, z, rng: RngStream, seed_mode: str = "with_replacement"
) -> WeightedSample:
    """One tree bootstrap sample: every drawn occurrence, seeds included."""
    _check_option("tree seed mode", seed_mode, SEED_MODES)
    z = _as_z(z, forest.n)
    if forest.n == 0:
        raise DataError("empty forest")
    counts = _tree_counts(forest, seed_mode, rng, 1)[0].astype(np.int64)
    picked = np.flatnonzero(counts)
    return WeightedSample(z[picked], forest.degree[picked], counts[picked])


def _counts(forest: RecruitmentForest, cfg: BootstrapConfig, rng: RngStream, size: int) -> np.ndarray:
    """The configured method's unsigned count matrix for ``size`` replicates, shape (size, p)."""
    if cfg.method == "neighbourhood":
        return _nb_counts(forest, cfg.selection_pool, rng, size)[0]
    return _tree_counts(forest, cfg.tree_seed_mode, rng, size)


def _replicate_terms(
    forest: RecruitmentForest, cfg: BootstrapConfig, totals, cols: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Float64 (numerator per column, shared denominator) terms of the count matrix's columns.

    A replicate with counts c estimates (c @ num) / (c @ den). The columns
    are the forest entries for the tree method and the pool members for the
    neighbourhood method, where each member carries the summed terms of its
    recruits. The terms are the estimator's integer terms
    (``estimators._degree_terms``), all divided by one power of two that
    brings the largest below 2**960, so they and every replicate sum stay
    finite; an integer term below 2**53 stays exact either way.
    """
    inverse, a, b = _degree_terms(forest.degree, cfg.estimator, totals)
    scale = 1 << max(0, max((x.bit_length() for x in a + b), default=0) - 960)
    a = np.array([x / scale for x in a], dtype=np.float64)[inverse]
    den = np.array([x / scale for x in b], dtype=np.float64)[inverse]
    nums = {name: zc * a for name, zc in cols.items()}
    if cfg.method == "neighbourhood":
        pool_entries, _ = _nb_pool(forest, cfg.selection_pool)
        recruits, slot = _recruit_slots(forest, pool_entries)

        def pooled(t: np.ndarray) -> np.ndarray:
            return np.bincount(slot, weights=t[recruits], minlength=pool_entries.size)

        nums = {name: pooled(t) for name, t in nums.items()}
        den = pooled(den)
    return nums, den


def bootstrap_distributions(
    forest: RecruitmentForest,
    cfg: BootstrapConfig,
    columns: dict[str, np.ndarray],
    totals: PopulationTotals | None = None,
    root: int | np.random.SeedSequence = 0,
) -> dict[str, BootstrapDistribution]:
    """Bootstrap distributions for several attribute columns at once.

    One resample per replicate serves every column: the drawn node multiset
    is attribute-agnostic. Replicate b is row b % BLOCK of the block drawn
    from substream (root, b // BLOCK).
    """
    cols = {name: _as_z(zc, forest.n) for name, zc in columns.items()}
    nums, den = _replicate_terms(forest, cfg, totals, cols)
    B = cfg.n_replicates
    est = {name: np.empty(B) for name in cols}
    # one C-ordered float64 copy of a block's counts serves every product: the
    # buffer numpy would make for each one, refilled block by block
    counts = np.empty((BLOCK, den.size))
    for k in range(-(-B // BLOCK)):
        np.copyto(counts, _counts(forest, cfg, generator(root, k), BLOCK))
        lo, hi = k * BLOCK, min(B, (k + 1) * BLOCK)
        # evaluate the full block, so that no replicate depends on B
        den_sums = counts @ den
        for name, num in nums.items():
            est[name][lo:hi] = ((counts @ num) / den_sums)[: hi - lo]
    points = _estimate(forest.degree, 1, cols.values(), cfg.estimator, totals)
    return {name: BootstrapDistribution(est[name], point) for name, point in zip(cols, points)}


def bootstrap_distribution(
    forest: RecruitmentForest,
    cfg: BootstrapConfig,
    z,
    totals: PopulationTotals | None = None,
    root: int | np.random.SeedSequence = 0,
) -> BootstrapDistribution:
    """Bootstrap distribution of the configured estimator for one attribute."""
    return bootstrap_distributions(forest, cfg, {"z": z}, totals, root)["z"]


def _nearest_ranks(n: int, level: float) -> tuple[int, int]:
    """Nearest ranks ceil(q * n), clamped to [1, n], of the (alpha/2, 1 - alpha/2) quantiles, alpha = 1 - level.

    The level is its shortest decimal p / d (0.95 as 95/100), so q = (d -+ p) / 2d is exact.
    """
    p, d = Fraction(repr(float(level))).as_integer_ratio()
    lo, hi = (min(max(-(-(d + s * p) * n // (2 * d)), 1), n) for s in (-1, 1))
    return lo, hi


def nearest_rank_bounds(values: np.ndarray, level: float) -> tuple[float, float]:
    """Nearest-rank (alpha/2, 1 - alpha/2) quantiles of ``values``, alpha = 1 - level (see ``_nearest_ranks``)."""
    ordered = np.sort(values)
    lo, hi = _nearest_ranks(values.shape[0], level)
    return float(ordered[lo - 1]), float(ordered[hi - 1])


def _check_level(level: float) -> None:
    """Raise ``DataError`` unless the confidence ``level`` lies strictly between 0 and 1."""
    if not (0.0 < level < 1.0):
        raise DataError(f"confidence level must be in (0, 1), got {level!r}")


def percentile_ci(dist: BootstrapDistribution, level: float) -> tuple[float, float]:
    """Nearest-rank percentile interval at the given coverage level."""
    _check_level(level)
    if dist.n_replicates < 2:
        raise DataError("need at least 2 bootstrap estimates")
    return nearest_rank_bounds(dist.estimates, level)


def bootstrap_variance(dist: BootstrapDistribution) -> float:
    """Unbiased sample variance (divisor B-1) of the bootstrap estimates."""
    B = dist.n_replicates
    if B < 2:
        raise DataError("need at least 2 bootstrap estimates")
    est = dist.estimates
    mean = math.fsum(est.tolist()) / B
    # Python's ** 2, not numpy's d * d, which rounds differently in a few squares
    return math.fsum([d**2 for d in (est - mean).tolist()]) / (B - 1)


@dataclass(frozen=True)
class MonteCarloMoments:
    """Monte Carlo estimate of bootstrap mean/variance with standard errors."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    n_replicates: int


def _pack_radix(terms: np.ndarray, n_r: int) -> int:
    """The power of two 2**s > n_r * max(num) that packs integer (den, num) terms as den * 2**s + num, or 0.

    It is 0 where a term is not a non-negative integer or a packed sum of
    n_r terms could reach 2**53. Below that every partial sum is an exact
    integer in any order, and a sum S splits exactly into floor(S / 2**s)
    = the den sum and S minus that times 2**s = the num sum.
    """
    if terms.min() < 0 or not terms.max() < 2**53 or (terms != np.floor(terms)).any():
        return 0
    top_den, top_num = (int(t.max()) for t in terms)
    radix = 1 << (n_r * top_num).bit_length()
    return radix if n_r * (top_den * radix + top_num) < 2**53 else 0


def mc_bootstrap_moments(
    forest: RecruitmentForest,
    z,
    method: str,
    estimator: str,
    B: int,
    rng: RngStream,
    pool: str = "recruiters_only",
    seed_mode: str = "with_replacement",
    totals: PopulationTotals | None = None,
) -> MonteCarloMoments:
    """Vectorized Monte Carlo moments of a bootstrap estimator.

    Draws the B replicates from the single supplied stream as consecutive
    kernel calls of at most ``MC_CHUNK`` replicates each, and evaluates
    the same estimator formulas through matrix products. Each run is
    reduced at once to one float64 estimate per replicate, so the memory
    grows with B by those B floats alone. Intended for cross-checking
    against exhaustive enumeration and as the fallback its budget error
    advises. The options are checked as ``BootstrapConfig`` checks them,
    B >= 2 included.
    """
    cfg = BootstrapConfig(method, B, pool, seed_mode, estimator)
    nums, den = _replicate_terms(forest, cfg, totals, {"z": _as_z(z, forest.n)})
    terms = np.stack([den, nums["z"]])
    n_r = _nb_pool(forest, pool)[1] if cfg.method == "neighbourhood" else 0
    # where the terms pack, summing the drawn members' packed terms gives the
    # count product's bits: one bounded draw stands for g pool slots, and one
    # gather of a table of their packed sums serves den and num
    radix = _pack_radix(terms, n_r) if n_r else 0
    if radix:
        g = _group_width(den.size, n_r)
        table = _digit_sums(terms[0] * radix + terms[1], g, n_r)
        ones = np.ones(-(-n_r // g))
    est = np.empty(B)
    for lo in range(0, B, MC_CHUNK):
        size = min(MC_CHUNK, B - lo)
        if radix:
            sums = np.take(table, _nb_draws(forest, pool, rng, size, g)[0]) @ ones
            den_sums = np.floor(sums / radix)
            num_sums = sums - den_sums * radix
        else:
            # a run's float64 copy is made after its draws and freed before the next run's
            den_sums, num_sums = terms @ _counts(forest, cfg, rng, size).T.astype(np.float64)
        np.divide(num_sums, den_sums, out=est[lo : lo + size])
    # the moments are taken in place in the estimates
    mean = float(est.mean())
    est -= mean  # centred
    variance = float((est @ est) / (B - 1))
    est *= est  # centred**4 as two squarings: ** 4 calls pow per element
    est *= est
    m4 = float(est.mean())
    se_mean = math.sqrt(variance / B)
    se_variance = math.sqrt(max(m4 - variance**2, 0.0) / B)
    return MonteCarloMoments(mean, variance, se_mean, se_variance, B)
