from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rdsvar as rv
from rdsvar.errors import DataError
from rdsvar.estimators import _degree_terms, _estimate, _ratio


def ws(*pairs):
    return rv.WeightedSample.from_pairs(pairs)


def test_sample_mean_arithmetic():
    assert rv.sample_mean(ws((1, 1), (0, 1), (1, 1))) == pytest.approx(2 / 3)


def test_sample_mean_multiplicity_symmetry():
    assert rv.sample_mean(ws((1, 2, 4), (0, 5, 4))) == 0.5


def test_sample_mean_constant():
    assert rv.sample_mean(ws((1, 3), (1, 7))) == 1.0


def test_sample_mean_empty_errors():
    with pytest.raises(DataError):
        rv.sample_mean(rv.WeightedSample(np.array([]), np.array([]), np.array([])))


def test_ipw_single_observation():
    totals = rv.PopulationTotals(n_population=4, total_degree=8)
    assert rv.ipw_estimate(ws((1, 2)), totals) == 1.0


def test_ipw_equal_degrees_equals_mean():
    totals = rv.PopulationTotals(n_population=10, total_degree=30)
    sample = ws((1, 3), (0, 3), (0, 3))
    assert rv.ipw_estimate(sample, totals) == rv.sample_mean(sample)


def test_ipw_all_zero():
    totals = rv.PopulationTotals(n_population=5, total_degree=12)
    assert rv.ipw_estimate(ws((0, 3), (0, 1)), totals) == 0.0


def test_vh_worked_example():
    assert rv.vh_estimate(ws((1, 1), (0, 2), (1, 2))) == 0.75


def test_vh_equal_degrees_equals_mean_exactly():
    sample = ws((1, 3), (0, 3), (0, 3), (1, 3))
    assert rv.vh_estimate(sample) == rv.sample_mean(sample)


def test_vh_all_ones_whatever_degrees():
    assert rv.vh_estimate(ws((1, 1), (1, 7), (1, 31))) == 1.0


def test_vh_scale_invariance_exact():
    base = [(1, 3, 2), (0, 4, 1), (1, 9, 1), (0, 2, 5)]
    v0 = rv.vh_estimate(rv.WeightedSample.from_pairs(base))
    for k in (2, 10, 1000):
        scaled = [(z, d * k, m) for z, d, m in base]
        assert rv.vh_estimate(rv.WeightedSample.from_pairs(scaled)) == v0


def test_zero_degree_rejected():
    with pytest.raises(DataError):
        ws((1, 0))


@pytest.mark.parametrize("degree", [2**63, 2**64, 2.7, 0])
@pytest.mark.parametrize("build", ["WeightedSample", "RecruitmentForest"])
def test_degree_outside_int64_or_not_integral_is_data_error(build, degree):
    with pytest.raises(DataError, match=r"degree must be an integer in \[1, 2\*\*63 - 1\]"):
        if build == "WeightedSample":
            rv.WeightedSample.from_pairs([(1, degree)])
        else:
            rv.RecruitmentForest(node_id=["a"], node_index=[-1], parent=[-1], degree=[degree])


@pytest.mark.parametrize(
    "multiplicity, message",
    [
        ([1.5, 2], r"multiplicity must be an integer in \[1, 2\*\*63 - 1\], got 1.5"),
        ([2**63, 1], r"multiplicity must be an integer in \[1, 2\*\*63 - 1\]"),
        ([2**62, 2**62], r"multiplicities must sum to less than 2\*\*63"),
    ],
)
def test_multiplicity_not_integral_or_beyond_int64_is_data_error(multiplicity, message):
    with pytest.raises(DataError, match=message):
        rv.sample_mean(rv.WeightedSample([1, 0], [3, 3], multiplicity))


@st.composite
def weighted_samples(draw):
    n = draw(st.integers(1, 12))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    d = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    m = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return list(zip(z, d, m))


@settings(max_examples=80, deadline=None)
@given(rows=weighted_samples())
def test_duplication_invariance_exact(rows):
    compact = rv.WeightedSample.from_pairs(rows)
    expanded = rv.WeightedSample.from_pairs([(z, d, 1) for z, d, m in rows for _ in range(m)])
    totals = rv.PopulationTotals(50, 500)
    assert rv.sample_mean(compact) == rv.sample_mean(expanded)
    assert rv.vh_estimate(compact) == rv.vh_estimate(expanded)
    assert rv.ipw_estimate(compact, totals) == rv.ipw_estimate(expanded, totals)


def fraction_reference(rows, estimator, totals):
    """The estimator as a per-observation sum of exact fractions."""
    num = den = Fraction(0)
    for z, d, m in rows:
        if estimator == "sample_mean":
            num, den = num + m * z, den + m
        elif estimator == "vh":
            num, den = num + Fraction(m * z, d), den + Fraction(m, d)
        else:
            num, den = num + Fraction(m * z * totals.total_degree, d), den + m * totals.n_population
    return float(num / den)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 10**6), st.integers(1, 4)), min_size=1, max_size=30
    ),
    n_population=st.integers(1, 10**6),
)
@example(rows=[(1, 2**63 - 1, 2), (0, 2**63 - 2, 1), (1, 3, 1)], n_population=7)
def test_estimators_match_fraction_reference(rows, n_population):
    sample = rv.WeightedSample.from_pairs(rows)
    totals = rv.PopulationTotals(n_population, 2 * n_population)
    assert rv.sample_mean(sample) == fraction_reference(rows, "sample_mean", totals)
    assert rv.vh_estimate(sample) == fraction_reference(rows, "vh", totals)
    assert rv.ipw_estimate(sample, totals) == fraction_reference(rows, "ipw", totals)


@settings(max_examples=80, deadline=None)
@given(rows=weighted_samples())
def test_vh_bounded_ipw_nonnegative(rows):
    sample = rv.WeightedSample.from_pairs(rows)
    zs = [r[0] for r in rows]
    v = rv.vh_estimate(sample)
    assert min(zs) <= v <= max(zs)
    ipw = rv.ipw_estimate(sample, rv.PopulationTotals(100, 1000))
    assert np.isfinite(ipw) and ipw >= 0.0


def test_ipw_unbiased_under_walk_regime():
    # stationary start (degree-proportional seeds) makes each entry's
    # marginal inclusion probability proportional to degree, so the known-
    # totals weighted estimator is unbiased for the population proportion
    from rdsvar.rng import generator

    g = rv.generate_configuration_graph(60, rv.PowerLawDegree(2.3, 2, 12), np.random.default_rng(14))
    g = rv.largest_connected_component(g)
    rng = np.random.default_rng(15)
    z_pop = rng.integers(0, 2, size=g.n_nodes).astype(float)
    mu = z_pop.mean()
    totals = rv.PopulationTotals(g.n_nodes, g.total_degree)
    design = rv.RdsDesign(
        n_seeds=5, max_coupons=1, recruit_count_pmf=(0.0, 1.0), target_n=100,
        regime="with_replacement_walk",
    )
    R = 3000
    est = np.empty(R)
    for i in range(R):
        f = rv.simulate_rds(g, design, generator(606, 0, i))
        ws = rv.WeightedSample(z_pop[f.node_index], f.degree, np.ones(f.n, dtype=np.int64))
        est[i] = rv.ipw_estimate(ws, totals)
    se = est.std(ddof=1) / np.sqrt(R)
    assert abs(est.mean() - mu) < 3 * se


def test_vh_matches_estimated_inclusion_weight_form():
    # the cancelled ratio equals the textbook form with explicit estimated
    # inclusion probabilities pi_u = d_u * (mean of 1/d) / ... (factor cancels)
    rows = [(1, 2, 1), (0, 5, 1), (1, 3, 1), (1, 7, 1)]
    sample = rv.WeightedSample.from_pairs(rows)
    n = len(rows)
    harm = sum(1 / d for _, d, _ in rows) / n
    pi = {i: d * harm for i, (_, d, _) in enumerate(rows)}
    explicit = sum(z / pi[i] for i, (z, _, _) in enumerate(rows)) / sum(
        1 / pi[i] for i in range(n)
    )
    assert rv.vh_estimate(sample) == pytest.approx(explicit, abs=1e-14)


def test_columns_share_one_set_of_degree_terms():
    # the multi-column form gives each column's single-column estimate exactly
    rng = np.random.default_rng(5)
    totals = rv.PopulationTotals(500, 4000)
    one = {
        "sample_mean": rv.sample_mean,
        "vh": rv.vh_estimate,
        "ipw": lambda w: rv.ipw_estimate(w, totals),
    }
    for _ in range(50):
        n = int(rng.integers(1, 60))
        degree = rng.integers(1, 40, size=n)
        mult = rng.integers(1, 5, size=n)
        cols = [rng.integers(0, 2, size=n) for _ in range(4)]
        for name, estimate in one.items():
            expected = [estimate(rv.WeightedSample(z, degree, mult)) for z in cols]
            assert _estimate(degree, mult, cols, name, totals) == expected


def test_no_columns_give_no_estimates():
    degree = np.array([1, 2, 2, 5])
    for estimator in ("sample_mean", "vh", "ipw"):
        assert _estimate(degree, np.ones(4, dtype=np.int64), [], estimator, rv.PopulationTotals(10, 40)) == []


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 2**63 - 1) | st.integers(1, 12), st.integers(1, 2**58)),
        min_size=1,
        max_size=12,
    ),
    absent=st.lists(st.integers(1, 2**63 - 1) | st.integers(1, 12), max_size=4),
    n_population=st.integers(1, 10**6),
)
@example(rows=[(1, 2**63 - 1, 2**58), (0, 2**63 - 2, 1), (1, 3, 2**58)], absent=[5, 7], n_population=7)
def test_per_degree_reduction_equals_estimate(rows, absent, n_population):
    # the exact reduction over per-degree sums, with terms put over the lcm
    # of more degrees than the sample has, gives _estimate's floats
    totals = rv.PopulationTotals(n_population, 3 * n_population)
    den, num = {}, {}
    for z, d, m in rows:
        den[d] = den.get(d, 0) + m
        num[d] = num.get(d, 0) + m * z
    degrees = sorted(set(den) | set(absent))
    z, degree, mult = (np.array(c, dtype=dtype) for c, dtype in zip(zip(*rows), (float, np.int64, np.int64)))
    for estimator in ("sample_mean", "vh", "ipw"):
        _, a, b = _degree_terms(np.array(degrees, dtype=np.int64), estimator, totals)
        at = [k for k, d in enumerate(degrees) if d in den]
        sums = [den[degrees[k]] for k in at], [[num[degrees[k]] for k in at]]
        got = _ratio(*sums, [a[k] for k in at], [b[k] for k in at])
        assert got == _estimate(degree, mult, [z], estimator, totals), estimator
