"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Every test prints a single line `ACCEPTANCE <k>: PASS|FAIL <summary>`
(visible with `pytest -s` or in captured output on failure). The desk-scale
evaluation runs on a synthetic 4000-node power-law population with five
planted binary attributes, since the real network file used for the
published numbers is not redistributable; pattern thresholds scale
accordingly (>= 4 of 5 where the full data asks >= 10 of 12).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import rdsvar as rv
from rdsvar.exact import _balanced_sample_mean_moments
from rdsvar.rng import generator
from rdsvar.synth import plant_attributes, synthetic_population
from conftest import balanced_forest, random_tiny_forest

POP_SEED = 20250810
MASTER_56 = 777
MASTER_7 = 778
PMF = (1 / 3, 1 / 6, 1 / 6, 1 / 3)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1234)
    forests = []
    while len(forests) < 20:
        forest, z = random_tiny_forest(rng)
        if forest.out_degree().max(initial=0) >= 1:
            forests.append((forest, z))
    B = 100_000
    worst = 0.0
    checks = 0
    for idx, (forest, z) in enumerate(forests):
        for method, enum in (
            ("neighbourhood", rv.enumerate_neighbourhood),
            ("tree", rv.enumerate_tree),
        ):
            for estimator in ("sample_mean", "vh"):
                exact = enum(forest, z, estimator=estimator)
                mm = rv.mc_bootstrap_moments(
                    forest, z, method, estimator, B, generator(5000 + idx)
                )
                dev_mean = abs(mm.mean - exact.mean_float) / (3 * mm.se_mean + 1e-12)
                dev_var = abs(mm.variance - exact.variance_float) / (3 * mm.se_variance + 1e-12)
                worst = max(worst, dev_mean, dev_var)
                checks += 1
    elapsed = time.time() - t0
    ok = worst < 1.0 and elapsed < 120.0
    report(
        1,
        ok,
        f"(oracle equivalence) {checks} moment checks over {len(forests)} forests, "
        f"worst |dev|/3SE = {worst:.3f}, {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_balanced_expectation_identity():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    cases = nb_closed = tree_closed = 0
    for s in (1, 2):
        for h in (1, 2):
            n = s * (2 ** (h + 1) - 1)
            for _ in range(3):
                f = balanced_forest(s, 2, h, degrees=rng.integers(1, 9, size=n))
                z = rng.integers(0, 2, size=n)
                diff = rv.check_moment_identity(f, z)["exact_diff"]
                worst = max(worst, abs(float(Fraction(diff["neighbourhood_mean_enumerated_minus_non_seed_mean"]))))
                nb_closed += diff["neighbourhood_mean_enumerated_minus_closed_form"] == "0" and (
                    diff["neighbourhood_variance_enumerated_minus_closed_form"] == "0"
                )
                for mode in ("with_replacement", "without_replacement"):
                    tree = rv.enumerate_tree(f, z, seed_mode=mode)
                    tree_closed += _balanced_sample_mean_moments(f, z, "tree", mode) == (tree.mean, tree.variance)
                cases += 1
    elapsed = time.time() - t0
    ok = worst < 1e-12 and nb_closed == cases and tree_closed == 2 * cases and elapsed < 1.0
    report(
        2,
        ok,
        f"(balanced expectation) {cases} balanced forests, max |E* - nonseed mean| = "
        f"{worst:.2e} (< 1e-12); closed form == enumeration in mean and variance: neighbourhood "
        f"{nb_closed}/{cases}, tree {tree_closed}/{2 * cases} (both seed modes); {elapsed:.2f}s (< 1s)",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_estimator_sanity_regular_graph():
    g = rv.generate_configuration_graph(60, rv.FixedDegree(4), np.random.default_rng(8))
    g = rv.largest_connected_component(g)
    rng = np.random.default_rng(40)
    z_pop = rng.integers(0, 2, size=g.n_nodes).astype(float)
    totals = rv.PopulationTotals(g.n_nodes, g.total_degree)
    design = rv.RdsDesign(3, 3, PMF, 30)
    exact_all = True
    for seed in range(25):
        f = rv.simulate_rds(g, design, generator(seed))
        ws = rv.WeightedSample(z_pop[f.node_index], f.degree, np.ones(f.n, dtype=np.int64))
        vh = rv.vh_estimate(ws)
        ipw = rv.ipw_estimate(ws, totals)
        mean = rv.sample_mean(ws)
        exact_all &= vh == ipw == mean
        for k in (2, 10, 1000):
            scaled = rv.WeightedSample(ws.z, ws.degree * k, ws.multiplicity)
            exact_all &= rv.vh_estimate(scaled) == vh
    report(
        3,
        exact_all,
        "(estimator sanity) VH == IPW == sample mean exactly on 25 regular-graph forests; "
        "VH exactly invariant to degree scales {2, 10, 1000}",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_walk_regime_unbiasedness():
    t0 = time.time()
    g = synthetic_population(200, generator(1003, 0), d_max=20)
    attrs = plant_attributes(g, generator(1003, 1))
    design = rv.RdsDesign(
        n_seeds=20, max_coupons=1, recruit_count_pmf=(0.0, 1.0), target_n=400,
        regime="with_replacement_walk",
    )
    cols = ("mix_half", "mix_third")
    mus = {a: rv.true_proportion(g, attrs, a) for a in cols}
    zs = {a: attrs.column(a).astype(float) for a in cols}
    R = 10_000
    est = {a: np.empty(R) for a in cols}
    for i in range(R):
        f = rv.simulate_rds(g, design, generator(424242, 0, i))
        one = np.ones(f.n, dtype=np.int64)
        for a in cols:
            est[a][i] = rv.vh_estimate(rv.WeightedSample(zs[a][f.node_index], f.degree, one))
    elapsed = time.time() - t0
    ratios = {}
    for a in cols:
        se = est[a].std(ddof=1) / math.sqrt(R)
        ratios[a] = abs(est[a].mean() - mus[a]) / se
    ok = all(r < 3.0 for r in ratios.values()) and elapsed < 60.0
    detail = ", ".join(f"{a}: |bias|/SE = {r:.2f}" for a, r in ratios.items())
    report(4, ok, f"(walk unbiasedness) {detail} (< 3), {elapsed:.1f}s (< 60s)")


# ------------------------------------------------------- criteria 5-8 fixtures


@pytest.fixture(scope="module")
def population():
    return rv.make_study_population(4000, seed=POP_SEED)


@pytest.fixture(scope="module")
def desk_runs(population):
    """Both evaluation configs, each at two worker counts (for criterion 8)."""
    g, attrs = population
    cfg5 = rv.ExperimentConfig(
        design=rv.RdsDesign(10, 3, PMF, 500),
        attributes=tuple(attrs.column_names),
        n_replications=200,
        n_bootstrap=200,
        master_seed=MASTER_56,
        n_width_reference=1000,
    )
    cfg7 = rv.ExperimentConfig(
        design=rv.RdsDesign(10, 3, PMF, 1000),
        attributes=tuple(attrs.column_names),
        n_replications=300,
        n_bootstrap=500,
        master_seed=MASTER_7,
        n_width_reference=1000,
    )
    out = {}
    for name, cfg, budget in (("n500", cfg5, 1800.0), ("n1000", cfg7, 3600.0)):
        t0 = time.time()
        rep_w1 = rv.run_full(cfg, g, attrs, workers=1)
        elapsed = time.time() - t0
        rep_w2 = rv.run_full(cfg, g, attrs, workers=2)
        out[name] = {
            "w1": rep_w1,
            "w2": rep_w2,
            "elapsed": elapsed,
            "budget": budget,
        }
    return out


def rows95(report_obj):
    return {
        (r.attribute, r.method): r
        for r in report_obj.rows
        if abs(r.level - 0.95) < 1e-9
    }


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_variance_bias_direction(desk_runs):
    run = desk_runs["n500"]
    rows = rows95(run["w1"])
    attrs = sorted({a for a, _ in rows})
    tree_pos = [rows[(a, "tree")].rel_bias > 0 for a in attrs]
    nb_smaller = [
        abs(rows[(a, "neighbourhood")].rel_bias) < rows[(a, "tree")].rel_bias for a in attrs
    ]
    ok = all(tree_pos) and sum(nb_smaller) >= 4 and run["elapsed"] < run["budget"]
    report(
        5,
        ok,
        f"(variance-bias direction, n=500) tree RB > 0 for {sum(tree_pos)}/5 attributes, "
        f"|nb RB| < tree RB for {sum(nb_smaller)}/5 (need >= 4), "
        f"{run['elapsed']:.0f}s (< {run['budget']:.0f}s)",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_width_ordering(desk_runs):
    rows = rows95(desk_runs["n500"]["w1"])
    attrs = sorted({a for a, _ in rows})
    order = [rows[(a, "tree")].mean_width > rows[(a, "neighbourhood")].mean_width for a in attrs]
    closer = [
        abs(rows[(a, "neighbourhood")].mean_width - rows[(a, "neighbourhood")].expected_width)
        < abs(rows[(a, "tree")].mean_width - rows[(a, "tree")].expected_width)
        for a in attrs
    ]
    ok = all(order) and sum(closer) >= 4
    report(
        6,
        ok,
        f"(width ordering, n=500) tree width > nb width for {sum(order)}/5 attributes, "
        f"nb width closer to expected for {sum(closer)}/5 (need >= 4)",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_coverage_trend(desk_runs):
    run = desk_runs["n1000"]
    rows = rows95(run["w1"])
    attrs = sorted({a for a, _ in rows})
    in_range = [0.90 <= rows[(a, "neighbourhood")].coverage <= 0.98 for a in attrs]
    closer = [
        abs(rows[(a, "neighbourhood")].coverage - 0.95)
        <= abs(rows[(a, "tree")].coverage - 0.95)
        for a in attrs
    ]
    covs = [rows[(a, "neighbourhood")].coverage for a in attrs]
    n_reps = run["w1"].diagnostics["completed_replications"]
    # each coverage is a proportion over the replications: its binomial SE
    shown = ", ".join(f"{c:.3f} (SE {math.sqrt(c * (1 - c) / n_reps):.3f})" for c in covs)
    ok = all(in_range) and sum(closer) > len(attrs) / 2 and run["elapsed"] < run["budget"]
    report(
        7,
        ok,
        f"(coverage trend, n=1000) nb coverage [{shown}] all in [0.90, 0.98]: {sum(in_range)}/5, "
        f"nb closer to 0.95 for {sum(closer)}/5 (need majority), "
        f"{run['elapsed']:.0f}s (< {run['budget']:.0f}s)",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_worker_determinism(desk_runs):
    same5 = desk_runs["n500"]["w1"].to_csv_text() == desk_runs["n500"]["w2"].to_csv_text()
    same7 = desk_runs["n1000"]["w1"].to_csv_text() == desk_runs["n1000"]["w2"].to_csv_text()
    ok = same5 and same7
    report(
        8,
        ok,
        f"(determinism) report CSVs byte-identical across worker counts: "
        f"n=500 {same5}, n=1000 {same7}",
    )
