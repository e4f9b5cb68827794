import hashlib
import json
import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import rdsvar as rv
from rdsvar import experiment
from rdsvar.errors import BudgetError, DataError
from rdsvar.experiment import _init_worker, _quantile_width, _width_forest
from rdsvar.rng import generator


@pytest.fixture(scope="module")
def small_world():
    g = rv.generate_configuration_graph(60, rv.PowerLawDegree(2.2, 2, 10), np.random.default_rng(31))
    g = rv.largest_connected_component(g)
    rng = np.random.default_rng(8)
    cols = {
        "always": np.ones(g.n_nodes, dtype=np.uint8),
        "coin": rng.integers(0, 2, size=g.n_nodes).astype(np.uint8),
    }
    attrs = rv.AttributeTable(list(cols), np.column_stack(list(cols.values())))
    return g, attrs


def design_for(g, n=25, seeds=3):
    return rv.RdsDesign(n_seeds=seeds, max_coupons=3, recruit_count_pmf=(1 / 3, 1 / 6, 1 / 6, 1 / 3), target_n=n)


def test_true_proportion_basics(small_world):
    g, attrs = small_world
    assert rv.true_proportion(g, attrs, "always") == 1.0
    coin = attrs.column("coin")
    assert rv.true_proportion(g, attrs, "coin") == coin.sum() / g.n_nodes
    with pytest.raises(DataError):
        rv.true_proportion(g, attrs, "nope")


def test_quantile_width_constructed_distribution():
    est = np.concatenate([np.full(2500, 0.4), np.full(2500, 0.6)])
    assert _quantile_width(est, 0.95) == pytest.approx(0.2)
    assert _quantile_width(np.full(100, 0.3), 0.95) == 0.0


def test_relative_bias_formula_identity(small_world):
    # rel_bias stored exactly as (mean_var - mse) / mse
    g, attrs = small_world
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("coin",), n_replications=4, n_bootstrap=20,
        master_seed=5, methods=("neighbourhood",), ci_levels=(0.95,), n_width_reference=100,
    )
    rep = rv.run_full(cfg, g, attrs)
    (row,) = rep.rows
    assert row.rel_bias == (row.mean_boot_var - row.mse) / row.mse


def test_degenerate_attribute_full_coverage(small_world):
    g, attrs = small_world
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("always",), n_replications=3, n_bootstrap=10,
        master_seed=7, methods=("neighbourhood", "tree"), ci_levels=(0.95,), n_width_reference=100,
    )
    rep = rv.run_full(cfg, g, attrs)
    for row in rep.rows:
        assert row.coverage == 1.0
        assert row.mean_width == 0.0
        assert row.expected_width == 0.0
        assert row.mse == 0.0
        assert row.rel_bias is None  # undefined marker


def test_smoke_report_shape(small_world):
    g, attrs = small_world
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("always", "coin"), n_replications=2, n_bootstrap=2,
        master_seed=1, n_width_reference=100,
    )
    rep = rv.run_full(cfg, g, attrs)
    assert len(rep.rows) == 2 * 2 * 2  # attrs x methods x levels
    text = rep.to_csv_text()
    header = text.splitlines()[0].split(",")
    # the columns the README documents
    assert header == [
        "attribute", "method", "level", "coverage", "mean_width", "expected_width", "mean_boot_var", "mse", "rel_bias"
    ]
    assert len(text.splitlines()) == 1 + len(rep.rows)
    for row in rep.rows:
        assert 0.0 <= row.coverage <= 1.0
        assert row.mean_width >= 0.0
        assert row.mse >= 0.0


def test_coverage_counts_closed_interval(small_world):
    g, attrs = small_world
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("always",), n_replications=2, n_bootstrap=5,
        master_seed=3, methods=("tree",), ci_levels=(0.5,), n_width_reference=100,
    )
    rep = rv.run_full(cfg, g, attrs)
    # degenerate CIs [1,1] contain mu=1 exactly: closed-interval rule
    assert rep.rows[0].coverage == 1.0


def test_worker_determinism(small_world):
    g, attrs = small_world
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("coin",), n_replications=6, n_bootstrap=12,
        master_seed=11, n_width_reference=100,
    )
    serial = rv.run_full(cfg, g, attrs, workers=1)
    parallel = rv.run_full(cfg, g, attrs, workers=3)
    assert multiprocessing.active_children() == []  # no child outlives a run that returns
    assert serial.to_csv_text() == parallel.to_csv_text()
    assert serial.to_json_dict() == parallel.to_json_dict()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_full_bytes_are_pinned(small_world, workers):
    # the digests of the report CSV and of the report JSON as the CLI writes
    # it; a change that keeps the numbers keeps them at any worker count
    g, attrs = small_world
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("always", "coin"), n_replications=6, n_bootstrap=12,
        master_seed=11, n_width_reference=100,
    )
    rep = rv.run_full(cfg, g, attrs, workers=workers)
    csv_text = rep.to_csv_text()
    json_text = json.dumps(rep.to_json_dict(), indent=2, allow_nan=False)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "2e5e351e290f9bbdf0431f775a334a96f03a582fb35bb605575a9e769c576adf"
    )
    assert hashlib.sha256(json_text.encode()).hexdigest() == (
        "d30b9e2282f3ae63624612691e04523b88b70a2fbf78f65f9b8641d924e60355"
    )


def _width_forests_equal_vh_estimate(g, attrs, design, n_forests):
    cfg = rv.ExperimentConfig(
        design=design, attributes=tuple(attrs.column_names), n_replications=2, n_bootstrap=2,
        master_seed=778, n_width_reference=100,
    )
    _init_worker(g, attrs, cfg)
    for j in range(n_forests):
        forest = rv.simulate_rds(g, design, generator(cfg.master_seed, 1, j))
        one = np.ones(forest.n, dtype=np.int64)
        expected = tuple(
            rv.vh_estimate(rv.WeightedSample(attrs.column(a)[forest.node_index], forest.degree, one))
            for a in cfg.attributes
        )
        assert _width_forest(j) == expected, j


def test_width_forests_equal_vh_estimate_on_the_study_population():
    # the width reference's per-degree counts give vh_estimate's floats on the same substreams
    g, attrs = rv.make_study_population(4000, 20250810)
    _width_forests_equal_vh_estimate(g, attrs, rv.RdsDesign(10, 3, (1 / 3, 1 / 6, 1 / 6, 1 / 3), 1000), 100)


@pytest.mark.parametrize("regime", ["without_replacement", "with_replacement_walk"])
def test_width_forests_equal_vh_estimate_past_64_bit_degree_terms(regime):
    # the terms are put over the lcm of the graph's distinct degrees, here past 2**64;
    # the walk regime draws some nodes more than once
    g = rv.generate_configuration_graph(600, rv.PowerLawDegree(1.2, 1, 120), np.random.default_rng(9))
    g = rv.largest_connected_component(g)
    assert math.lcm(*np.unique(g.degree).tolist()) > 2**64
    rng = np.random.default_rng(10)
    attrs = rv.AttributeTable(["a", "b"], rng.integers(0, 2, size=(g.n_nodes, 2)))
    _width_forests_equal_vh_estimate(g, attrs, rv.RdsDesign(5, 3, (0.1, 0.3, 0.3, 0.3), 300, regime), 40)


def test_expected_width_op(small_world):
    g, attrs = small_world
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("coin",), n_replications=2, n_bootstrap=2,
        master_seed=13, n_width_reference=150,
    )
    rep = rv.run_full(cfg, g, attrs)
    for method in cfg.methods:
        width = {r.level: r.expected_width for r in rep.rows if r.method == method}
        assert 0.0 <= width[0.80] <= width[0.95] <= 1.0


def test_children_are_bounded_by_usable_cpus(small_world, monkeypatch):
    # no process is started: the fake children run nothing, so this process
    # claims every unit itself
    g, attrs = small_world
    started = []

    class FakeProcess:
        exitcode = None

        def __init__(self, target, args):
            pass

        def start(self):
            started.append(self)

        def kill(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", FakeProcess)
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("coin",), n_replications=3, n_bootstrap=4,
        master_seed=17, n_width_reference=100,
    )
    rep = rv.run_full(cfg, g, attrs, workers=64)
    assert len(started) == 1  # min(workers, usable CPUs) working processes, this one among them
    assert rep.to_json_dict() == rv.run_full(cfg, g, attrs, workers=1).to_json_dict()


def test_without_fork_the_units_run_in_this_process(small_world, monkeypatch):
    # where fork does not exist (Windows), workers > 1 starts no process and
    # writes the same bytes
    g, attrs = small_world

    def no_context(method=None):
        raise AssertionError("asked for a multiprocessing context")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", no_context)
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("coin",), n_replications=3, n_bootstrap=4,
        master_seed=17, n_width_reference=100,
    )
    rep = rv.run_full(cfg, g, attrs, workers=2)
    assert rep.to_csv_text() == rv.run_full(cfg, g, attrs, workers=1).to_csv_text()


@pytest.mark.parametrize("master_seed", [3, 4, 5])
def test_errors_are_the_same_at_any_worker_count(master_seed):
    # width forests of this design starve; the run raises the error of the
    # lowest-index failing forest, as a serial run meets it, whichever
    # process fails first
    g, attrs = rv.make_study_population(400, 5)
    cfg = rv.ExperimentConfig(
        design=rv.RdsDesign(2, 3, (0.3, 0.2, 0.2, 0.3), 60, reseed_on_death=False),
        attributes=tuple(attrs.column_names), n_replications=6, n_bootstrap=20,
        master_seed=master_seed, n_width_reference=300,
    )
    with pytest.raises(BudgetError, match="sample starved") as serial:
        rv.run_full(cfg, g, attrs, workers=1)
    for _ in range(4):
        with pytest.raises(BudgetError) as parallel:
            rv.run_full(cfg, g, attrs, workers=2)
        assert str(parallel.value) == str(serial.value)


def test_a_child_that_dies_ends_the_run(small_world, monkeypatch):
    # a child that exits without sending its results is a BudgetError naming
    # its exit code, never a hang, and no process outlives the run
    g, attrs = small_world
    if experiment._usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    test_pid = os.getpid()
    width_forest = experiment._width_forest

    def dies_in_a_child(index):
        if os.getpid() != test_pid:
            os._exit(1)
        time.sleep(0.005)  # leaves the child time to claim a forest
        return width_forest(index)

    monkeypatch.setattr(experiment, "_width_forest", dies_in_a_child)
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("coin",), n_replications=2, n_bootstrap=4,
        master_seed=19, n_width_reference=100,
    )

    def hung(signum, frame):
        raise TimeoutError("run_full still waits on a dead child")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    t0 = time.monotonic()
    try:
        with pytest.raises(BudgetError, match="exited with code 1 before sending its results"):
            rv.run_full(cfg, g, attrs, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 10
    assert multiprocessing.active_children() == []


def test_single_resample_serves_all_attributes(small_world):
    # adding more attributes must not change an attribute's results
    g, attrs = small_world
    base = dict(
        design=design_for(g), n_replications=3, n_bootstrap=8, master_seed=21,
        methods=("neighbourhood",), ci_levels=(0.9,), n_width_reference=100,
    )
    solo = rv.run_full(rv.ExperimentConfig(attributes=("coin",), **base), g, attrs)
    both = rv.run_full(rv.ExperimentConfig(attributes=("always", "coin"), **base), g, attrs)
    solo_row = solo.rows[0]
    both_row = next(r for r in both.rows if r.attribute == "coin")
    assert solo_row == both_row


def test_all_replications_starved_raises(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("a b\nb c\n")
    g = rv.load_edge_list(p)
    design = rv.RdsDesign(
        n_seeds=1, max_coupons=1, recruit_count_pmf=(1.0, 0.0), target_n=3,
        reseed_on_death=False,
    )
    attrs = rv.AttributeTable(["x"], np.array([[1], [0], [1]], dtype=np.uint8))
    cfg = rv.ExperimentConfig(
        design=design, attributes=("x",), n_replications=3, n_bootstrap=5,
        master_seed=1, n_width_reference=100,
    )
    with pytest.raises(DataError, match=r"fewer than 2 completed replications \(3 starved\)"):
        rv.run_full(cfg, g, attrs)


def test_config_validation(small_world):
    g, _ = small_world
    with pytest.raises(DataError):
        rv.ExperimentConfig(design=design_for(g), attributes=(), n_replications=5, n_bootstrap=5, master_seed=1)
    with pytest.raises(DataError):
        rv.ExperimentConfig(
            design=design_for(g), attributes=("x",), n_replications=5, n_bootstrap=5,
            master_seed=1, ci_levels=(1.5,),
        )
    with pytest.raises(DataError):
        rv.ExperimentConfig(
            design=design_for(g), attributes=("x",), n_replications=5, n_bootstrap=5,
            master_seed=1, methods=("bogus",),
        )
    with pytest.raises(DataError, match="width reference"):
        rv.ExperimentConfig(
            design=design_for(g), attributes=("x",), n_replications=5, n_bootstrap=5,
            master_seed=1, n_width_reference=99,
        )


@pytest.mark.parametrize(
    "option, message",
    [
        pytest.param({"attributes": ("x", "y", "x")}, r"attributes must not repeat: \['x', 'y', 'x'\]", id="attributes"),
        pytest.param({"methods": ("tree", "tree")}, r"methods must not repeat: \['tree', 'tree'\]", id="methods"),
        pytest.param({"ci_levels": (0.9, 0.8, 0.90)}, r"ci levels must not repeat: \[0.9, 0.8, 0.9\]", id="ci_levels"),
    ],
)
def test_config_rejects_repeated_names(small_world, option, message):
    # a repeated name would run its work twice and write duplicate report rows
    g, _ = small_world
    base = dict(design=design_for(g), attributes=("x", "y"), n_replications=5, n_bootstrap=5, master_seed=1)
    with pytest.raises(DataError, match=message):
        rv.ExperimentConfig(**{**base, **option})
