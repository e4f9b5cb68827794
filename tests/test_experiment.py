import gc
import hashlib
import json
import math
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import rdsvar as rv
from rdsvar import experiment
from rdsvar.errors import BudgetError, DataError
from rdsvar.experiment import _make_run, _quantile_width, _row_dtype, _width_forest
from rdsvar.rng import generator, substream


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
    # the draws revision these digests were taken at: a change of a number
    # at a fixed seed changes the digests and bumps it
    assert rep.to_json_dict()["tool"] == {"name": "rdsvar", "version": rv.__version__, "draws": 3}
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "dfc0fe710493a7798a59f6f7138b939b9b2c93c56e1ead015f71b620dda5d08f"
    )
    assert hashlib.sha256(json_text.encode()).hexdigest() == (
        "10fad754ebe51dba40ec2de41cdac893066079f21005102fdc5ee5fb81e80c94"
    )


def _width_forests_equal_vh_estimate(g, attrs, design, n_forests):
    cfg = rv.ExperimentConfig(
        design=design, attributes=tuple(attrs.column_names), n_replications=2, n_bootstrap=2,
        master_seed=778, n_width_reference=100,
    )
    run = _make_run(g, attrs, cfg)
    for j in range(n_forests):
        forest = rv.simulate_rds(g, design, generator(cfg.master_seed, 1, j))
        one = np.ones(forest.n, dtype=np.int64)
        expected = tuple(
            rv.vh_estimate(rv.WeightedSample(attrs.column(a)[forest.node_index], forest.degree, one))
            for a in cfg.attributes
        )
        assert _width_forest(run, j) == expected, j


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
    # no process is started: a fake child runs its target in this process,
    # where it claims every unit and sends its message
    g, attrs = small_world
    started = []

    class FakeProcess:
        exitcode = None

        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self)
            self.target(*self.args)

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

    def dies_in_a_child(run, index):
        if os.getpid() != test_pid:
            os._exit(1)
        time.sleep(0.005)  # leaves the child time to claim a forest
        return width_forest(run, index)

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


def test_concurrent_calls_give_their_serial_reports(small_world):
    # run_full keeps no state between calls: two threads that run different
    # configs at once each get the report a call alone gives
    g, attrs = small_world
    base = dict(design=design_for(g), n_replications=4, n_bootstrap=10, n_width_reference=100)
    configs = [
        rv.ExperimentConfig(attributes=("always", "coin"), master_seed=23, **base),
        rv.ExperimentConfig(attributes=("coin",), master_seed=24, methods=("tree",), **base),
    ]
    serial = [rv.run_full(cfg, g, attrs).to_csv_text() for cfg in configs]

    def hung(signum, frame):
        raise TimeoutError("concurrent run_full calls did not finish")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        for _ in range(4):
            out = [None, None]
            start = threading.Barrier(2)

            def call(k):
                start.wait()
                try:
                    out[k] = rv.run_full(configs[k], g, attrs).to_csv_text()
                except Exception as exc:
                    out[k] = exc

            threads = [threading.Thread(target=call, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert out == serial
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_graph_outlives_the_call(workers):
    g = rv.generate_configuration_graph(80, rv.PowerLawDegree(2.2, 2, 10), np.random.default_rng(41))
    g = rv.largest_connected_component(g)
    attrs = rv.AttributeTable(["coin"], np.random.default_rng(42).integers(0, 2, size=(g.n_nodes, 1)))
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("coin",), n_replications=2, n_bootstrap=4,
        master_seed=29, n_width_reference=100,
    )
    rv.run_full(cfg, g, attrs, workers=workers)
    graph = weakref.ref(g)
    del g
    gc.collect()
    assert graph() is None


def test_a_table_of_another_size_is_a_data_error_before_any_draw(small_world, monkeypatch):
    g, attrs = small_world

    def draws(*args, **kwargs):
        raise AssertionError("run_full drew a forest")

    monkeypatch.setattr(experiment, "simulate_rds", draws)
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("coin",), n_replications=2, n_bootstrap=4,
        master_seed=31, n_width_reference=100,
    )
    for values in (attrs.values[:-3], np.vstack([attrs.values, attrs.values[:2]])):
        with pytest.raises(DataError, match="attribute table does not match graph"):
            rv.run_full(cfg, g, rv.AttributeTable(attrs.column_names, values))


def test_starved_replications_are_left_out_of_the_report(small_world, monkeypatch):
    # replications 1 and 4 starve (their forests are refused by substream);
    # the report reduces the other four rows, the same at any worker count
    g, attrs = small_world
    cfg = rv.ExperimentConfig(
        design=design_for(g), attributes=("always", "coin"), n_replications=6, n_bootstrap=12,
        master_seed=11, n_width_reference=100,
    )
    starved = {1, 4}
    refused = [generator(substream(cfg.master_seed, 0, i), 0).bit_generator.state for i in starved]
    simulate_rds = experiment.simulate_rds

    def starves(graph, design, rng):
        if rng.bit_generator.state in refused:
            raise BudgetError("sample starved")
        return simulate_rds(graph, design, rng)

    monkeypatch.setattr(experiment, "simulate_rds", starves)
    serial = rv.run_full(cfg, g, attrs, workers=1)
    parallel = rv.run_full(cfg, g, attrs, workers=2)
    assert serial.to_csv_text() == parallel.to_csv_text()
    assert serial.to_json_dict() == parallel.to_json_dict()
    assert serial.diagnostics["completed_replications"] == 6 - len(starved)
    assert serial.diagnostics["excluded_starved"] == len(starved)
    run = _make_run(g, attrs, cfg)
    rows = np.full(cfg.n_replications, np.nan, dtype=_row_dtype(cfg))
    for i in range(cfg.n_replications):
        assert experiment._replication(run, i, rows[i]) == (i not in starved)
    # a completed replication writes every declared field and a starved one
    # none, so the truncation count alone marks a starved row
    for name in rows.dtype.names:
        nan = np.isnan(rows[name]).reshape(len(rows), -1)
        assert nan.all(1).tolist() == nan.any(1).tolist() == [i in starved for i in range(len(rows))], name
    widths = np.array([_width_forest(run, j) for j in range(cfg.n_width_reference)])
    expected = experiment._reduce(run, rows[~np.isnan(rows["truncated"])], len(starved), widths)
    assert serial.to_json_dict() == expected.to_json_dict()
    assert serial.to_csv_text() == expected.to_csv_text()


def test_run_full_holds_less_than_a_row_per_replication():
    # the rows sit in the run's one mapped buffer; whatever else run_full
    # allocates grows by less than a row's floats per replication (holding
    # each row as its own array, as a result tuple, a list and a dict did,
    # grew by about three rows)
    g, attrs = rv.make_study_population(200, 5)
    design = rv.RdsDesign(3, 3, (1 / 3, 1 / 6, 1 / 6, 1 / 3), 20)

    def config(R, attributes=tuple(attrs.column_names), **options):
        return rv.ExperimentConfig(
            design=design, attributes=attributes, n_replications=R, n_bootstrap=2,
            master_seed=7, n_width_reference=100, **options,
        )

    def peak(R):
        tracemalloc.start()
        try:
            rv.run_full(config(R), g, attrs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a row holds A (1 + M (1 + 2 L)) + 2 floats, the width the --R cap counts
    shapes = [(1, ("tree",), (0.9,)), (2, ("neighbourhood", "tree"), (0.5, 0.8, 0.95)), (5, ("neighbourhood",), (0.8,))]
    for A, methods, levels in shapes:
        floats = A * (1 + len(methods) * (1 + 2 * len(levels))) + 2
        layout = _row_dtype(config(2, tuple(attrs.column_names[:A]), methods=methods, ci_levels=levels))
        assert layout.itemsize == 8 * floats, (A, methods, levels)
    row_bytes = _row_dtype(config(2)).itemsize
    assert row_bytes == 8 * 57  # 5 columns, 2 methods, 2 levels
    # a first run at the larger R fills the interpreter's free lists, and no
    # collection empties them between the two measured runs
    rv.run_full(config(400), g, attrs)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        growth = (peak(400) - peak(100)) / 300
    finally:
        if was_enabled:
            gc.enable()
    assert growth < row_bytes, growth


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
    for seed in (-1, 1.5, "1", None):
        with pytest.raises(DataError, match="master seed must be a non-negative integer"):
            rv.ExperimentConfig(design=design_for(g), attributes=("x",), n_replications=5, n_bootstrap=5, master_seed=seed)


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
