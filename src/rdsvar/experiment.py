"""Monte Carlo evaluation harness: coverage, interval width, variance bias.

``run_full`` is the one runner. Each replication simulates one RDS sample,
computes the inverse-degree weighted point estimate per attribute, and
runs every configured bootstrap method once; a single resample per
replicate serves all attributes. The width reference is the estimator's
sampling distribution over fresh forests. A width-reference forest is
reduced to per-degree counts by one ``bincount`` over keys that each run
makes once from the graph's distinct degrees and the attributes; its
estimates are the exact ratios of those counts under the run's degree
terms, bit for bit the point estimator's floats on the forest.
Replication i draws from substream (master, 0, i) and width-reference
forest j from (master, 1, j). Both kinds of work unit go through one
index-keyed map, serial or one worker pool, that returns results in
index order, and the reduction uses exactly rounded sums, so reports are
identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import __version__
from .bootstrap import (
    METHODS,
    BootstrapConfig,
    bootstrap_distributions,
    bootstrap_variance,
    nearest_rank_bounds,
    percentile_ci,
)
from .errors import BudgetError, DataError
from .estimators import _degree_terms, _ratio
from .graph import AttributeTable, PopulationGraph
from .rng import generator, substream
from .simulate import RdsDesign, simulate_rds

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "true_proportion",
    "run_full",
]

_REPLICATION_DOMAIN = 0
_WIDTH_DOMAIN = 1
_METHOD_KEY = {"neighbourhood": 1, "tree": 2}
_ESTIMATOR = "vh"  # of the point estimates, the bootstrap replicates and the width reference


@dataclass(frozen=True)
class ExperimentConfig:
    design: RdsDesign
    attributes: tuple[str, ...]
    n_replications: int
    n_bootstrap: int
    master_seed: int
    methods: tuple[str, ...] = METHODS
    ci_levels: tuple[float, ...] = (0.95, 0.80)
    n_width_reference: int = 5000

    def __post_init__(self):
        if self.n_replications < 2:
            raise DataError("need at least 2 replications")
        if self.n_bootstrap < 2:
            raise DataError("need at least 2 bootstrap replicates")
        if not self.attributes:
            raise DataError("need at least one attribute")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise DataError(f"methods must be a non-empty subset of {sorted(METHODS)}")
        if any(not (0.0 < lv < 1.0) for lv in self.ci_levels):
            raise DataError("ci levels must lie in (0, 1)")
        for what, names in (("attributes", self.attributes), ("methods", self.methods), ("ci levels", self.ci_levels)):
            if len(set(names)) < len(names):
                raise DataError(f"{what} must not repeat: {list(names)}")
        if self.n_width_reference < 100:
            raise DataError("width reference needs at least 100 simulations")


@dataclass
class ReportRow:
    attribute: str
    method: str
    level: float
    coverage: float
    mean_width: float
    expected_width: float
    mean_boot_var: float
    mse: float
    rel_bias: float | None  # None when the MSE is 0


REPORT_COLUMNS = [f.name for f in fields(ReportRow)]


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    truths: dict[str, float]
    diagnostics: dict[str, int]
    config_echo: dict

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in self.rows:
            attribute, method, *numbers = astuple(r)
            writer.writerow([attribute, method, *("NA" if v is None else repr(float(v)) for v in numbers)])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "tool": {"name": "rdsvar", "version": __version__},
            "config": dict(self.config_echo),  # a copy: callers add keys to it
            "truths": self.truths,
            "diagnostics": self.diagnostics,
            "rows": [asdict(r) for r in self.rows],
        }


def true_proportion(g: PopulationGraph, attrs: AttributeTable, column: str) -> float:
    """Population mean of a binary column over the graph's nodes."""
    col = attrs.column(column)
    if col.shape[0] != g.n_nodes:
        raise DataError("attribute table does not match graph")
    return float(col.sum()) / g.n_nodes


@dataclass
class _RepResult:
    points: dict[str, float]
    boot_var: dict[tuple[str, str], float]
    cis: dict[tuple[str, str, float], tuple[float, float]]
    n_reseeds: int
    n_truncated: int


_WORKER: dict = {}


def _init_worker(graph, attrs, cfg):
    _WORKER["graph"] = graph
    _WORKER["attrs"] = attrs
    _WORKER["cfg"] = cfg
    # what the width reference groups each forest by, made once per run: node v's key
    # in attribute j's block is 2 * (rank of v's degree among the graph's distinct
    # degrees) + z_j(v), and a, b are the estimator's terms of those degrees
    rank, a, b = _degree_terms(graph.degree, _ESTIMATOR)
    blocks = 2 * len(a) * np.arange(len(cfg.attributes))
    z = np.stack([attrs.column(name) for name in cfg.attributes])
    _WORKER["width_keys"] = (blocks[:, None] + 2 * rank) + z, a, b


def _replication(index: int) -> _RepResult | None:
    """One replication on substream (master, 0, index); None when its sample starves."""
    g: PopulationGraph = _WORKER["graph"]
    attrs: AttributeTable = _WORKER["attrs"]
    cfg: ExperimentConfig = _WORKER["cfg"]
    rep_root = substream(cfg.master_seed, _REPLICATION_DOMAIN, index)
    try:
        forest = simulate_rds(g, cfg.design, generator(rep_root, 0))
    except BudgetError:
        return None
    z_cols = {a: attrs.column(a)[forest.node_index].astype(np.float64) for a in cfg.attributes}
    points: dict[str, float] = {}
    boot_var: dict[tuple[str, str], float] = {}
    cis: dict[tuple[str, str, float], tuple[float, float]] = {}
    for method in cfg.methods:
        bc = BootstrapConfig(method, cfg.n_bootstrap, estimator=_ESTIMATOR)
        dists = bootstrap_distributions(forest, bc, z_cols, root=substream(rep_root, _METHOD_KEY[method]))
        for a, dist in dists.items():
            points[a] = dist.estimator_on_original  # the point estimate, the same for every method
            boot_var[(a, method)] = bootstrap_variance(dist)
            for lv in cfg.ci_levels:
                cis[(a, method, lv)] = percentile_ci(dist, lv)
    return _RepResult(points, boot_var, cis, forest.n_reseeds, forest.n_truncated)


def _width_forest(index: int) -> tuple[float, ...]:
    """The estimate of every attribute on one fresh forest, substream (master, 1, index)."""
    g: PopulationGraph = _WORKER["graph"]
    cfg: ExperimentConfig = _WORKER["cfg"]
    forest = simulate_rds(g, cfg.design, generator(cfg.master_seed, _WIDTH_DOMAIN, index))
    return _width_estimates(forest.node_index)


def _width_estimates(node_index: np.ndarray) -> tuple[float, ...]:
    """The estimate of every attribute over the nodes at ``node_index``, each drawn once.

    One ``bincount`` of the nodes' keys gives, per attribute and degree,
    the nodes with z = 0 and with z = 1; the exact ratio then sums the
    degrees present. The floats are those of ``_estimate`` on the sample,
    bit for bit.
    """
    keys, a, b = _WORKER["width_keys"]
    n_attrs, n_degrees = keys.shape[0], len(a)
    counts = np.bincount(np.take(keys, node_index, axis=1).ravel(), minlength=n_attrs * n_degrees * 2)
    counts = counts.reshape(n_attrs, n_degrees, 2)
    den = counts[0].sum(1)
    present = np.flatnonzero(den)
    at = present.tolist()
    num = counts[:, present, 1].tolist()
    return tuple(_ratio(den[present].tolist(), num, [a[k] for k in at], [b[k] for k in at]))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _work_map(workers: int, g: PopulationGraph, attrs: AttributeTable, cfg: ExperimentConfig):
    """``map`` over work units by index, results in index order.

    The builtin ``map`` at one process; otherwise ``Pool.map`` of one fork
    pool of min(workers, usable CPUs) processes.
    """
    processes = min(workers, _usable_cpus())
    if processes <= 1:
        _init_worker(g, attrs, cfg)
        yield map
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes, initializer=_init_worker, initargs=(g, attrs, cfg)) as pool:
        yield pool.map


def _quantile_width(estimates: np.ndarray, level: float) -> float:
    """Nearest-rank interquantile width of a sampling distribution."""
    lo, hi = nearest_rank_bounds(estimates, level)
    return hi - lo


def _mean(values) -> float:
    vals = list(values)
    return math.fsum(vals) / len(vals)


def _reduce(
    cfg: ExperimentConfig,
    g: PopulationGraph,
    attrs: AttributeTable,
    completed: list[_RepResult],
    n_excluded: int,
    width_ref: np.ndarray,
) -> ExperimentReport:
    """One row per attribute x method x level; ``width_ref`` holds one column per attribute."""
    R = len(completed)
    truths = {a: true_proportion(g, attrs, a) for a in cfg.attributes}
    rows = []
    for k, a in enumerate(cfg.attributes):
        mu = truths[a]
        mse = math.fsum((r.points[a] - mu) ** 2 for r in completed) / R
        for method in cfg.methods:
            mean_var = _mean(r.boot_var[(a, method)] for r in completed)
            rel_bias = (mean_var - mse) / mse if mse > 0.0 else None
            for lv in cfg.ci_levels:
                cis = [r.cis[(a, method, lv)] for r in completed]
                rows.append(
                    ReportRow(
                        attribute=a,
                        method=method,
                        level=lv,
                        coverage=sum(1 for lo, hi in cis if lo <= mu <= hi) / R,
                        mean_width=_mean(hi - lo for lo, hi in cis),
                        expected_width=_quantile_width(width_ref[:, k], lv),
                        mean_boot_var=mean_var,
                        mse=mse,
                        rel_bias=rel_bias,
                    )
                )
    diagnostics = {
        "completed_replications": R,
        "excluded_starved": n_excluded,
        "total_reseeds": sum(r.n_reseeds for r in completed),
        "total_truncated_recruits": sum(r.n_truncated for r in completed),
    }
    return ExperimentReport(rows, truths, diagnostics, asdict(cfg))


def run_full(
    cfg: ExperimentConfig, g: PopulationGraph, attrs: AttributeTable, workers: int = 1
) -> ExperimentReport:
    """Coverage, interval widths against the width reference, and variance bias.

    The R replications run first; the width-reference forests are
    simulated only when at least 2 of them completed.
    """
    for a in cfg.attributes:
        attrs.column(a)  # fail fast on unknown columns
    cfg.design.validate_for(g)
    with _work_map(workers, g, attrs, cfg) as work_map:
        results = list(work_map(_replication, range(cfg.n_replications)))
        completed = [r for r in results if r is not None]
        n_excluded = len(results) - len(completed)
        if len(completed) < 2:
            raise DataError(f"fewer than 2 completed replications ({n_excluded} starved)")
        width_ref = np.array(list(work_map(_width_forest, range(cfg.n_width_reference))))
    return _reduce(cfg, g, attrs, completed, n_excluded, width_ref)
