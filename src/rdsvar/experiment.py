"""Monte Carlo evaluation harness: coverage, interval width, variance bias.

Each replication simulates one RDS sample, computes the inverse-degree
weighted point estimate per attribute, and runs every configured
bootstrap method once; a single resample per replicate serves all
attributes. Replication i draws from substream (master, 0, i) and the
width-reference simulations from (master, 1, j), so results are identical
for any worker count: work is distributed by index and reduced in index
order with exactly rounded sums.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bootstrap import (
    BootstrapConfig,
    bootstrap_distributions,
    bootstrap_variance,
    nearest_rank_bounds,
    percentile_ci,
)
from .errors import BudgetError, DataError
from .estimators import WeightedSample, vh_estimate
from .graph import AttributeTable, PopulationGraph
from .rng import generator, substream
from .simulate import RdsDesign, simulate_rds

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "true_proportion",
    "run_coverage",
    "run_relative_bias",
    "run_full",
    "expected_width",
]

REPORT_COLUMNS = [
    "attribute",
    "method",
    "level",
    "coverage",
    "mean_width",
    "expected_width",
    "mean_boot_var",
    "mse",
    "rel_bias",
]

_REPLICATION_DOMAIN = 0
_WIDTH_DOMAIN = 1
_METHOD_KEY = {"neighbourhood": 1, "tree": 2}


@dataclass(frozen=True)
class ExperimentConfig:
    design: RdsDesign
    attributes: tuple[str, ...]
    n_replications: int
    n_bootstrap: int
    master_seed: int
    methods: tuple[str, ...] = ("neighbourhood", "tree")
    ci_levels: tuple[float, ...] = (0.95, 0.80)
    n_width_reference: int = 5000
    selection_pool: str = "recruiters_only"
    tree_seed_mode: str = "with_replacement"

    def __post_init__(self):
        if self.n_replications < 2:
            raise DataError("need at least 2 replications")
        if self.n_bootstrap < 2:
            raise DataError("need at least 2 bootstrap replicates")
        if not self.attributes:
            raise DataError("need at least one attribute")
        if not self.methods or any(m not in _METHOD_KEY for m in self.methods):
            raise DataError(f"methods must be a non-empty subset of {sorted(_METHOD_KEY)}")
        if any(not (0.0 < lv < 1.0) for lv in self.ci_levels):
            raise DataError("ci levels must lie in (0, 1)")


@dataclass
class ReportRow:
    attribute: str
    method: str
    level: float
    coverage: float | None = None
    mean_width: float | None = None
    expected_width: float | None = None
    mean_boot_var: float | None = None
    mse: float | None = None
    rel_bias: float | None = None


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
            writer.writerow(
                [
                    r.attribute,
                    r.method,
                    repr(float(r.level)),
                    *("NA" if v is None else repr(float(v)) for v in (
                        r.coverage, r.mean_width, r.expected_width, r.mean_boot_var, r.mse, r.rel_bias
                    )),
                ]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "tool": {"name": "rdsvar", "version": __version__},
            "config": self.config_echo,
            "truths": self.truths,
            "diagnostics": self.diagnostics,
            "rows": [
                {
                    "attribute": r.attribute,
                    "method": r.method,
                    "level": r.level,
                    "coverage": r.coverage,
                    "mean_width": r.mean_width,
                    "expected_width": r.expected_width,
                    "mean_boot_var": r.mean_boot_var,
                    "mse": r.mse,
                    "rel_bias": r.rel_bias,
                }
                for r in self.rows
            ],
        }


def true_proportion(g: PopulationGraph, attrs: AttributeTable, column: str) -> float:
    """Population mean of a binary column over the graph's nodes."""
    col = attrs.column(column)
    if col.shape[0] != g.n_nodes:
        raise DataError("attribute table does not match graph")
    return float(col.sum()) / g.n_nodes


@dataclass
class _RepResult:
    index: int
    points: dict[str, float]
    boot_var: dict[tuple[str, str], float]
    cis: dict[tuple[str, str, float], tuple[float, float]]
    n_reseeds: int
    n_truncated: int
    starved: bool = False


_WORKER: dict = {}


def _init_worker(graph, attrs, cfg):
    _WORKER["graph"] = graph
    _WORKER["attrs"] = attrs
    _WORKER["cfg"] = cfg


def _run_one(index: int) -> _RepResult:
    g: PopulationGraph = _WORKER["graph"]
    attrs: AttributeTable = _WORKER["attrs"]
    cfg: ExperimentConfig = _WORKER["cfg"]
    rep_root = substream(cfg.master_seed, _REPLICATION_DOMAIN, index)
    try:
        forest = simulate_rds(g, cfg.design, generator(rep_root, 0))
    except BudgetError:
        return _RepResult(index, {}, {}, {}, 0, 0, starved=True)
    z_cols = {a: attrs.column(a)[forest.node_index].astype(np.float64) for a in cfg.attributes}
    points: dict[str, float] = {}
    boot_var: dict[tuple[str, str], float] = {}
    cis: dict[tuple[str, str, float], tuple[float, float]] = {}
    for method in cfg.methods:
        bc = BootstrapConfig(
            method=method,
            n_replicates=cfg.n_bootstrap,
            selection_pool=cfg.selection_pool,
            tree_seed_mode=cfg.tree_seed_mode,
            estimator="vh",
        )
        dists = bootstrap_distributions(
            forest, bc, z_cols, root=substream(rep_root, _METHOD_KEY[method])
        )
        for a, dist in dists.items():
            points[a] = dist.estimator_on_original  # the vh point estimate, the same for every method
            boot_var[(a, method)] = bootstrap_variance(dist)
            for lv in cfg.ci_levels:
                cis[(a, method, lv)] = percentile_ci(dist, lv)
    return _RepResult(index, points, boot_var, cis, forest.n_reseeds, forest.n_truncated)


def _chunks(n: int, parts: int) -> list[list[int]]:
    out = [[] for _ in range(parts)]
    for i in range(n):
        out[i % parts].append(i)
    return out


def _run_chunk(indices) -> list[_RepResult]:
    return [_run_one(i) for i in indices]


def _collect(cfg: ExperimentConfig, g: PopulationGraph, attrs: AttributeTable, workers: int) -> list[_RepResult]:
    for a in cfg.attributes:
        attrs.column(a)  # fail fast on unknown columns
    cfg.design.validate_for(g)
    R = cfg.n_replications
    if workers <= 1:
        _init_worker(g, attrs, cfg)
        results = [_run_one(i) for i in range(R)]
    else:
        ctx = multiprocessing.get_context("fork")
        chunks = _chunks(R, min(workers, R))
        with ctx.Pool(len(chunks), initializer=_init_worker, initargs=(g, attrs, cfg)) as pool:
            parts = pool.map(_run_chunk, chunks)
        flat = [r for part in parts for r in part]
        results = sorted(flat, key=lambda r: r.index)
    return results


def _width_reference_estimates(
    cfg: ExperimentConfig, g: PopulationGraph, attrs: AttributeTable
) -> dict[str, np.ndarray]:
    """Sampling distribution of the point estimator: one estimate per fresh forest."""
    if cfg.n_width_reference < 100:
        raise DataError("width reference needs at least 100 simulations")
    cols = {a: attrs.column(a) for a in cfg.attributes}
    out = {a: np.empty(cfg.n_width_reference) for a in cfg.attributes}
    for j in range(cfg.n_width_reference):
        forest = simulate_rds(g, cfg.design, generator(cfg.master_seed, _WIDTH_DOMAIN, j))
        ones = np.ones(forest.n, dtype=np.int64)
        for a, col in cols.items():
            out[a][j] = vh_estimate(WeightedSample(col[forest.node_index], forest.degree, ones))
    return out


def _quantile_width(estimates: np.ndarray, level: float) -> float:
    """Nearest-rank interquantile width of a sampling distribution."""
    lo, hi = nearest_rank_bounds(estimates, level)
    return hi - lo


def expected_width(
    cfg: ExperimentConfig, g: PopulationGraph, attrs: AttributeTable, column: str, level: float
) -> float:
    """Expected CI width: the interquantile range of the estimator's sampling distribution."""
    if column not in cfg.attributes:
        raise DataError(f"column {column!r} not among configured attributes")
    est = _width_reference_estimates(cfg, g, attrs)[column]
    return _quantile_width(est, level)


def _mean(values) -> float:
    vals = list(values)
    return math.fsum(vals) / len(vals)


def _reduce(
    cfg: ExperimentConfig,
    g: PopulationGraph,
    attrs: AttributeTable,
    results: list[_RepResult],
    widths: dict[tuple[str, float], float] | None,
    want_coverage: bool,
    want_bias: bool,
) -> ExperimentReport:
    completed = [r for r in results if not r.starved]
    n_excluded = len(results) - len(completed)
    if n_excluded:
        import warnings

        warnings.warn(f"{n_excluded} starved replications excluded from summaries")
    if len(completed) < 2:
        raise DataError("fewer than 2 completed replications")
    R = len(completed)
    truths = {a: true_proportion(g, attrs, a) for a in cfg.attributes}
    rows = []
    for a in cfg.attributes:
        mu = truths[a]
        mse = math.fsum((r.points[a] - mu) ** 2 for r in completed) / R
        for method in cfg.methods:
            mean_var = _mean(r.boot_var[(a, method)] for r in completed)
            if mse > 0.0:
                rel_bias = (mean_var - mse) / mse
            else:
                rel_bias = None
            for lv in cfg.ci_levels:
                row = ReportRow(attribute=a, method=method, level=lv)
                if want_coverage:
                    hits = sum(
                        1
                        for r in completed
                        if r.cis[(a, method, lv)][0] <= mu <= r.cis[(a, method, lv)][1]
                    )
                    row.coverage = hits / R
                    row.mean_width = _mean(
                        r.cis[(a, method, lv)][1] - r.cis[(a, method, lv)][0] for r in completed
                    )
                if widths is not None:
                    row.expected_width = widths[(a, lv)]
                if want_bias:
                    row.mean_boot_var = mean_var
                    row.mse = mse
                    row.rel_bias = rel_bias
                rows.append(row)
    diagnostics = {
        "completed_replications": R,
        "excluded_starved": n_excluded,
        "total_reseeds": sum(r.n_reseeds for r in completed),
        "total_truncated_recruits": sum(r.n_truncated for r in completed),
    }
    return ExperimentReport(rows, truths, diagnostics, _echo_config(cfg))


def _echo_config(cfg: ExperimentConfig) -> dict:
    return {
        "design": {
            "n_seeds": cfg.design.n_seeds,
            "max_coupons": cfg.design.max_coupons,
            "recruit_count_pmf": list(cfg.design.recruit_count_pmf),
            "target_n": cfg.design.target_n,
            "regime": cfg.design.regime,
            "reseed_on_death": cfg.design.reseed_on_death,
        },
        "attributes": list(cfg.attributes),
        "methods": list(cfg.methods),
        "n_replications": cfg.n_replications,
        "n_bootstrap": cfg.n_bootstrap,
        "ci_levels": list(cfg.ci_levels),
        "n_width_reference": cfg.n_width_reference,
        "master_seed": cfg.master_seed,
        "selection_pool": cfg.selection_pool,
        "tree_seed_mode": cfg.tree_seed_mode,
    }


def run_coverage(
    cfg: ExperimentConfig, g: PopulationGraph, attrs: AttributeTable, workers: int = 1
) -> ExperimentReport:
    """Coverage and mean width of percentile intervals across replications."""
    results = _collect(cfg, g, attrs, workers)
    return _reduce(cfg, g, attrs, results, None, want_coverage=True, want_bias=False)


def run_relative_bias(
    cfg: ExperimentConfig, g: PopulationGraph, attrs: AttributeTable, workers: int = 1
) -> ExperimentReport:
    """Mean bootstrap variance, MSE of the point estimates, and their relative bias."""
    results = _collect(cfg, g, attrs, workers)
    return _reduce(cfg, g, attrs, results, None, want_coverage=False, want_bias=True)


def run_full(
    cfg: ExperimentConfig, g: PopulationGraph, attrs: AttributeTable, workers: int = 1
) -> ExperimentReport:
    """Everything in one pass: coverage, widths (with reference), variance bias."""
    results = _collect(cfg, g, attrs, workers)
    ref = _width_reference_estimates(cfg, g, attrs)
    widths = {(a, lv): _quantile_width(ref[a], lv) for a in cfg.attributes for lv in cfg.ci_levels}
    return _reduce(cfg, g, attrs, results, widths, want_coverage=True, want_bias=True)
