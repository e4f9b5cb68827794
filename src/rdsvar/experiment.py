"""Monte Carlo evaluation harness: coverage, interval width, variance bias.

``run_full`` is the one runner. Each replication simulates one RDS sample,
computes the inverse-degree weighted point estimate per attribute, and
runs every configured bootstrap method once; a single resample per
replicate serves all attributes. The width reference is the estimator's
sampling distribution over fresh forests, each reduced to exact estimates
by ``_width_estimates``. Replication i draws from substream (master, 0, i)
and width-reference forest j from (master, 1, j). Each call maps one
buffer before any fork, R replication rows of the named fields of
``_row_dtype`` and a (W, attributes) float64 array of width estimates, and
every work unit writes its result in place there. Both kinds of unit are
numbered in one sequence, the R replications and then the width forests,
and every working process takes the next unclaimed index from one shared
counter until none is left: this process, and at ``workers`` > 1 the
children it forks once per run, which send nothing but an error. Errors
are raised in the order a serial run meets them, and the reduction uses
exactly rounded sums, so reports and errors are identical for any worker
count. Each call builds one frozen run object (graph, attributes, config
and width cells) and passes it to every work unit; forked children
inherit it. The module keeps no state between calls, so calls may run at
once in several threads, and nothing of a run outlives its call.
"""

from __future__ import annotations

import csv
import errno
import io
import math
import mmap
import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import _tool_block
from .bootstrap import (
    METHODS,
    BootstrapConfig,
    bootstrap_distributions,
    bootstrap_variance,
    nearest_rank_bounds,
    percentile_ci,
)
from .errors import BudgetError, DataError
from .estimators import _cell_estimates, _cell_layout
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
        if not isinstance(self.master_seed, (int, np.integer)) or self.master_seed < 0:
            raise DataError(f"master seed must be a non-negative integer, got {self.master_seed!r}")
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
            "tool": _tool_block(),
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


@dataclass(frozen=True)
class _Run:
    """One ``run_full`` call's inputs, made once per call and passed to every work unit.

    ``width_cells`` is the ``_cell_layout`` of the graph's nodes under the
    attributes: the width reference takes each forest's keys from it.
    """

    graph: PopulationGraph
    attrs: AttributeTable
    cfg: ExperimentConfig
    width_cells: tuple[np.ndarray, list[int], list[int]]


def _make_run(graph: PopulationGraph, attrs: AttributeTable, cfg: ExperimentConfig) -> _Run:
    """The run's inputs, checked before any draw: columns, table size, then the design."""
    z = np.stack([attrs.column(name) for name in cfg.attributes])
    if z.shape[1] != graph.n_nodes:
        raise DataError("attribute table does not match graph")
    cfg.design.validate_for(graph)  # before the cell layout, whose degree terms need every degree >= 1
    return _Run(graph, attrs, cfg, _cell_layout(graph.degree, z, _ESTIMATOR))


def _row_dtype(cfg: ExperimentConfig) -> np.dtype:
    """A replication's row: point estimates, bootstrap variances, interval bounds (lo, hi), reseeds and truncations.

    Its itemsize is 8 (A (1 + M (1 + 2 L)) + 2) bytes for A attributes, M methods and L levels.
    """
    A, M, L = len(cfg.attributes), len(cfg.methods), len(cfg.ci_levels)
    return np.dtype([
        ("points", np.float64, (A,)),
        ("boot_var", np.float64, (A, M)),
        ("cis", np.float64, (A, M, L, 2)),
        ("reseeds", np.float64),
        ("truncated", np.float64),
    ])


def _replication(run: _Run, index: int, row: np.void) -> bool:
    """Fill ``row`` with replication ``index``'s results on substream (master, 0, index); False when its sample starves."""
    cfg = run.cfg
    rep_root = substream(cfg.master_seed, _REPLICATION_DOMAIN, index)
    try:
        forest = simulate_rds(run.graph, cfg.design, generator(rep_root, 0))
    except BudgetError:
        return False
    z_cols = {a: run.attrs.column(a)[forest.node_index].astype(np.float64) for a in cfg.attributes}
    for m, method in enumerate(cfg.methods):
        bc = BootstrapConfig(method, cfg.n_bootstrap, estimator=_ESTIMATOR)
        dists = bootstrap_distributions(forest, bc, z_cols, root=substream(rep_root, _METHOD_KEY[method]))
        for k, a in enumerate(cfg.attributes):
            row["points"][k] = dists[a].estimator_on_original  # the point estimate, the same for every method
            row["boot_var"][k, m] = bootstrap_variance(dists[a])
            for j, lv in enumerate(cfg.ci_levels):
                row["cis"][k, m, j] = percentile_ci(dists[a], lv)
    row["reseeds"], row["truncated"] = forest.n_reseeds, forest.n_truncated
    return True


def _width_forest(run: _Run, index: int) -> tuple[float, ...]:
    """The estimate of every attribute on one fresh forest, substream (master, 1, index)."""
    forest = simulate_rds(run.graph, run.cfg.design, generator(run.cfg.master_seed, _WIDTH_DOMAIN, index))
    return _width_estimates(run, forest.node_index)


def _width_estimates(run: _Run, node_index: np.ndarray) -> tuple[float, ...]:
    """The estimate of every attribute over the nodes at ``node_index``, each drawn once.

    The exact ratio does not depend on the terms' common multiple, so the
    floats are those of ``_estimate`` on the sample, bit for bit.
    """
    keys, a, b = run.width_cells
    return tuple(_cell_estimates(np.take(keys, node_index, axis=1), 1, a, b))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work(run: _Run, state, lock, rows: np.ndarray, widths: np.ndarray) -> tuple[int, Exception] | None:
    """Run work units by claimed index until none is left; the (index, exception) of a unit that raised, or None.

    ``state`` is [next index, starved replications, stopped], read and
    written under ``lock``. Index i < R is replication i, written to
    ``rows[i]``, or NaN there when its sample starves; index R + j is
    width-reference forest j, written to ``widths[j]``. No width forest is
    claimed once more than R - 2 replications have starved, since the run
    then fails, and a unit that raises stops every further claim.
    """
    R = len(rows)
    while True:
        with lock:
            i = state[0]
            if state[2] or i >= R + len(widths) or (i >= R and state[1] > R - 2):
                return None
            state[0] = i + 1
        try:
            if i >= R:
                widths[i - R] = _width_forest(run, i - R)
            elif not _replication(run, i, rows[i]):
                rows[i] = np.nan
                with lock:
                    state[1] += 1
        except Exception as exc:
            with lock:
                state[2] = 1
            return i, exc


def _child(run: _Run, state, lock, rows, widths, conn) -> None:
    conn.send(_work(run, state, lock, rows, widths))


def _run_units(run: _Run, workers: int, rows: np.ndarray, widths: np.ndarray) -> list:
    """Run every unit into ``rows`` and ``widths``; each working process's ``_work`` result, in no particular order.

    min(workers, usable CPUs) processes run ``_work``: this one and the
    children it forks. The start method is fork on purpose: the children
    inherit the run object (graph, attributes, width cells), the shared
    counter and the shared buffer behind ``rows`` and ``widths`` without
    pickling any of them, and this process starts no thread before it
    forks. Where fork does not exist (Windows) the units run in this
    process alone, with the same results. A child writes its results into
    the buffer and sends one message, its error or None, when it runs out
    of work; one that exits without sending it ends the run with a
    ``BudgetError``, and no child outlives the call.
    """
    n_children = min(workers, _usable_cpus()) - 1
    if n_children < 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_work(run, [0, 0, 0], nullcontext(), rows, widths)]
    ctx = multiprocessing.get_context("fork")
    shared = ctx.Array("q", 3)
    state, lock = shared.get_obj(), shared.get_lock()
    children, readers = [], []
    try:
        for _ in range(n_children):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            child = ctx.Process(target=_child, args=(run, state, lock, rows, widths, writer))
            child.start()
            writer.close()  # so that a child that dies leaves its reader at EOF
            children.append(child)
        results = [_work(run, state, lock, rows, widths)]
        for child, reader in zip(children, readers):
            try:
                results.append(reader.recv())
            except EOFError:
                child.join()
                raise BudgetError(f"a worker process exited with code {child.exitcode} before sending its results") from None
        return results
    finally:
        # SIGKILL, not SIGTERM: a child that inherited a SIGTERM handler must
        # not keep this call waiting; one that sent its message has no more to do
        for child in children:
            child.kill()
        for child in children:
            child.join()
        for reader in readers:
            reader.close()


def _quantile_width(estimates: np.ndarray, level: float) -> float:
    """Nearest-rank interquantile width of a sampling distribution."""
    lo, hi = nearest_rank_bounds(estimates, level)
    return hi - lo


def _reduce(run: _Run, completed: np.ndarray, n_excluded: int, width_ref: np.ndarray) -> ExperimentReport:
    """One report row per attribute x method x level; ``completed`` holds rows in index order, ``width_ref`` columns."""
    cfg = run.cfg
    R = len(completed)
    points, boot_var, cis = completed["points"], completed["boot_var"], completed["cis"]
    truths = {a: true_proportion(run.graph, run.attrs, a) for a in cfg.attributes}
    rows = []
    for k, a in enumerate(cfg.attributes):
        mu = truths[a]
        mse = math.fsum((p - mu) ** 2 for p in points[:, k].tolist()) / R
        for m, method in enumerate(cfg.methods):
            mean_var = math.fsum(boot_var[:, k, m].tolist()) / R
            rel_bias = (mean_var - mse) / mse if mse > 0.0 else None
            for j, lv in enumerate(cfg.ci_levels):
                lo, hi = cis[:, k, m, j].T
                rows.append(
                    ReportRow(
                        attribute=a,
                        method=method,
                        level=lv,
                        coverage=int(np.count_nonzero((lo <= mu) & (mu <= hi))) / R,
                        mean_width=math.fsum(hi - lo) / R,
                        expected_width=_quantile_width(width_ref[:, k], lv),
                        mean_boot_var=mean_var,
                        mse=mse,
                        rel_bias=rel_bias,
                    )
                )
    diagnostics = {
        "completed_replications": R,
        "excluded_starved": n_excluded,
        "total_reseeds": int(completed["reseeds"].sum()),
        "total_truncated_recruits": int(completed["truncated"].sum()),
    }
    return ExperimentReport(rows, truths, diagnostics, asdict(cfg))


def run_full(
    cfg: ExperimentConfig, g: PopulationGraph, attrs: AttributeTable, workers: int = 1
) -> ExperimentReport:
    """Coverage, interval widths against the width reference, and variance bias.

    The R replications are claimed first; no width-reference forest is
    claimed once more than R - 2 of them have starved. Errors come out as
    a serial run meets them: the lowest-index replication error, then the
    starvation ``DataError``, then the lowest-index width-forest error.
    Unknown columns, an attribute table of another size than the graph and
    a design the graph cannot serve are ``DataError``s before any draw.
    """
    run = _make_run(g, attrs, cfg)
    R, W, row = cfg.n_replications, cfg.n_width_reference, _row_dtype(cfg)
    try:  # anonymous, so shared with the forked children
        buffer = mmap.mmap(-1, R * row.itemsize + 8 * W * len(cfg.attributes))
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map the run's {R} rows of {row.itemsize // 8} and {W} width-reference floats") from exc
    rows = np.frombuffer(buffer, dtype=row, count=R)
    widths = np.frombuffer(buffer, dtype=np.float64, offset=R * row.itemsize).reshape(W, -1)
    errors = sorted((e for e in _run_units(run, workers, rows, widths) if e is not None), key=lambda e: e[0])
    if errors and errors[0][0] < R:
        raise errors[0][1]
    completed = ~np.isnan(rows["truncated"])  # NaN only in a starved row
    n_excluded = R - int(completed.sum())
    if R - n_excluded < 2:
        raise DataError(f"fewer than 2 completed replications ({n_excluded} starved)")
    if errors:
        raise errors[0][1]
    return _reduce(run, rows[completed] if n_excluded else rows, n_excluded, widths)
