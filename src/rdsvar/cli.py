"""Command-line front end.

Subcommands: ingest, simulate, bootstrap, experiment, oracle. Flags can
also be supplied through a JSON config file (``--config``); command-line
flags override config keys, and unknown keys are rejected. All artifacts
are written atomically (temp file + rename) and every JSON output echoes
the resolved config and the library version.

Exit codes: 0 success, 1 usage error, 2 input data error, 3 runtime
budget exceeded or memory exhausted. On failure a machine-readable error
JSON is printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import __version__
from .bootstrap import (
    ESTIMATORS,
    METHODS,
    POOLS,
    SEED_MODES,
    BootstrapConfig,
    bootstrap_distribution,
    bootstrap_variance,
    percentile_ci,
)
from .errors import BudgetError, DataError, RdsVarError, UsageError
from .estimators import PopulationTotals
from .exact import check_moment_identity, enumerate_neighbourhood, enumerate_tree
from .experiment import ExperimentConfig, run_full
from .graph import (
    largest_connected_component,
    load_attributes,
    load_edge_list,
    load_summary,
    read_attribute_rows,
)
from .simulate import REGIMES, RdsDesign, _tape_size, read_forest_csv, simulate_rds, write_forest_csv
from .rng import generator

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _tool_block() -> dict:
    return {"name": "rdsvar", "version": __version__}


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rdsvar-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _parse_pmf(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(Fraction(tok.strip())) for tok in text.split(","))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"cannot parse pmf {text!r}; expected comma-separated numbers like 1/3,1/6,1/6,1/3")


def _parse_levels(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse levels {text!r}")


def _parse_columns(text: str) -> tuple[str, ...]:
    cols = tuple(c.strip() for c in text.split(",") if c.strip())
    if not cols:
        raise UsageError("empty column list")
    return cols


def _seed(text: str) -> int:
    """A master seed: numpy derives streams from non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="rdsvar", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rdsvar {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices

    def add(name: str, helptext: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--out", help="output directory (default .)")
        return p

    p = add("ingest", "load and summarize a population network")
    p.add_argument("--edges", help="edge list file")
    p.add_argument("--attrs", help="attribute CSV to validate against the graph")
    p.add_argument("--lcc", action="store_true", default=None, help="restrict to the largest connected component")

    p = add("simulate", "simulate one RDS sample and write the recruitment forest")
    p.add_argument("--edges")
    p.add_argument("--seeds", type=int, help="number of seeds")
    p.add_argument("--coupons", type=int, help="maximum recruits per participant")
    p.add_argument("--pmf", help="recruit-count probabilities, e.g. 1/3,1/6,1/6,1/3")
    p.add_argument("--n", type=int, help="target sample size")
    p.add_argument("--seed", type=_seed, help="master seed (default 0)")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--no-reseed", action="store_true", default=None, help="fail instead of reseeding dead chains")
    p.add_argument("--lcc", action="store_true", default=None)

    p = add("bootstrap", "bootstrap an estimator over a recruitment forest")
    p.add_argument("--forest", help="forest CSV (id, recruiter, degree at minimum)")
    p.add_argument("--attrs", help="attribute CSV")
    p.add_argument("--attribute", help="attribute column to estimate")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--B", type=int, help="bootstrap replicates")
    p.add_argument("--estimator", choices=ESTIMATORS)
    p.add_argument("--level", type=float, help="confidence level (default 0.95)")
    p.add_argument("--pool", choices=POOLS)
    p.add_argument("--tree-seed-mode", choices=SEED_MODES)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--population-size", type=int, help="N for the ipw estimator")
    p.add_argument("--total-degree", type=int, help="sum of degrees for the ipw estimator")
    p.add_argument("--edges", help="edge list to derive ipw totals from")
    p.add_argument("--lcc", action="store_true", default=None)
    p.add_argument("--dump-estimates", action="store_true", default=None, help="also write all B estimates as CSV")

    p = add("experiment", "Monte Carlo coverage / width / variance-bias study")
    p.add_argument("--edges")
    p.add_argument("--attrs")
    p.add_argument("--columns", help="comma-separated attribute columns (default: all)")
    p.add_argument("--seeds", type=int)
    p.add_argument("--coupons", type=int)
    p.add_argument("--pmf")
    p.add_argument("--n", type=int)
    p.add_argument("--R", type=int, help="number of replications")
    p.add_argument("--B", type=int, help="bootstrap replicates per replication")
    p.add_argument("--methods", help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--levels", help="comma-separated confidence levels (default 0.95,0.80)")
    p.add_argument("--width-ref", type=int, help="simulations for expected widths (default 5000)")
    p.add_argument("--seed", type=_seed, help="master seed (required)")
    p.add_argument(
        "--workers", type=int, help="working processes, the main one among them, at most the usable CPUs (default 1)"
    )
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--no-reseed", action="store_true", default=None)
    p.add_argument("--lcc", action="store_true", default=None)

    p = add("oracle", "exact bootstrap distribution of a tiny forest by enumeration")
    p.add_argument("--forest")
    p.add_argument("--attrs")
    p.add_argument("--attribute")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--estimator", choices=ESTIMATORS)
    p.add_argument("--pool", choices=POOLS)
    p.add_argument("--tree-seed-mode", choices=SEED_MODES)
    p.add_argument("--population-size", type=int)
    p.add_argument("--total-degree", type=int)
    p.add_argument("--check-identity", action="store_true", default=None, help="include balanced-forest moment diagnostics")
    return parser


def _merge_config(parser: _Parser, args: argparse.Namespace) -> dict:
    """Apply config-file values under CLI flags; reject unknown keys."""
    merged = vars(args).copy()
    path = merged.pop("config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError:
            raise DataError(f"config file not found: {path}")
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise DataError(f"{path}: invalid JSON config: {e}")
        if not isinstance(file_cfg, dict):
            raise DataError(f"{path}: config must be a JSON object")
        actions = {a.dest: a for a in parser.commands[merged["command"]]._actions}
        for key, value in file_cfg.items():
            dest = key.replace("-", "_")
            if dest in ("config", "command"):
                raise UsageError(f"config file may not set {key!r}")
            if dest not in merged:
                raise UsageError(f"unknown config key {key!r} for command {merged['command']}")
            if merged[dest] is None:
                merged[dest] = _config_value(actions[dest], key, value)
    return merged


def _config_value(action: argparse.Action, key: str, value):
    """Coerce a config-file value as its flag would coerce the same text."""
    if action.nargs == 0:  # on/off flag
        if not isinstance(value, bool):
            raise UsageError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config key {key!r} must be a string or a number, got {value!r}")
    try:
        value = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {key!r}: invalid choice {value!r} (choose from {', '.join(action.choices)})")
    return value


# Upfront caps on the largest arrays a command allocates (README "CLI"); past
# one, the command stops with a BudgetError (exit 3) before it allocates them
MAX_ESTIMATE_FLOATS = 2**26  # estimates: B bootstrap or W width-reference floats per attribute column
MAX_TAPE_WORDS = 2**25  # simulate_rds's tape of raw 64-bit words for a sample of size n
MAX_REPLICATIONS = 2**20  # experiment's per-replication results, all held until the reduction


def _check_estimates(flag: str, count: int, what: str, columns: int) -> None:
    if count * columns > MAX_ESTIMATE_FLOATS:
        raise BudgetError(
            f"{flag} {count} needs {count * columns} {what} estimates ({columns} column(s)), "
            f"past the cap of {MAX_ESTIMATE_FLOATS} floats"
        )


def _check_replications(R: int) -> None:
    if R > MAX_REPLICATIONS:
        raise BudgetError(f"--R {R} needs {R} replication results, past the cap of {MAX_REPLICATIONS} replications")


def _check_tape(design: RdsDesign) -> None:
    words = _tape_size(design)
    if words > MAX_TAPE_WORDS:
        raise BudgetError(
            f"--n {design.target_n} needs a tape of {words} random words per sample, "
            f"past the cap of {MAX_TAPE_WORDS} words"
        )


def _require(cfg: dict, *names: str) -> None:
    for name in names:
        if cfg.get(name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for {cfg['command']}")


def _outpath(cfg: dict, filename: str) -> str:
    out = cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, filename)


def _load_graph(cfg: dict):
    g = load_edge_list(cfg["edges"])
    if cfg.get("lcc"):
        g = largest_connected_component(g)
    return g


def _echo(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if v is not None and k != "command"}


def _given(cfg: dict, **keys: str) -> dict:
    """{parameter: value} of the flags given, each named by its config key; the library defaults the rest."""
    return {name: cfg[key] for name, key in keys.items() if cfg.get(key) is not None}


def _design_from(cfg: dict) -> RdsDesign:
    _require(cfg, "seeds", "coupons", "pmf", "n")
    return RdsDesign(
        cfg["seeds"], cfg["coupons"], _parse_pmf(cfg["pmf"]), cfg["n"],
        reseed_on_death=not cfg.get("no_reseed"), **_given(cfg, regime="regime"),
    )


def _forest_z(cfg: dict):
    """(forest, z, column) for commands operating on a forest file."""
    _require(cfg, "forest", "attrs", "attribute")
    forest = read_forest_csv(cfg["forest"])
    columns, rows = read_attribute_rows(cfg["attrs"])
    column = cfg["attribute"]
    if column not in columns:
        raise DataError(f"attribute column {column!r} not in {cfg['attrs']} (has {columns})")
    j = columns.index(column)
    missing = [nid for nid in forest.node_id if nid not in rows]
    if missing:
        raise DataError(f"forest ids missing from attribute file: {sorted(set(missing))[:20]}")
    z = np.array([rows[nid][j] for nid in forest.node_id], dtype=np.float64)
    return forest, z, column


def _ipw_totals(cfg: dict) -> PopulationTotals | None:
    if cfg.get("estimator") != "ipw":
        return None
    if cfg.get("population_size") is not None and cfg.get("total_degree") is not None:
        return PopulationTotals(cfg["population_size"], cfg["total_degree"])
    if cfg.get("edges"):
        g = _load_graph(cfg)
        return PopulationTotals(g.n_nodes, g.total_degree)
    alternative = ", or --edges" if "edges" in cfg else ""  # only the commands that have --edges offer it
    raise UsageError(f"ipw needs --population-size and --total-degree{alternative}")


def cmd_ingest(cfg: dict) -> list[str]:
    _require(cfg, "edges")
    g = _load_graph(cfg)
    payload = {"tool": _tool_block(), "config": _echo(cfg)}
    payload.update(load_summary(g))
    if cfg.get("attrs"):
        table = load_attributes(cfg["attrs"], g)
        payload["attribute_columns"] = table.column_names
    path = _outpath(cfg, "load_summary.json")
    write_json_atomic(path, payload)
    return [path]


def cmd_simulate(cfg: dict) -> list[str]:
    _require(cfg, "edges")
    g = _load_graph(cfg)
    design = _design_from(cfg)
    design.validate_for(g)
    _check_tape(design)
    seed = cfg.get("seed") or 0
    forest = simulate_rds(g, design, generator(seed, 0))
    forest_path = _outpath(cfg, "forest.csv")
    write_forest_csv(forest, forest_path)
    summary = {
        "tool": _tool_block(),
        "config": _echo(cfg),
        "n_entries": forest.n,
        "n_seeds_initial": design.n_seeds,
        "n_reseeds": forest.n_reseeds,
        "n_truncated_recruits": forest.n_truncated,
        "max_wave": int(forest.wave.max()) if forest.n else 0,
        "forest_csv": os.path.basename(forest_path),
    }
    summary_path = _outpath(cfg, "simulate_summary.json")
    write_json_atomic(summary_path, summary)
    return [forest_path, summary_path]


def cmd_bootstrap(cfg: dict) -> list[str]:
    _require(cfg, "method", "B")
    _check_estimates("--B", cfg["B"], "bootstrap", 1)
    forest, z, column = _forest_z(cfg)
    options = _given(cfg, selection_pool="pool", tree_seed_mode="tree_seed_mode", estimator="estimator")
    bc = BootstrapConfig(cfg["method"], cfg["B"], **options)
    totals = _ipw_totals({**cfg, "estimator": bc.estimator})
    dist = bootstrap_distribution(forest, bc, z, totals=totals, root=cfg.get("seed") or 0)
    level = cfg["level"] if cfg.get("level") is not None else 0.95
    lo, hi = percentile_ci(dist, level)
    variance = bootstrap_variance(dist)
    notes = []
    if bc.method == "neighbourhood":
        notes.append(
            "neighbourhood bootstrap samples never contain seed participants "
            "(seeds are nobody's recruit); this is a vanishing edge effect in the sample size"
        )
    payload = {
        "tool": _tool_block(),
        "config": _echo(cfg),
        "method": bc.method,
        "n_replicates": bc.n_replicates,
        "estimator": bc.estimator,
        "attribute": column,
        "point_estimate": dist.estimator_on_original,
        "variance": variance,
        "se": variance**0.5,
        "ci": {"level": level, "lo": lo, "hi": hi},
        "quantile_rule": "nearest-rank: rank = ceil(q*B) clamped to [1, B]",
        "notes": notes,
    }
    path = _outpath(cfg, "bootstrap.json")
    write_json_atomic(path, payload)
    written = [path]
    if cfg.get("dump_estimates"):
        est_path = _outpath(cfg, "bootstrap_estimates.csv")
        lines = ["replicate,estimate"] + [f"{b},{float(e)!r}" for b, e in enumerate(dist.estimates)]
        write_text_atomic(est_path, "\n".join(lines) + "\n")
        written.append(est_path)
    return written


def cmd_experiment(cfg: dict) -> list[str]:
    _require(cfg, "edges", "attrs")
    if cfg.get("seed") is None:
        raise UsageError("--seed is required for experiment (reproducibility)")
    g = _load_graph(cfg)
    attrs = load_attributes(cfg["attrs"], g)
    design = _design_from(cfg)
    _require(cfg, "R", "B")
    columns = _parse_columns(cfg["columns"]) if cfg.get("columns") else tuple(attrs.column_names)
    options = _given(cfg, n_width_reference="width_ref")
    if cfg.get("methods"):
        options["methods"] = _parse_columns(cfg["methods"])
    if cfg.get("levels"):
        options["ci_levels"] = _parse_levels(cfg["levels"])
    workers = 1 if cfg.get("workers") is None else cfg["workers"]
    if workers < 1:
        raise UsageError("--workers must be at least 1")
    ec = ExperimentConfig(design, columns, cfg["R"], cfg["B"], cfg["seed"], **options)
    design.validate_for(g)
    _check_replications(ec.n_replications)
    _check_estimates("--B", ec.n_bootstrap, "bootstrap", len(ec.attributes))
    _check_estimates("--width-ref", ec.n_width_reference, "width-reference", len(ec.attributes))
    _check_tape(design)
    report = run_full(ec, g, attrs, workers=workers)
    csv_path = _outpath(cfg, "experiment_report.csv")
    write_text_atomic(csv_path, report.to_csv_text())
    payload = report.to_json_dict()
    payload["config"]["cli"] = _echo(cfg)
    json_path = _outpath(cfg, "experiment_report.json")
    write_json_atomic(json_path, payload)
    return [csv_path, json_path]


def cmd_oracle(cfg: dict) -> list[str]:
    _require(cfg, "method")
    forest, z, column = _forest_z(cfg)
    estimator = cfg.get("estimator") or "sample_mean"
    totals = _ipw_totals({**cfg, "estimator": estimator})
    pool = cfg.get("pool") or "recruiters_only"
    seed_mode = cfg.get("tree_seed_mode") or "with_replacement"
    if cfg["method"] == "neighbourhood":
        dist = enumerate_neighbourhood(forest, z, pool=pool, estimator=estimator, totals=totals)
    else:
        dist = enumerate_tree(forest, z, seed_mode=seed_mode, estimator=estimator, totals=totals)
    payload = {
        "tool": _tool_block(),
        "config": _echo(cfg),
        "method": cfg["method"],
        "estimator": estimator,
        "attribute": column,
        "distribution": dist.to_json_dict(),
    }
    if cfg.get("check_identity"):
        # the identity needs the sample mean's law under each method: over the
        # recruiters_only pool, and with the seeds drawn with replacement
        same_law = estimator == "sample_mean" and (
            pool == "recruiters_only" if cfg["method"] == "neighbourhood" else seed_mode == "with_replacement"
        )
        payload["moment_identity"] = check_moment_identity(forest, z, {cfg["method"]: dist} if same_law else None)
    path = _outpath(cfg, "oracle.json")
    write_json_atomic(path, payload)
    return [path]


_COMMANDS = {
    "ingest": cmd_ingest,
    "simulate": cmd_simulate,
    "bootstrap": cmd_bootstrap,
    "experiment": cmd_experiment,
    "oracle": cmd_oracle,
}


def run(cfg: dict) -> list[str]:
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise UsageError(f"missing or unknown command {command!r}; expected one of {sorted(_COMMANDS)}")
    return _COMMANDS[command](cfg)


def _attach_dash_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``--opt -value`` as ``--opt=-value``, for every option that takes one value.

    argparse takes a token that starts with a minus sign, and is not a
    plain negative number, for an option, and would report the value
    missing instead of letting the value's own check say what is wrong
    with it (a negative pmf entry or confidence level, say).
    """
    commands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    takes_value = {
        s
        for sub in commands
        for p in sub.choices.values()
        for a in p._actions
        if a.nargs is None
        for s in a.option_strings
    }
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in takes_value and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(parser, sys.argv[1:] if argv is None else list(argv)))
        cfg = _merge_config(parser, args)
        written = run(cfg)
    except (RdsVarError, OSError, MemoryError) as e:
        if isinstance(e, MemoryError):
            # a backstop: not every size a user sets is checked before it is allocated
            e = BudgetError(f"out of memory: {e}" if str(e) else "out of memory")
        exit_code = e.exit_code if isinstance(e, RdsVarError) else DataError.exit_code
        error = {
            "error": {
                "type": type(e).__name__,
                "message": str(e),
                "exit_code": exit_code,
            }
        }
        print(json.dumps(error), file=sys.stderr)
        return exit_code
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
