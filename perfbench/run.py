"""rdsvar benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload desk-n1000 [--seed 0] [--seconds 30] [--trace 0]

Run from the root of a checkout; the package is imported from ``src/``.
The workloads are described in ``workloads.py``. With ``--trace 0`` the
run prints the end-to-end metrics, timed in the reference seconds of
``hostclock.HostClock`` so that the shared host's drifting speed cancels
out (the wall times are in the detail line); with ``--trace 1`` it alternates
untraced and traced units of the same work and prints the per-layer
metrics and the tracing overhead. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

The line before it holds the provenance, the per-unit timings and every
failed output check.
"""

import os

# numpy links a threaded OpenBLAS. Pin it (and OpenMP) to one thread before
# numpy loads, so that pool workers times BLAS threads never exceeds the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

END_TO_END = {"setup_s": "s", "ops_per_ref_s": "1/s", "peak_rss_mb": "MiB"}
SETUP_LAYERS = (
    "graph.load_edge_list",
    "graph.largest_connected_component",
    "graph.load_attributes",
    "synth.make_study_population",
    "simulate.read_forest_csv",
)
UNIT_LAYERS = (
    "simulate.replication",
    "simulate.width_ref",
    "estimators.vh_estimate",
    "bootstrap.neighbourhood",
    "bootstrap.tree",
    "bootstrap.percentile_ci",
    "bootstrap.bootstrap_variance",
    "bootstrap.mc.neighbourhood",
    "bootstrap.mc.tree",
    "rng.generator",
    "exact.enumerate_neighbourhood",
    "exact.enumerate_tree",
    "experiment.run_full",
)
COUNTS = (
    "simulate.calls",
    "simulate.entries",
    "simulate.truncated",
    "estimators.vh_estimate.calls",
    "bootstrap.replicates",
    "bootstrap.mc.replicates",
    "rng.generator.calls",
    "exact.outcomes",
)
PER_LAYER = {
    **{f"{name}.s": "s" for name in SETUP_LAYERS + UNIT_LAYERS},
    "experiment.self.s": "s",
    **{name: "count" for name in COUNTS},
    "simulate.kept_ratio": "ratio",
    "experiment.cpu_util": "ratio",
    "trace.overhead_ratio": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, workers: int) -> dict:
    import numpy as np

    import workloads as wl

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc(),
        "workers": workers,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": _git_sha(),
        "seed": seed,
        "seeds": {"population": wl.POP_SEED, "master": wl.MASTER_SEED + seed, "forest_shapes": wl.FOREST_SEED},
    }


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Set up, run units until ``seconds`` have passed, check outputs; returns (result, detail)."""
    import workloads as wl
    from hostclock import HostClock
    from spans import Tracer, traced

    tracer = Tracer()
    if trace:
        with traced(tracer):
            state, setup_s, setup_problems = wl.setup(w, seed, workdir)
        units = []
        start = perf_counter()
        while not units or perf_counter() - start < seconds:
            # untraced at workers=1 is the base of the overhead ratio
            units.append(wl.run_unit(w, state, w.workers))
            if w.workers > 1:
                units.append(wl.run_unit(w, state, 1))
            with traced(tracer):
                unit = wl.run_unit(w, state, 1)
            unit.traced = True
            units.append(unit)
    else:
        with HostClock() as clock:
            state, setup_s, setup_problems = wl.setup(w, seed, workdir, clock)
            units = []
            start = perf_counter()
            while not units or perf_counter() - start < seconds:
                units.append(wl.run_unit(w, state, w.workers))
        ref_s = [clock.seconds(u.start, u.start + u.wall) for u in units]
        speed = [clock.speed(u.start, u.start + u.wall) for u in units]

    for u in units[1:]:
        if u.output != units[0].output:
            u.problems.append("output differs from the first unit's")

    attempted = sum(u.ops for u in units)
    failed = attempted if setup_problems else sum(u.ops for u in units if u.problems)
    problems = setup_problems + [p for u in units for p in u.problems]
    if trace:
        metrics = _per_layer(w, tracer, units)
    else:
        timed = range(1, len(units)) if len(units) > 1 else range(1)  # the first unit warms up
        metrics = {
            "setup_s": setup_s,
            "ops_per_ref_s": sum(units[i].ops for i in timed) / sum(ref_s[i] for i in timed),
            "peak_rss_mb": peak_rss_mib(),
        }
    units_table = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_table.items()},
    }
    worst = [u.worst_dev_3se for u in units if u.worst_dev_3se is not None]
    detail = {
        "workload": w.name,
        "trace": int(trace),
        "provenance": provenance(seed, w.workers),
        "setup_s": setup_s,
        "units": [
            {"ops": u.ops, "wall_s": u.wall, "workers": u.workers, "traced": u.traced}
            | ({} if trace else {"ref_s": ref_s[i], "host_speed": speed[i]})
            for i, u in enumerate(units)
        ],
        "output_sha256": wl.sha256(units[0].output),
        "worst_dev_3se": max(worst) if worst else None,
        "problems": problems[:20],
    }
    return result, detail


def _per_layer(w, tracer, units) -> dict:
    traced_units = [u for u in units if u.traced]
    n = len(traced_units)
    totals, counts = tracer.totals(), tracer.counts
    out = {f"{name}.s": totals[name] / w.n_setups for name in SETUP_LAYERS}
    out.update({f"{name}.s": totals[name] / n for name in UNIT_LAYERS})
    out["experiment.self.s"] = tracer.self_seconds("experiment.run_full") / n
    out.update({name: counts[name] / n for name in COUNTS})
    kept = counts["simulate.entries"] + counts["simulate.truncated"]
    out["simulate.kept_ratio"] = counts["simulate.entries"] / kept if kept else 0.0
    plain = [u for u in units if not u.traced]
    main_units = [u for u in plain if u.workers == w.workers]
    out["experiment.cpu_util"] = sum(u.cpu for u in main_units) / sum(u.wall * u.workers for u in main_units)
    base = sum(u.wall for u in plain if u.workers == 1)
    out["trace.overhead_ratio"] = sum(u.wall for u in traced_units) / base
    return out


def main(argv=None, workloads=None) -> int:
    if not (SRC / "rdsvar" / "__init__.py").is_file():
        print(f"perfbench: no rdsvar package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    import rdsvar
    import workloads as wl

    if not Path(rdsvar.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported rdsvar from {rdsvar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workloads = wl.WORKLOADS if workloads is None else workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0, help="draws on the fixed data sets; 0 reproduces the acceptance fixtures")
    ap.add_argument("--seconds", type=float, default=30.0, help="how long to run timed units")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    w = workloads[args.workload]
    if w.workers > nproc():
        print(f"perfbench: {w.name} needs workers={w.workers} but nproc={nproc()}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result, detail = measure(w, args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
