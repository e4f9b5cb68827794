"""Run the benchmark over several seeds and write BENCH_<label>.json per checkout.

Usage: python scripts/bench.py [--checkout DIR ...] [--seeds N] [--label LABEL]

For each workload in BENCHMARK.json, each checkout's own benchmark command
(``perfbench/run.py``) runs once per seed 1..N at ``--trace 0`` and then
once per seed 1..3 at ``--trace 1``. The checkouts take turns, and take
turns at going first: seed by seed for the untraced runs, and seed by
seed and workload by workload for the traced ones, so that a drift in
the machine's speed falls on all of them alike. Give the parent and the
change as two ``--checkout`` options to measure them in alternating
pairs. Each checkout's file holds the workload's provenance line, every
run's result, the median and quartiles of each end-to-end metric over
the seeds, and the median, min and max of each traced metric (the
per-layer times among them) over the traced seeds: no single run sets a
layer's number, and the spread shows how far the host drifted. A file
is labelled with its checkout's git sha (``--label`` names it instead,
for a single checkout) and goes to this repository's root, so the
checkouts must be at distinct commits. Run it on an otherwise idle
machine: the runs take about (N + 3) x run_seconds seconds per workload
and checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEEDS = 3


def git_sha(checkout: Path) -> str | None:
    """The commit checked out at ``checkout``, or None if it is not the root of a git checkout."""
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_harness(checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One harness run: its provenance/detail line and its result line."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench: {' '.join(argv)} in {checkout} failed ({proc.returncode}): {proc.stderr.strip()}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": len(detail["units"]),
        "output_sha256": detail["output_sha256"],
        "problems": detail["problems"],
        "provenance": detail["provenance"],
    }


def summarize(runs: list[dict], units: dict[str, str]) -> dict:
    """Median and quartiles (inclusive method) of each metric over the runs."""
    out = {}
    for name, unit in units.items():
        values = sorted(r["metrics"][name] for r in runs)
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out[name] = {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    return out


def trace_spread(runs: list[dict]) -> dict:
    """The median, min and max of each traced metric over the traced runs."""
    names = runs[0]["metrics"]
    values = {name: [r["metrics"][name] for r in runs] for name in names}
    return {
        "median": {name: statistics.median(v) for name, v in values.items()},
        "min": {name: min(v) for name, v in values.items()},
        "max": {name: max(v) for name, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--checkout", type=Path, action="append",
                    help="root of a checkout to measure; repeat to alternate (default: this one)")
    ap.add_argument("--seeds", type=int, default=5, help="untraced runs use seeds 1..N (default 5)")
    ap.add_argument("--label", help="file label for a single checkout (default: its git sha)")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    if args.label and len(checkouts) > 1:
        ap.error("--label names the file of a single checkout")
    specs = [json.loads((c / "BENCHMARK.json").read_text()) for c in checkouts]
    spec = specs[0]
    if any((s["workloads"], s["run_seconds"]) != (spec["workloads"], spec["run_seconds"]) for s in specs):
        ap.error("the checkouts' BENCHMARK.json differ in their workloads or run_seconds")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # refuse before any run what would give two checkouts one file name
    shas = [git_sha(c) for c in checkouts]
    if not args.label:
        for c, sha in zip(checkouts, shas):
            if sha is None:
                ap.error(f"{c} has no git sha; measure it alone with --label")
    if len(set(shas)) < len(shas):
        ap.error("two checkouts are at one commit, so their BENCH files would share one name")

    results = [{} for _ in checkouts]
    for k, w in enumerate(spec["workloads"]):
        runs = [[] for _ in checkouts]
        for seed in range(1, args.seeds + 1):
            # the checkouts take turns going first
            for i in range(len(checkouts))[:: 1 if seed % 2 else -1]:
                c = checkouts[i]
                runs[i].append(run_harness(c, specs[i]["command"], w["name"], seed, spec["run_seconds"], 0))
                print(f"bench: {c.name} {w['name']} seed {seed}: {runs[i][-1]['metrics']}", file=sys.stderr)
        traced = [[] for _ in checkouts]
        # and the traced runs seed by seed and workload by workload
        for seed in range(1, TRACE_SEEDS + 1):
            for i in range(len(checkouts))[:: 1 if (seed + k) % 2 else -1]:
                c = checkouts[i]
                traced[i].append(run_harness(c, specs[i]["command"], w["name"], seed, spec["run_seconds"], 1))
                print(f"bench: {c.name} {w['name']} traced seed {seed}", file=sys.stderr)
        for i in range(len(checkouts)):
            provenance = runs[i][0]["provenance"]
            for r in runs[i] + traced[i]:
                del r["provenance"]
            results[i][w["name"]] = {
                "provenance": provenance,
                "runs": runs[i],
                "summary": summarize(runs[i], units),
                "trace": {**trace_spread(traced[i]), "runs": traced[i]},
            }

    for spec_c, workloads, sha in zip(specs, results, shas):
        label = args.label or sha[:12]
        payload = {
            "label": label,
            "git_sha": sha,
            "command": spec_c["command"],
            "seeds": list(range(1, args.seeds + 1)),
            "seconds": spec["run_seconds"],
            "alternated_with": [other for other in shas if other != sha],
            "workloads": workloads,
        }
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
