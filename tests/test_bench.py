import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run_harness(*args, **kwargs):
        raise AssertionError("the benchmark ran")

    monkeypatch.setattr(module, "run_harness", run_harness)
    return module


def _checkout(root: Path) -> Path:
    """A one-commit git checkout holding this repository's BENCHMARK.json."""
    root.mkdir()
    shutil.copy(BENCH.parent.parent / "BENCHMARK.json", root)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    for argv in (["init", "-q"], ["add", "BENCHMARK.json"], ["commit", "-q", "-m", f"benchmark {root.name}"]):
        subprocess.run([*git, *argv], cwd=root, check=True, capture_output=True)
    return root


def test_refuses_two_checkouts_at_one_commit(bench, tmp_path, capsys):
    parent = _checkout(tmp_path / "parent")
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "-q", str(parent), str(clone)], check=True, capture_output=True)
    with pytest.raises(SystemExit) as exc:
        bench.main(["--checkout", str(parent), "--checkout", str(clone), "--seeds", "1"])
    assert exc.value.code == 2
    assert "at one commit" in capsys.readouterr().err


def test_refuses_a_checkout_without_a_sha(bench, tmp_path, capsys):
    parent = _checkout(tmp_path / "parent")
    plain = tmp_path / "plain"
    plain.mkdir()
    shutil.copy(parent / "BENCHMARK.json", plain)
    with pytest.raises(SystemExit) as exc:
        bench.main(["--checkout", str(parent), "--checkout", str(plain), "--seeds", "1"])
    assert exc.value.code == 2
    assert "has no git sha" in capsys.readouterr().err


def test_checkouts_take_turns_at_going_first_traced_and_untraced(bench, tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    calls = []

    def run_harness(checkout, command, workload, seed, seconds, trace):
        calls.append((workload, trace, checkout.name, seed))
        return {
            "seed": seed,
            "trace": trace,
            "metrics": {m["name"]: 1.0 for m in spec["end_to_end"]},
            "provenance": {},
        }

    monkeypatch.setattr(bench, "run_harness", run_harness)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--checkout", str(parent), "--checkout", str(change), "--seeds", "3"]) == 0
    first, second = ["parent", "change"], ["change", "parent"]
    for k, w in enumerate(spec["workloads"]):
        untraced = [name for workload, trace, name, _ in calls if (workload, trace) == (w["name"], 0)]
        assert untraced == first + second + first
        traced = [(name, seed) for workload, trace, name, seed in calls if (workload, trace) == (w["name"], 1)]
        order = first + second + first if k % 2 == 0 else second + first + second
        assert traced == list(zip(order, [1, 1, 2, 2, 3, 3]))
    assert len(list(tmp_path.glob("BENCH_*.json"))) == 2


def test_traces_three_seeds_and_stores_each_metrics_median(bench, tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    layers = [m["name"] for m in spec["per_layer"]]
    # a traced run's layer times: the seed's, times 10 at seed 2 (a slow
    # run), doubled for the change
    slow = {1: 1.0, 2: 10.0, 3: 3.0}

    def run_harness(checkout, command, workload, seed, seconds, trace):
        scale = 2.0 if checkout.name == "change" else 1.0
        metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}
        if trace:
            metrics = {name: scale * slow[seed] for name in layers}
        return {"seed": seed, "trace": trace, "metrics": metrics, "provenance": {}}

    monkeypatch.setattr(bench, "run_harness", run_harness)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--checkout", str(parent), "--checkout", str(change), "--seeds", "1"]) == 0
    for checkout, scale in ((parent, 1.0), (change, 2.0)):
        sha = bench.git_sha(checkout)
        payload = json.loads((tmp_path / f"BENCH_{sha[:12]}.json").read_text())
        for w in spec["workloads"]:
            trace = payload["workloads"][w["name"]]["trace"]
            assert [r["seed"] for r in trace["runs"]] == [1, 2, 3]
            assert trace["median"] == {name: 3.0 * scale for name in layers}
            assert trace["min"] == {name: 1.0 * scale for name in layers}
            assert trace["max"] == {name: 10.0 * scale for name in layers}


def test_trace_spread_is_each_metrics_median_min_and_max():
    # a pure reduction of the traced runs: nothing is run
    spec = importlib.util.spec_from_file_location("bench_spread", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = [{"metrics": {"a.s": a, "n.calls": n}} for a, n in ((0.3, 104), (0.1, 104), (0.25, 110))]
    assert module.trace_spread(runs) == {
        "median": {"a.s": 0.25, "n.calls": 104},
        "min": {"a.s": 0.1, "n.calls": 104},
        "max": {"a.s": 0.3, "n.calls": 110},
    }
