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
        calls.append((workload, trace, checkout.name))
        return {
            "seed": seed,
            "trace": trace,
            "metrics": {m["name"]: 1.0 for m in spec["end_to_end"]},
            "provenance": {},
        }

    monkeypatch.setattr(bench, "run_harness", run_harness)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--checkout", str(parent), "--checkout", str(change), "--seeds", "3"]) == 0
    for k, w in enumerate(spec["workloads"]):
        untraced = [name for workload, trace, name in calls if (workload, trace) == (w["name"], 0)]
        assert untraced == ["parent", "change", "change", "parent", "parent", "change"]
        traced = [name for workload, trace, name in calls if (workload, trace) == (w["name"], 1)]
        assert traced == (["parent", "change"] if k % 2 == 0 else ["change", "parent"])
    assert len(list(tmp_path.glob("BENCH_*.json"))) == 2
