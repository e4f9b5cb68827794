import importlib.util
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
    for argv in (["init", "-q"], ["add", "BENCHMARK.json"], ["commit", "-q", "-m", "benchmark"]):
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
