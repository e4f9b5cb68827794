"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run  # pins BLAS threads and puts src/ on the path first
import rdsvar
import rdsvar.bootstrap
import rdsvar.experiment
import workloads as wl
from hostclock import REF_CPU_S, HostClock
from spans import Tracer, traced

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_DESK = {"n_nodes": 400, "target_n": 60, "n_bootstrap": 20, "n_setups": 2}
TINY = {
    "desk-n1000": dataclasses.replace(wl.WORKLOADS["desk-n1000"], n_replications=3, **TINY_DESK),
    "widthref-n1000-w2": dataclasses.replace(
        wl.WORKLOADS["widthref-n1000-w2"], n_replications=2, n_width_reference=100, **TINY_DESK
    ),
    "oracle-tiny": dataclasses.replace(wl.WORKLOADS["oracle-tiny"], n_forests=4, n_bootstrap=4000, n_setups=2),
}
needs_two_cores = pytest.mark.skipif(run.nproc() < 2, reason="needs 2 cores")


def run_main(capsys, *argv):
    code = run.main(list(argv), workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_runs_and_prints_every_metric(capsys, name, trace):
    if TINY[name].workers > run.nproc():
        pytest.skip("needs more cores")
    code, result, detail = run_main(capsys, "--workload", name, "--seconds", "0", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
    assert detail["provenance"]["nproc"] == run.nproc()
    assert detail["provenance"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_run_draws_the_same_numbers(tmp_path):
    w = TINY["desk-n1000"]
    state, _, problems = wl.setup(w, 0, tmp_path)
    assert problems == []
    plain = wl.run_unit(w, state, 1)
    original = rdsvar.experiment.simulate_rds
    tracer = Tracer()
    with traced(tracer):
        traced_unit = wl.run_unit(w, state, 1)
    assert rdsvar.experiment.simulate_rds is original
    assert traced_unit.output == plain.output
    assert tracer.counts["simulate.calls"] == w.n_replications + w.n_width_reference
    assert 0.0 < tracer.self_seconds("experiment.run_full") < tracer.totals()["experiment.run_full"]


def test_tracing_leaves_out_entry_points_a_module_no_longer_has(monkeypatch):
    monkeypatch.delattr(rdsvar.bootstrap, "generator")
    original = rdsvar.experiment.generator
    with traced(Tracer()):
        assert not hasattr(rdsvar.bootstrap, "generator")
        assert rdsvar.experiment.generator is not original
    assert rdsvar.experiment.generator is original


@needs_two_cores
def test_desk_report_is_the_same_at_one_and_two_workers(tmp_path):
    w = TINY["desk-n1000"]
    state, _, _ = wl.setup(w, 0, tmp_path)
    assert wl.run_unit(w, state, 1).output == wl.run_unit(w, state, 2).output


def test_report_check_flags_a_bad_report(tmp_path):
    w = TINY["desk-n1000"]
    state, _, _ = wl.setup(w, 0, tmp_path)
    report = rdsvar.run_full(state.cfg, state.graph, state.attrs)
    assert wl.check_report(report, state.cfg, state.schema) == []
    report.rows[0].coverage = 1.5
    report.rows.pop()
    problems = wl.check_report(report, state.cfg, state.schema)
    assert any("schema" in p for p in problems)
    assert any("report rows" in p for p in problems)
    assert any("coverage" in p for p in problems)


def test_oracle_check_fails_a_biased_resampler(capsys, monkeypatch):
    honest = rdsvar.mc_bootstrap_moments

    def biased(*args, **kwargs):
        mm = honest(*args, **kwargs)
        return dataclasses.replace(mm, mean=mm.mean + 10 * wl.MC_GATE_SE * mm.se_mean + 1e-3)

    monkeypatch.setattr(rdsvar, "mc_bootstrap_moments", biased)
    code, result, detail = run_main(capsys, "--workload", "oracle-tiny", "--seconds", "0")
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert detail["problems"]


def test_refuses_more_workers_than_cores(capsys, monkeypatch):
    monkeypatch.setattr(run, "nproc", lambda: 1)
    assert run.main(["--workload", "widthref-n1000-w2"], workloads=TINY) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-tiny", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_host_clock_leaves_out_its_samples_and_scales_by_host_speed():
    clock = HostClock()
    clock.samples = [(0.2, 0.3, 2 * REF_CPU_S), (5.0, 5.1, REF_CPU_S)]
    assert clock.seconds(0.0, 1.0) == pytest.approx((1.0 - 0.1) * 0.5)
    # no sample inside the interval: the mean of all samples so far
    assert clock.speed(2.0, 3.0) == pytest.approx(REF_CPU_S / (1.5 * REF_CPU_S))


def test_host_clock_samples_while_active_and_restores_the_alarm_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with HostClock(interval=0.01) as clock:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert len(clock.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < clock.seconds(t0, perf_counter()) < perf_counter() - t0 + 1.0
