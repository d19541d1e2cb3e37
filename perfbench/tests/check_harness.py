"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest -q perfbench/tests/check_harness.py

The file name keeps these tests out of the program's own suite; the smoke
runs start the mapper and the service, so they take about a minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from qsprbench import checks, library, speed, tracer, workloads  # noqa: E402
from qsprbench.stats import TooFewSamples, geomean, percentile  # noqa: E402

from repro.runner.spec import ExperimentSpec, FabricCell  # noqa: E402

TINY = FabricCell(junction_rows=4, junction_cols=4)


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    values = list(range(1, 200))
    with pytest.raises(TooFewSamples):
        percentile(values, 95)
    assert percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([5.0]) == pytest.approx(5.0)
    assert geomean([1e-3, 1e3, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([])


def test_reference_critical_path_matches_the_paper_baselines():
    from repro.circuits.qecc import QECC_BENCHMARKS
    from repro.technology import PAPER_TECHNOLOGY

    for name, bench in QECC_BENCHMARKS.items():
        circuit = ExperimentSpec(name).build_circuit()
        assert checks.reference_ideal_latency(circuit, PAPER_TECHNOLOGY) == bench.paper_baseline_us


def test_schedule_check_rejects_reordered_qubit_gates():
    circuit = ExperimentSpec("[[5,1,3]]").build_circuit()
    order = list(range(circuit.num_instructions))
    assert checks.schedule_problems(circuit, order) == []
    assert checks.schedule_problems(circuit, order[:-1])
    assert checks.schedule_problems(circuit, list(reversed(order)))


def test_latency_check_rejects_a_latency_below_the_ideal():
    spec = ExperimentSpec("[[5,1,3]]")
    circuit = spec.build_circuit()
    assert checks.latency_problems(spec, circuit, 600.0, 510.0) == []
    assert checks.latency_problems(spec, circuit, 500.0, 510.0)
    assert checks.latency_problems(spec, circuit, 600.0, 520.0)


def test_service_jobs_are_distinct_and_offer_the_stated_load():
    poisson, gaps, burst = workloads.service_poisson_jobs(7)
    jobs = poisson + burst
    assert len(poisson) == workloads.SERVICE_JOBS
    assert len(burst) == workloads.SERVICE_BURST_JOBS
    assert len({spec.cache_key() for spec in jobs}) == len(jobs)
    assert sum(gaps) == pytest.approx(
        workloads.SERVICE_JOBS / workloads.SERVICE_RATE_PER_S, rel=0.05
    )
    again = workloads.service_poisson_jobs(7)
    assert [s.cache_key() for s in again[0]] == [s.cache_key() for s in poisson]
    assert again[1] == gaps
    other = workloads.service_poisson_jobs(8)
    assert [s.cache_key() for s in other[2]] == [s.cache_key() for s in burst]


def test_paper_jobs_set_the_papers_seed_count():
    assert all(spec.num_seeds == 25 for spec in workloads.paper_mvfb_jobs(3))


def _tiny_specs():
    return [
        ExperimentSpec("[[5,1,3]]", placer="mvfb", num_seeds=1, fabric=TINY),
        ExperimentSpec("[[7,1,3]]", placer="center", technology="cap-1", fabric=TINY),
        ExperimentSpec("[[5,1,3]]", mapper="quale", fabric=TINY),
    ]


@pytest.mark.parametrize("worker_path", [False, True])
def test_traced_run_restores_every_wrapper_and_keeps_latencies(worker_path):
    from repro.runner import executor
    from repro.service import worker

    specs = _tiny_specs()
    untraced = library.run_pass(specs, worker_path=worker_path)
    tracer_ = tracer.Tracer()
    tracer_.install()
    patched = tracer_.installed
    assert patched
    originals = {(id(owner), attr): original for owner, attr, original in patched}
    traced = library.run_pass(specs, tracer=tracer_, worker_path=worker_path)
    tracer_.uninstall()
    assert tracer_.installed == []
    for owner, attr, original in patched:
        assert tracer._raw_attribute(owner, attr) is originals[(id(owner), attr)]
    assert executor.map_spec is worker.map_spec
    assert executor.map_spec.__name__ == "map_spec"
    assert [row.latency for row in traced] == [row.latency for row in untraced]
    assert all(not row.problems for row in untraced + traced)
    metrics = library.layer_metrics(tracer_, traced)
    assert metrics["placement.runs"][0] == sum(row.placement_runs for row in traced)
    assert metrics["sim.trace_commands"][0] > 0
    assert 0.0 < metrics["sim.trace_kept_frac"][0] <= 1.0


def test_sampler_scales_by_its_own_kernel_runs_and_leaves_them_out():
    sampler = speed.SpeedSampler()
    warmup = sampler.spent
    with sampler:
        start = time.thread_time()
        while time.thread_time() - start < 0.2:
            sum(range(1000))
        end = time.thread_time()
    assert len(sampler.took) >= 5
    assert sampler.spent == pytest.approx(warmup + sum(sampler.took))
    mean = sum(sampler.took) / len(sampler.took)
    assert sampler.scale(2.0, start, end) == pytest.approx(
        2.0 * speed.REFERENCE_KERNEL_S / mean
    )


def test_service_cpu_is_scaled_per_process_less_its_kernel_runs(tmp_path):
    from qsprbench import service

    record = speed.SharedRecord(str(tmp_path / "speed.bin"))
    record.write(0, 101, 10, 0.002)
    record.write(1, 102, 0, 0.0)
    assert record.read() == {101: (10, 0.002), 102: (0, 0.0)}
    before = {101: (1.0, 10, 0.002)}
    after = {101: (3.0, 20, 0.004), 102: (0.5, 0, 0.0)}
    # pid 101 ran 10 kernels of 0.2 ms in between; pid 102 none, so raw.
    expected = (2.0 - 0.002) * speed.REFERENCE_KERNEL_S / 0.0002 + 0.5
    assert service.scaled_cpu(before, after) == pytest.approx(expected)


def test_layer_self_time_subtracts_direct_children_only():
    spans = tracer.Tracer()
    outer = spans.begin("sim.run")
    inner = spans.begin("routing.plan")
    kernel = spans.begin("routing.kernel")
    spans.end(kernel)
    spans.end(inner)
    spans.end(outer)
    spans.span_start[outer], spans.span_end[outer] = 0.0, 10.0
    spans.span_start[inner], spans.span_end[inner] = 1.0, 7.0
    spans.span_start[kernel], spans.span_end[kernel] = 2.0, 4.0
    totals = spans.layer_totals()
    assert totals["sim.run"]["self_seconds"] == pytest.approx(4.0)
    assert totals["routing.plan"]["self_seconds"] == pytest.approx(4.0)
    assert totals["routing.kernel"]["seconds"] == pytest.approx(2.0)


def _run_bench(*args, cwd=REPO_ROOT):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _declared(kind):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as config:
        return {metric["name"]: metric["unit"] for metric in json.load(config)[kind]}


def _assert_reports_every_declared_metric(metrics, kind):
    assert {name: metric["unit"] for name, metric in metrics.items()} == _declared(kind)
    assert all(math.isfinite(m["value"]) and m["value"] >= 0 for m in metrics.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_library_workload(trace):
    done = _run_bench(
        "--workload", "cap1-single-pass", "--seed", "2", "--seconds", "1", "--trace", trace
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    _assert_reports_every_declared_metric(
        result["metrics"], "per_layer" if trace == "1" else "end_to_end"
    )


def test_smoke_paper_workload_builds_every_job():
    from repro.circuits.qecc import BENCHMARK_NAMES

    specs = workloads.paper_mvfb_jobs(1)
    assert [spec.circuit for spec in specs] == list(BENCHMARK_NAMES)
    assert all(spec.build_circuit().num_instructions > 0 for spec in specs)
    rows = library.run_pass([ExperimentSpec("[[5,1,3]]", num_seeds=2, fabric=TINY)])
    assert rows[0].latency is not None and not rows[0].problems


def test_smoke_service_workload(monkeypatch):
    from qsprbench import service

    # Single-seed [[5,1,3]] jobs map in milliseconds, so the 70 Poisson jobs
    # (the p85 a run prints needs ten samples beyond it) arrive and drain
    # within seconds.
    monkeypatch.setattr(service, "SETUP_PROBES_EACH_SIDE", 0)
    monkeypatch.setattr(workloads, "SERVICE_ENCODERS", ("[[5,1,3]]",))
    monkeypatch.setattr(workloads, "SERVICE_NUM_SEEDS", 1)
    monkeypatch.setattr(workloads, "SERVICE_BURST_JOBS", 6)
    monkeypatch.setattr(workloads, "SERVICE_RATE_PER_S", 40.0)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    run = service.run_service(
        3, env=env, cwd=REPO_ROOT, state_root=os.path.join(BENCH_DIR, "out")
    )
    assert run.failed == 0 and run.problems == []
    assert run.attempted == workloads.SERVICE_JOBS + 6
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()}
    _assert_reports_every_declared_metric(metrics, "end_to_end")
    assert any(note.startswith("service path") for note in run.notes)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    with open(os.path.join(BENCH_DIR, "run.py")) as source:
        (bench / "run.py").write_text(source.read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "paper-mvfb", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
