"""The routing profiler maps the jobs the whole-job benchmark maps."""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

from repro.circuits.qecc import BENCHMARK_NAMES, qecc_encoder
from repro.routing.path import stationary_plan
from repro.runner import ExperimentSpec, FabricCell
from repro.sim.engine import InstructionRecord
from repro.sim.events import InstructionCompleted

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

from profile_routing import (  # noqa: E402
    NUM_SEEDS,
    StackSampler,
    build_parser,
    job_spec,
    main,
)

#: The largest job of the cap1-single-pass workload, as the tool's docstring
#: gives it.
CAP1_LARGEST = "random-layered:q=96:d=64:fill=1.0:locality=3:seed=3"


def _spec(argv: list[str]) -> ExperimentSpec:
    return job_spec(build_parser().parse_args(argv))


def test_default_job_is_the_largest_paper_mvfb_encoder():
    spec = _spec([])
    assert spec.circuit in BENCHMARK_NAMES
    # paper-mvfb maps every bundled encoder; the default is the longest.
    sizes = {name: len(qecc_encoder(name).instructions) for name in BENCHMARK_NAMES}
    assert sizes[spec.circuit] == max(sizes.values())
    assert (spec.mapper, spec.placer, spec.technology) == ("qspr", "mvfb", "paper")


def test_jobs_map_on_quale_with_mvfb_seed_count():
    spec = _spec(["[[23,1,7]]", "--placer", "monte-carlo"])
    assert spec.fabric == FabricCell.quale()
    assert spec.num_seeds == NUM_SEEDS == 25
    assert spec.placer == "monte-carlo"


def test_technology_option_selects_the_cap1_job():
    spec = _spec([CAP1_LARGEST, "--placer", "center", "--technology", "cap-1"])
    # The cap1-single-pass job up to the seed count, which the center
    # placer never draws on.
    workload_job = ExperimentSpec(CAP1_LARGEST, placer="center", technology="cap-1")
    assert spec.fabric == workload_job.fabric
    assert (spec.circuit, spec.mapper, spec.placer, spec.technology) == (
        workload_job.circuit,
        workload_job.mapper,
        workload_job.placer,
        workload_job.technology,
    )


def test_mapper_option_selects_the_baseline_jobs():
    # cap1-single-pass maps every encoder under both presets, which fix
    # their own placement and ignore the placer and seed axes.
    for mapper in ("quale", "qpos"):
        spec = _spec(["[[19,1,7]]", "--mapper", mapper])
        workload_job = ExperimentSpec("[[19,1,7]]", mapper=mapper)
        assert spec.normalized() == workload_job.normalized()


def test_profiles_a_barrier_run(capsys):
    assert main(["[[5,1,3]]", "--mapper", "quale", "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[[5,1,3]] quale on quale-")
    assert lines[1].startswith("  winning run: routing ")


def test_prints_summary_lines_then_routing_frames(capsys):
    assert main(["[[5,1,3]]", "--placer", "center", "--top", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[[5,1,3]] qspr/center on quale-")
    assert "latency" in lines[0]
    assert lines[1].startswith("  winning run: routing ")
    assert "searches" in lines[1] and "cache hits" in lines[1]
    # The default filter keeps only frames of the routing package.
    frames = [line for line in lines if "(" in line and ".py:" in line]
    assert 0 < len(frames) <= 3
    assert all("routing" in line for line in frames)


def _shares(line: str) -> tuple[float, float, str]:
    self_share, inclusive_share, label = line.split(maxsplit=2)
    return float(self_share.rstrip("%")), float(inclusive_share.rstrip("%")), label


def test_sample_mode_prints_self_and_inclusive_shares(capsys):
    argv = ["[[5,1,3]]", "--placer", "center", "--sample", "--filter", "", "--top", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[[5,1,3]] qspr/center on quale-")
    assert lines[1].startswith("  winning run: routing ")
    header = re.fullmatch(r"(\d+) samples over ([\d.]+) s of process CPU", lines[3])
    assert header is not None
    assert lines[4].split() == ["self", "incl", "frame"]
    rows = [_shares(line) for line in lines[5:]]
    assert len(rows) <= 4
    for self_share, inclusive_share, label in rows:
        assert 0.0 <= self_share <= inclusive_share <= 100.0
        assert re.fullmatch(r".+:\d+\(.+\)", label)
    if int(header.group(1)):
        # Sorted by inclusive share: the job's entry point is on every
        # sampled stack.
        assert rows[0][1] == 100.0


def test_sampler_gives_each_generated_constructor_its_own_row():
    # Every dataclass ``__init__`` and every NamedTuple constructor is
    # generated code in ``<string>``; the row names the record's class.
    sampler = StackSampler()

    def sample_generated_frames(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "<string>":
            sampler._sample(None, frame)

    sys.setprofile(sample_generated_frames)
    try:
        stationary_plan("q", 3)
        InstructionCompleted(0, 3)
        InstructionRecord(index=0, ready_time=0.0)
    finally:
        sys.setprofile(None)
    owners = []
    for label in sampler.self_counts:
        match = re.fullmatch(r"<string>:\d+\((\w+)\.[^()]+\)", label)
        assert match is not None, label
        owners.append(match.group(1))
    assert sorted(owners) == ["InstructionCompleted", "InstructionRecord", "RoutePlan"]


def _spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_sampler_charges_the_running_frame(capsys):
    with StackSampler() as sampler:
        _spin(0.2)
    assert sampler.cpu_seconds >= 0.2
    assert sampler.samples > 0
    sampler.print_report("_spin", 1, inclusive=False)
    (row,) = capsys.readouterr().out.splitlines()[2:]
    self_share, inclusive_share, label = _shares(row)
    assert label.endswith("(_spin)")
    assert self_share > 50.0 and inclusive_share > 50.0
