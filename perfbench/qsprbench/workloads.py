"""The job lists of the three workloads, generated from the benchmark seed.

The program only ever sees the generated :class:`ExperimentSpec` objects (or
their JSON form over HTTP); the seed itself never reaches it.
"""

from __future__ import annotations

import math
import random

from repro.circuits.qecc import BENCHMARK_NAMES
from repro.runner.spec import ExperimentSpec, FabricCell

#: The paper's default MVFB seed count (Tables 1 and 2).  ``ExperimentSpec``
#: defaults to 3, so every paper job sets it explicitly.
PAPER_NUM_SEEDS = 25

#: Encoders of the service workload: small enough that one worker maps about
#: ten jobs per second.
SERVICE_ENCODERS = ("[[5,1,3]]", "[[7,1,3]]")
SERVICE_NUM_SEEDS = 3

#: Poisson arrival rate of the service workload, about a sixth of what one
#: worker completes under a standing backlog on a 2-core host.  A job that
#: arrives while the worker is busy waits for CPU-bound work, which moves
#: with the host's speed: at 3.5 jobs/s (a quarter load) the completion
#: times rose by a quarter between two sets of runs while the host ran slow.
SERVICE_RATE_PER_S = 2.5

#: Jobs of the Poisson phase, about 30 s of arrivals; the p85 it prints needs
#: ten samples beyond it.
SERVICE_JOBS = 75

#: Jobs of the burst that follows the Poisson phase: posted back to back, so
#: the service maps them under a standing backlog on a warm worker.
SERVICE_BURST_JOBS = 60

#: Random seeds of the burst jobs; disjoint from the Poisson jobs' seeds so
#: the store's content-hash dedup never answers, and the same in every run so
#: the burst does the same work whatever the benchmark seed.
_BURST_SEED_BASE = 2_000_000
_POISSON_SEED_RANGE = (1, 1_000_000)


#: Encoders that keep ``ExperimentSpec``'s default MVFB random seed (0), the
#: job ``qspr-map run`` maps.  They are about three quarters of a pass, and
#: the number of simulations MVFB runs on them moves by up to a fifth with
#: the random seed, which would swamp the pass wall with input variation.
PAPER_FIXED_SEED_ENCODERS = ("[[14,8,3]]", "[[19,1,7]]", "[[23,1,7]]")


def paper_mvfb_jobs(seed: int) -> list[ExperimentSpec]:
    """QSPR + MVFB at m=25 on the six QECC encoders of Tables 1 and 2.

    The benchmark seed draws the MVFB random seeds of the three smaller
    encoders; the larger ones keep the default (see
    :data:`PAPER_FIXED_SEED_ENCODERS`).
    """
    rng = random.Random(f"paper-mvfb:{seed}")
    jobs = []
    for name in BENCHMARK_NAMES:
        drawn = rng.randrange(2**31)
        jobs.append(
            ExperimentSpec(
                name,
                mapper="qspr",
                placer="mvfb",
                num_seeds=PAPER_NUM_SEEDS,
                random_seed=0 if name in PAPER_FIXED_SEED_ENCODERS else drawn,
                technology="paper",
                fabric=FabricCell.quale(),
            )
        )
    return jobs


def cap1_single_pass_jobs(seed: int) -> list[ExperimentSpec]:
    """One simulation per job on capacity-1 channels.

    The 96-qubit circuit keeps circuit seed 3 (the flagship case of
    ``BENCH_perf.json``): it is most of the pass, and a different circuit
    per benchmark seed would swamp the pass wall with input variation.  The
    48-qubit circuit is drawn from the benchmark seed.
    """
    rng = random.Random(f"cap1-single-pass:{seed}")
    circuits = (
        "qecc-scaled:dist=9",
        "qecc-scaled:dist=13",
        f"random-layered:q=48:d=16:fill=1.0:locality=3:seed={rng.randrange(1, 10**6)}",
        "random-layered:q=96:d=64:fill=1.0:locality=3:seed=3",
    )
    jobs = [ExperimentSpec(name, placer="center", technology="cap-1") for name in circuits]
    jobs += [
        ExperimentSpec(name, mapper=mapper)
        for mapper in ("quale", "qpos")
        for name in BENCHMARK_NAMES
    ]
    return jobs


#: The closed-loop workloads' job lists.
LIBRARY_JOBS = {
    "paper-mvfb": paper_mvfb_jobs,
    "cap1-single-pass": cap1_single_pass_jobs,
}

def traced_jobs(workload: str, seed: int) -> list[ExperimentSpec]:
    """The job list a traced run maps: a library workload's own list, or the
    service workload's Poisson jobs."""
    if workload in LIBRARY_JOBS:
        return LIBRARY_JOBS[workload](seed)
    return service_poisson_jobs(seed)[0]


def _service_spec(circuit: str, random_seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        circuit, placer="mvfb", num_seeds=SERVICE_NUM_SEEDS, random_seed=random_seed
    )


def service_poisson_jobs(
    seed: int,
) -> tuple[list[ExperimentSpec], list[float], list[ExperimentSpec]]:
    """Poisson-phase jobs, their inter-arrival gaps, and the burst's jobs.

    The arrival trace is the same in every run: the gaps are the
    :data:`SERVICE_JOBS` stratified quantiles of the exponential
    distribution in a fixed random order, and each encoder gets an equal
    share of the arrivals, also in a fixed order.  Arrivals are
    Poisson-shaped and every run offers exactly the same load and the same
    queueing pattern; the seed draws each job's MVFB random seed, which
    changes the mapping work and the results.
    """
    count = SERVICE_JOBS
    trace = random.Random(f"service-poisson-trace:{count}")
    circuits = [SERVICE_ENCODERS[i % len(SERVICE_ENCODERS)] for i in range(count)]
    trace.shuffle(circuits)
    gaps = [
        -math.log(1.0 - (i + 0.5) / count) / SERVICE_RATE_PER_S for i in range(count)
    ]
    trace.shuffle(gaps)
    burst = [
        _service_spec(SERVICE_ENCODERS[i % len(SERVICE_ENCODERS)], _BURST_SEED_BASE + i)
        for i in range(SERVICE_BURST_JOBS)
    ]
    trace.shuffle(burst)
    random_seeds = random.Random(f"service-poisson:{seed}").sample(
        range(*_POISSON_SEED_RANGE), count
    )
    poisson = [_service_spec(c, s) for c, s in zip(circuits, random_seeds)]
    return poisson, gaps, burst
