"""The open-loop service workload against ``qspr-map serve --workers 1``.

One submitting thread posts each job when it is due, over one connection at
a time, whatever the service is doing; a job's completion time runs from its
due time to its ``finished_at``, so a stall also delays every job queued
behind it.  Due times and the service's job timestamps are both
``time.time()`` on one host.  A burst after the Poisson phase posts a further
job list at once, and the service's CPU time for mapping it under a standing
backlog is read from ``/proc`` and scaled to the reference speed by kernel
runs in the service's own processes (``qsprbench/speed.py``).  The service
path split (submit, queue wait, execution, mapping) comes from the jobs' own
records read over the API; no function inside the server is wrapped.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from qsprbench import checks
from qsprbench.library import BENCH_DIR, compile_bytecode
from qsprbench.speed import REFERENCE_KERNEL_S, SharedRecord
from qsprbench.stats import MIN_SAMPLES_BEYOND, geomean, percentile
from qsprbench.workloads import SERVICE_JOBS, service_poisson_jobs

#: Set-up-only service launches before and after the measured one; the
#: median of all three launches is ``setup_s``.
SETUP_PROBES_EACH_SIDE = 1

#: A run is invalid when the generator posts any job later than this after
#: its due time: the offered load would no longer be the stated one.
MAX_LATENESS_S = 0.25

#: Seconds a phase may take to drain after its last submission.
DRAIN_TIMEOUT_S = 60.0

#: Seconds between the queue checks of a drain; each check costs the server
#: a request, which is counted in the burst's CPU time.
DRAIN_POLL_S = 0.2

_HTTP_TIMEOUT_S = 30.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _http(method: str, url: str, payload: dict | None = None) -> tuple[int, dict]:
    """Status and JSON body of one request; status 0 when nothing answered."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=_HTTP_TIMEOUT_S) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, {}
    except OSError:  # refused, reset or timed out: counted by the caller
        return 0, {}


#: Runs ``qspr-map serve`` with the arguments after the record path, with
#: the speed kernel sampled in the server and in every worker it forks.
_SAMPLED_SERVE = (
    "import sys; from qsprbench.speed import sample_into; sample_into(sys.argv[1]); "
    "from repro.cli import main; sys.exit(main(sys.argv[2:]))"
)


class Server:
    """One ``qspr-map serve`` process and the workers it forks.

    The server starts under :func:`qsprbench.speed.sample_into`, so the
    harness can scale the CPU time of each process to the reference speed
    (see ``qsprbench/speed.py``); the service's own code is not wrapped.
    """

    def __init__(self, env: dict, cwd: str, state_dir: str) -> None:
        os.makedirs(state_dir, exist_ok=True)
        self._stderr = open(os.path.join(state_dir, "serve.stderr"), "wb")
        record_path = os.path.join(state_dir, "speed.bin")
        self.record = SharedRecord(record_path)
        env = dict(env, PYTHONPATH=BENCH_DIR + os.pathsep + env.get("PYTHONPATH", ""))
        launched = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-c", _SAMPLED_SERVE, record_path, "serve",
                "--port", "0", "--workers", "1", "--no-cache", "--out", state_dir,
            ],
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self.children: set[int] = set()
        try:
            self.url = self._read_url(deadline=launched + 60.0)
            while True:
                status, health = _http("GET", self.url + "/healthz")
                if status == 200 and health.get("workers", 0) >= 1:
                    break
                if time.perf_counter() > launched + 60.0:
                    raise RuntimeError("service worker did not come alive within 60 s")
                time.sleep(0.005)
            self.ready_wall_s = time.perf_counter() - launched
            ready = self.snapshot()
            self.ready_cpu_s = sum(cpu for cpu, _, _ in ready.values())
            self.ready_scaled_s = scaled_cpu({}, ready)
            self.children = _children(self.process.pid)
        except BaseException:
            self.stop()
            raise

    def _read_url(self, deadline: float) -> str:
        stream = self.process.stdout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
                raise RuntimeError("qspr-map serve did not report its address")
            chunk = os.read(stream.fileno(), 1)
            if not chunk:
                raise RuntimeError("qspr-map serve exited before listening")
            line += chunk
        return line.decode().rsplit(" ", 1)[-1].strip()

    def snapshot(self) -> dict[int, tuple[float, int, float]]:
        """Per process of the service: CPU seconds (user plus system, every
        thread), kernel runs and kernel seconds so far."""
        kernel = self.record.read()
        return {
            pid: (_cpu_ticks(pid) / _CLOCK_TICKS, *kernel.get(pid, (0, 0.0)))
            for pid in self._pids()
        }

    def peak_rss_mb(self) -> float:
        """The larger peak RSS of the server and its workers."""
        return max(_peak_rss_kb(pid) for pid in self._pids()) / 1024.0

    def _pids(self) -> set[int]:
        return {self.process.pid} | _children(self.process.pid)

    def stop(self) -> None:
        """Graceful SIGTERM drain; anything still alive afterwards is killed."""
        self.children |= _children(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        for pid in self.children:
            _kill_and_reap(pid)
        self._stderr.close()
        self.record.close()


def scaled_cpu(before: dict, after: dict) -> float:
    """CPU seconds the service spent between two snapshots, less the kernel
    runs, each process's share scaled by its own kernel runs in between (a
    process with none in between, such as a worker just forked, counts raw)."""
    total = 0.0
    for pid, (cpu, runs, kernel) in after.items():
        cpu0, runs0, kernel0 = before.get(pid, (0.0, 0, 0.0))
        spent = cpu - cpu0 - (kernel - kernel0)
        if runs > runs0:
            spent *= REFERENCE_KERNEL_S * (runs - runs0) / (kernel - kernel0)
        total += spent
    return total


def worker_scale(server_pid: int, before: dict, after: dict) -> float:
    """Reference kernel time over the workers' mean kernel time between two
    snapshots: the factor that takes their CPU time to the reference speed."""
    runs = kernel = 0.0
    for pid, (_, runs1, kernel1) in after.items():
        if pid != server_pid:
            _, runs0, kernel0 = before.get(pid, (0.0, 0, 0.0))
            runs += runs1 - runs0
            kernel += kernel1 - kernel0
    return REFERENCE_KERNEL_S * runs / kernel if kernel else 1.0


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> set[int]:
    """Live processes whose parent is ``pid``."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None and int(fields[1]) == pid:
                found.add(int(entry))
    return found


def _cpu_ticks(pid: int) -> int:
    """utime + stime of every thread of ``pid``, live or exited, in clock ticks."""
    fields = _proc_stat(pid)
    return int(fields[11]) + int(fields[12]) if fields is not None else 0


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _kill_and_reap(pid: int) -> None:
    """Kill a leftover worker and wait until it has gone."""
    deadline = time.monotonic() + 10.0
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while time.monotonic() < deadline and os.path.exists(f"/proc/{pid}"):
        fields = _proc_stat(pid)
        if fields is None or fields[0] == "Z":
            return  # a zombie holds no resources; its parent reaps it
        time.sleep(0.01)


@dataclass
class Submission:
    """One job as the generator saw it."""

    spec: object
    due: float
    burst: bool = False
    sent: float = 0.0
    acked: float = 0.0
    job_id: str | None = None
    record: dict | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class ServiceRun:
    """What the service workload measured, ready for reporting."""

    metrics: dict[str, tuple[float, str]]
    submissions: list[Submission]
    problems: list[str]
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.submissions)

    @property
    def failed(self) -> int:
        return sum(1 for sub in self.submissions if sub.problems)


def _submit(url: str, sub: Submission) -> None:
    sub.sent = time.time()
    status, body = _http("POST", url + "/jobs", {"spec": sub.spec.to_dict()})
    sub.acked = time.time()
    if status == 429:
        sub.problems.append("refused (429)")
    elif status != 201:
        sub.problems.append(f"submission answered {status}")
    elif body.get("created") != 1:
        sub.problems.append("submission was deduplicated")
    else:
        sub.job_id = body["jobs"][0]["id"]


def _drain(url: str) -> None:
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        status, health = _http("GET", url + "/healthz")
        if status == 200 and health["queue_depth"] == 0 and health["running"] == 0:
            return
        time.sleep(DRAIN_POLL_S)


def run_service(seed: int, *, env: dict, cwd: str, state_root: str) -> ServiceRun:
    """Set-up launches, the Poisson phase and the burst, then the records."""
    poisson, gaps, burst = service_poisson_jobs(seed)
    state = os.path.join(state_root, f"service-{os.getpid()}")
    shutil.rmtree(state, ignore_errors=True)
    compile_bytecode(env)
    launches: list[Server] = []

    def probe_setup(label: str) -> None:
        probe = Server(env, cwd, os.path.join(state, label))
        launches.append(probe)
        probe.stop()

    try:
        for sample in range(SETUP_PROBES_EACH_SIDE):
            probe_setup(f"setup-before-{sample}")
        server = Server(env, cwd, os.path.join(state, "measured"))
        launches.append(server)
        try:
            start = server.snapshot()
            submissions = _poisson_phase(server.url, poisson, gaps)
            before = server.snapshot()
            scale = worker_scale(server.process.pid, start, before)
            burst_wall = time.perf_counter()
            submissions += _post_burst(server.url, burst)
            after = server.snapshot()
            burst_wall = time.perf_counter() - burst_wall
            burst_cpu = (
                sum(cpu for cpu, _, _ in after.values()) - sum(cpu for cpu, _, _ in before.values()),
                scaled_cpu(before, after),
            )
            for sub in submissions:
                if sub.job_id is not None:
                    status, record = _http("GET", f"{server.url}/jobs/{sub.job_id}")
                    sub.record = record if status == 200 else None
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        for sample in range(SETUP_PROBES_EACH_SIDE):
            probe_setup(f"setup-after-{sample}")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return _summarise(submissions, launches, scale, burst_cpu, burst_wall, rss)


def _poisson_phase(url: str, poisson, gaps) -> list[Submission]:
    """Post each job when it is due, then wait for the queue to drain."""
    submissions = []
    due = time.time() + 0.5
    for spec, gap in zip(poisson, gaps):
        due += gap
        sub = Submission(spec, due)
        wait = due - time.time()
        if wait > 0:
            time.sleep(wait)
        _submit(url, sub)
        submissions.append(sub)
    _drain(url)
    return submissions


def _post_burst(url: str, burst) -> list[Submission]:
    """Post every job of the burst back to back, then wait for the queue to drain."""
    submissions = []
    for spec in burst:
        sub = Submission(spec, time.time(), burst=True)
        _submit(url, sub)
        submissions.append(sub)
    _drain(url)
    return submissions


def _check(sub: Submission, circuits: dict) -> None:
    record = sub.record
    if sub.problems:
        return
    if record is None:
        sub.problems.append("job record unavailable")
        return
    if record["status"] != "done":
        sub.problems.append(f"job ended {record['status']}: {record.get('error')}")
        return
    result = record["result"]
    spec = sub.spec
    if spec.circuit not in circuits:
        circuits[spec.circuit] = spec.build_circuit()
    sub.problems += checks.latency_problems(
        spec, circuits[spec.circuit], result["latency"], result["ideal_latency"]
    )
    if result["circuit"] != spec.circuit or result["random_seed"] != spec.random_seed:
        sub.problems.append("result belongs to another spec")


def _summarise(
    submissions: list[Submission],
    launches: list[Server],
    scale: float,
    burst_cpu: tuple[float, float],
    burst_wall: float,
    rss: float,
) -> ServiceRun:
    circuits: dict = {}
    for sub in submissions:
        _check(sub, circuits)
    good = [sub for sub in submissions if not sub.problems]
    steady = [sub for sub in good if not sub.burst]
    burst = [sub for sub in good if sub.burst]
    problems = []

    lateness = sorted(sub.sent - sub.due for sub in submissions if not sub.burst)
    lateness_p99 = statistics.quantiles(lateness, n=100)[98]
    if lateness[-1] > MAX_LATENESS_S:
        problems.append(
            f"run invalid: generator posted a job {lateness[-1]:.3f} s late "
            f"(bound {MAX_LATENESS_S} s)"
        )
    if len(steady) < SERVICE_JOBS or not burst:
        problems.append(
            f"too few completed jobs to report: {len(steady)} poisson, {len(burst)} burst"
        )
        return ServiceRun({}, submissions, problems)

    jct = [sub.record["finished_at"] - sub.due for sub in steady]
    # Execution is CPU-bound in the worker and is taken to the reference
    # speed; the wait before it is mostly the idle worker's poll, a sleep.
    # The jobs are alike, so their mean is taken: each wait is uniform over
    # the 0.2 s poll, and a geometric mean, weighting the shortest, spread
    # by 0.13-0.17 between runs.
    jct_scaled = [
        sub.record["started_at"] - sub.due
        + (sub.record["finished_at"] - sub.record["started_at"]) * scale
        for sub in steady
    ]
    metrics = {
        "setup_s": (statistics.median(server.ready_scaled_s for server in launches), "s"),
        "batch_cpu_s": (burst_cpu[1], "s"),
        "job_time_s": (statistics.fmean(jct_scaled), "s"),
        "mapped_latency_us_geomean": (
            geomean([sub.record["result"]["latency"] for sub in good]),
            "us",
        ),
        "peak_rss_mb": (rss, "MB"),
    }

    def rec(sub, key):
        return sub.record[key]

    queue_wait = [rec(s, "started_at") - rec(s, "created_at") for s in steady]
    execution = [rec(s, "finished_at") - rec(s, "started_at") for s in steady]
    mapping = [
        sum(seconds for stage, seconds in rec(s, "stage_seconds").items() if "." not in stage)
        for s in steady
    ]
    busy = [(rec(s, "started_at"), rec(s, "finished_at")) for s in steady]
    idle_pickup = [
        rec(s, "started_at") - rec(s, "created_at")
        for s in steady
        if not any(start <= rec(s, "created_at") < end for start, end in busy)
    ]
    path = {
        "jct_p50_s": percentile(jct, 50),
        "jct_p85_s": percentile(jct, 85),
        "submit_p50_s": percentile([s.acked - s.sent for s in steady], 50),
        "queue_wait_p50_s": percentile(queue_wait, 50),
        "exec_p50_s": percentile(execution, 50),
        "map_p50_s": percentile(mapping, 50),
        "overhead_p50_s": percentile([e - m for e, m in zip(execution, mapping)], 50),
    }
    if len(idle_pickup) >= 2 * MIN_SAMPLES_BEYOND:
        path["idle_pickup_p50_s"] = percentile(idle_pickup, 50)
    claimed = max(rec(s, "finished_at") for s in burst) - min(rec(s, "started_at") for s in burst)
    notes = [
        f"poisson jobs {len(steady)}; burst of {len(burst)}: {burst_cpu[0]:.2f} CPU s "
        f"({burst_cpu[1]:.3f} scaled), "
        f"{burst_wall:.3f} s from first post to drained, {claimed:.3f} s from first "
        f"claim to last finish ({len(burst) / claimed:.2f} jobs/s)",
        f"generator lateness: max {lateness[-1] * 1000:.1f} ms, "
        f"p99 {lateness_p99 * 1000:.1f} ms",
        f"idle pickups {len(idle_pickup)} of {len(steady)} poisson jobs; mean JCT "
        f"{statistics.fmean(jct):.4f} s as measured, worker scale factor {scale:.3f}",
        "service path over the poisson jobs: "
        + ", ".join(f"{name} {value:.4f}" for name, value in path.items()),
        "setup per launch (CPU s / scaled / wall s): "
        + ", ".join(
            f"{s.ready_cpu_s:.2f} / {s.ready_scaled_s:.3f} / {s.ready_wall_s:.3f}"
            for s in launches
        ),
    ]
    return ServiceRun(metrics, submissions, problems, notes)
