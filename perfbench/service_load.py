"""The service-http workload: a saturation probe of the ``/v1`` service.

``pyetrify serve --jobs 1`` runs in its own process on a fresh sqlite
store.  Two closed-loop clients (threads of this one generating
process) each submit fresh ``.g`` text, follow the job's long-poll
event feed to its final event and fetch the result, then submit the
next spec.  The jobs form one stream of whole rounds, a round being one
pass over the seeded draw.  Each client times the yardstick before it
submits and after its result is in hand, so every job's timings scale
to reference-box seconds.  This is not recorded traffic:
it keeps the single worker busy so the service layers (asgi, queue,
store, workers) carry real load.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional

import harness
from draw import Spec, draw
from harness import (
    SETUP_REPEATS,
    bracketed,
    median,
    pass_count,
    print_detail,
    setup_seconds,
    tail_percentile,
    yardstick,
)
from repro.service.fingerprint import canonical_settings

#: two clients: at most two connections open at any time
CLIENTS = 2
#: reference-box seconds one round takes; sets the round count
NOMINAL_ROUND_S = 2.0
#: the job every boot runs for setup_s (fixed, so seeds do not move it)
SETUP_KEY = "nak-pa"
#: a job not final after this counts as failed (timeout)
JOB_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on (http://[^\s]+)")


class ServerProcess:
    """One ``pyetrify serve`` child on a fresh store."""

    def __init__(self, store: str, log_path: str) -> None:
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--jobs", "1",
             "--store", store, "-q"],
            env=harness.program_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        self.url: Optional[str] = None

    def wait_listening(self, timeout: float = 60.0) -> str:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                found = _LISTENING.search(line)
                if found:
                    self.url = found.group(1)
                    return self.url
        finally:
            selector.close()
        raise RuntimeError("the service did not start listening")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[11], fields[12]: utime, stime (clock ticks)
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Job:
    """One submission as the client saw it (perf_counter and wall stamps)."""

    def __init__(self, spec: Spec, name: str, round_index: int = 0, traced: bool = False) -> None:
        self.spec = spec
        self.name = name
        self.text = spec.g_text(name)
        self.round_index = round_index
        self.traced = traced
        self.job_id: Optional[str] = None
        self.error: Optional[str] = None
        self.payload: Optional[dict] = None
        self.record: Optional[dict] = None
        self.sent = self.accepted = self.final_seen = self.done = 0.0
        self.final_wall = 0.0
        #: reference-box factor: from the yardsticks its client ran right
        #: before submitting and right after the result came in, then
        #: the median over its round
        self.scale = 1.0

    @property
    def latency(self) -> float:
        return self.done - self.sent


def run_job(client, job: Job) -> None:
    """Submit, follow the event feed to a final event, fetch the result.

    The stamps between the calls are the client-side layer boundaries."""
    settings = canonical_settings(job.spec.settings())
    job.sent = time.perf_counter()
    outcome = client.submit(job.text, settings=settings)
    job.accepted = time.perf_counter()
    job.job_id = str(outcome["job_id"])
    final = None
    for event in client.events(job.job_id, deadline=time.monotonic() + JOB_TIMEOUT_S):
        if event["event"] in ("done", "failed", "timeout"):
            final = event["event"]
            break
    job.final_wall = time.time()
    job.final_seen = time.perf_counter()
    if final != "done":
        raise RuntimeError(f"job {job.job_id} ended as {final}")
    job.payload = client.result(str(outcome["fingerprint"]))
    job.done = time.perf_counter()


def run_stream(base_url: str, jobs: List[Job]) -> None:
    """Both clients drain the job stream in order, closed loop."""
    from repro.service.client import ServiceClient

    pending = deque(jobs)
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServiceClient(base_url, timeout=JOB_TIMEOUT_S)
        before = yardstick()
        while True:
            with lock:
                if not pending:
                    return
                job = pending.popleft()
            try:
                run_job(client, job)
            except Exception as error:  # counted as an HTTP error and a failure
                job.error = f"{type(error).__name__}: {error}"
            after = yardstick()
            job.scale = harness.YARDSTICK_REF_S / ((before + after) / 2)
            before = after

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOB_TIMEOUT_S * len(jobs))
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client did not finish the stream")


def fetch_records(base_url: str, jobs: List[Job]) -> None:
    """Server-side timestamps of each job, fetched after the stream so
    they cost the measured jobs nothing."""
    from repro.service.client import ServiceClient

    client = ServiceClient(base_url, timeout=JOB_TIMEOUT_S)
    for job in jobs:
        if job.error is None:
            job.record = client.job(job.job_id)


def boot(store: str, log_path: str, setup_spec: Spec, name: str):
    """Start a server and run one job: ``(server, raw seconds, scale)``."""
    from repro.service.client import ServiceClient

    job = Job(setup_spec, name)
    servers = []

    def start() -> None:
        server = ServerProcess(store, log_path)
        servers.append(server)
        client = ServiceClient(server.wait_listening(), timeout=JOB_TIMEOUT_S)
        client.healthz()
        run_job(client, job)

    try:
        elapsed, scale = bracketed(start)
    except Exception:
        for server in servers:
            server.stop()
        raise
    return servers[0], elapsed, scale


def result_fingerprint(payload: dict) -> dict:
    """``BatchItem.fingerprint()`` of a stored service payload."""
    from repro.engine.batch import BatchItem

    item = BatchItem(
        name=payload["name"],
        summary=payload["summary"],
        table_row=payload["table_row"],
        error=payload["error"],
        status=payload["status"],
        engine=payload["engine"],
    )
    return item.fingerprint()


def _without_name(fingerprint: dict, name: str) -> str:
    return json.dumps(fingerprint, sort_keys=True).replace(json.dumps(name), '"<model>"')


def reference_fingerprints(specs: List[Spec], seed: int) -> Dict[str, str]:
    """In-process ``encode_many`` results of each spec, name-blind."""
    from repro.api import encode_many
    from repro.stg.parser import parse_g

    out = {}
    for spec in specs:
        name = f"{spec.key}-ref{seed}"
        batch = encode_many([parse_g(spec.g_text(name))], settings=spec.settings(), max_states=200000)
        out[spec.key] = _without_name(batch.items[0].fingerprint(), name)
    return out


def check_job(job: Job, references: Dict[str, str]) -> Optional[str]:
    """A service result must equal the in-process ``encode_many`` result
    for the same text (the unique model name aside)."""
    if job.error is not None:
        return f"{job.name}: {job.error}"
    payload = job.payload or {}
    if payload.get("status") != "ok":
        return f"{job.name}: result status {payload.get('status')!r}"
    fingerprint = result_fingerprint(payload)
    if fingerprint["summary"].get("name") != job.name:
        return f"{job.name}: result carries the name {fingerprint['summary'].get('name')!r}"
    if _without_name(fingerprint, job.name) != references[job.spec.key]:
        return f"{job.name}: service fingerprint differs from in-process encode_many"
    return None


def run(seed: int, seconds: float, trace: bool) -> int:
    specs = draw("service-http", seed)
    rounds = pass_count(seconds, NOMINAL_ROUND_S)
    # One continuous stream of whole rounds, no barrier between them:
    # every job but the first waits for the same predecessor whatever
    # the seed.  The traced run reads the server's timestamps of every
    # other round's jobs after the stream.
    jobs = [
        Job(spec, f"{spec.key}-s{seed}-r{index}", index, traced=trace and index % 2 == 1)
        for index in range(rounds)
        for spec in specs
    ]
    setup_spec = next(spec for spec in specs if spec.key == SETUP_KEY)
    work = harness.WORK / f"service-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    server = None
    try:
        boots = []
        for index in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed, boot_scale = boot(
                str(work / f"store-{index}.db"),
                str(work / f"serve-{index}.log"),
                setup_spec,
                f"setup-{seed}-{index}",
            )
            boots.append((elapsed, boot_scale))
        cpu0 = server.cpu_seconds()
        started = time.perf_counter()
        run_stream(server.url, jobs)
        wall = time.perf_counter() - started
        for index in range(rounds):
            in_round = [job for job in jobs if job.round_index == index]
            round_scale = median([job.scale for job in in_round])
            for job in in_round:
                job.scale = round_scale
        server_cpu = server.cpu_seconds() - cpu0
        if trace:
            fetch_records(server.url, [job for job in jobs if job.traced])
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    references = reference_fingerprints(specs, seed)
    problems = [msg for msg in (check_job(job, references) for job in jobs) if msg]
    if problems:
        print_detail("failures", problems)

    ok = [job for job in jobs if job.error is None]
    scale = median([job.scale for job in jobs])
    metrics: Dict[str, float] = {}
    if not trace:
        metrics.update(_latency(ok))
        metrics["throughput_per_s"] = len(jobs) / (wall * scale)
        metrics["cpu_per_spec_s"] = server_cpu * scale / len(jobs)
        metrics["peak_rss_mb"] = peak
        metrics["setup_s"] = setup_seconds(boots)
        metrics["solved_share"] = sum(1 for job in ok if job.payload.get("solved")) / len(jobs)
        raw = _latency(ok, raw=True)
        raw.update(
            throughput_per_s=len(jobs) / wall,
            cpu_per_spec_s=server_cpu / len(jobs),
            setup_s=median([seconds for seconds, _ in boots]),
        )
        print_detail("raw", raw)
        print_detail("setup_s samples", boots)
    else:
        metrics.update(_layers([job for job in ok if job.traced]))
        metrics["service.server_cpu_s"] = server_cpu * scale / len(jobs)
        metrics["service.http_errors"] = sum(1 for job in jobs if job.error is not None)
        plain = _per_spec([job for job in ok if not job.traced], lambda job: job.latency)
        traced = _per_spec([job for job in ok if job.traced], lambda job: job.latency)
        common = set(plain) & set(traced)
        if common:
            metrics["obs.trace_overhead_ratio"] = sum(traced[k] for k in common) / sum(
                plain[k] for k in common
            )
    print_detail(
        "run", {"workload": "service-http", "seed": seed, "rounds": rounds, "specs": [s.key for s in specs]}
    )
    harness.print_result(not problems, len(jobs), len(problems), metrics, trace)
    return 0 if not problems else 1


def _per_spec(jobs: List[Job], value, raw: bool = False) -> Dict[str, float]:
    """Per spec: the median over its jobs of ``value(job)`` in
    reference-box seconds (raw seconds with ``raw``)."""
    grouped: Dict[str, List[float]] = {}
    for job in jobs:
        grouped.setdefault(job.spec.key, []).append(value(job) * (1.0 if raw else job.scale))
    return {key: median(values) for key, values in grouped.items()}


def _latency(jobs: List[Job], raw: bool = False) -> Dict[str, float]:
    per_spec = _per_spec(jobs, lambda job: job.latency, raw=raw)
    p, tail, n = tail_percentile([job.latency * (1.0 if raw else job.scale) for job in jobs])
    print_detail("latency_tail_s" + (" (raw)" if raw else ""), {"percentile": p, "n": n})
    return {"latency_p50_s": median(list(per_spec.values())), "latency_tail_s": tail}


def _layers(jobs: List[Job]) -> Dict[str, float]:
    """Per layer: per-spec medians over the traced jobs, then the median
    over specs (the same aggregation as ``latency_p50_s``)."""

    def layer(value) -> float:
        per_spec = _per_spec(jobs, value)
        return median(list(per_spec.values())) if per_spec else 0.0

    return {
        "service.accept_s": layer(lambda job: job.accepted - job.sent),
        "service.queue_wait_s": layer(lambda job: job.record["started_at"] - job.record["submitted_at"]),
        "service.solve_s": layer(lambda job: job.record["finished_at"] - job.record["started_at"]),
        "service.deliver_s": layer(lambda job: job.final_wall - job.record["finished_at"]),
        "service.result_get_s": layer(lambda job: job.done - job.final_seen),
    }
