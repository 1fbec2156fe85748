"""Shared machinery of the benchmark: paths, yardstick, statistics, spans.

The yardstick and the statistics import nothing from the program under
test, so they stay frozen while ``src/`` changes.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for the service store; listed in the root .gitignore
WORK = ROOT / ".bench_work"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program sources)."""


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises :class:`SetupError` when the checkout holds no program, which
    is the case in a directory with only the benchmark's own files.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources, a fixed
    hash seed (set iteration order moves timings, never results)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# yardstick
# ----------------------------------------------------------------------
#: Seconds one :func:`yardstick` call takes on the reference box (a
#: 2-vCPU x86-64 container, Python 3.11).  Frozen together with
#: ``_yardstick_body``: changing either rescales every reported time.
YARDSTICK_REF_S = 0.016


def _yardstick_body() -> int:
    # Frozen pure-Python stand-in for the solvers' inner loops: a
    # breadth-first token game over 2**11 tuple-coded states (tuple
    # slicing and hashing, dict and list growth), then a grouping pass.
    width = 11
    start = (0,) * width
    seen = {start: 0}
    queue = [start]
    edges = 0
    for state in queue:
        for i in range(width):
            if state[i] == state[i - 1] and i % 3 != 2:
                continue
            successor = state[:i] + (1 - state[i],) + state[i + 1 :]
            edges += 1
            if successor not in seen:
                seen[successor] = len(seen)
                queue.append(successor)
    groups: Dict[int, List[int]] = {}
    for state, index in seen.items():
        groups.setdefault(sum(state), []).append(index)
    return edges + len(groups)


def yardstick() -> float:
    """Seconds one run of the frozen body takes now."""
    started = time.perf_counter()
    _yardstick_body()
    return time.perf_counter() - started


def bracketed(call: Callable[[], object]) -> Tuple[float, float]:
    """Run ``call`` between two yardsticks: ``(raw seconds, scale)``,
    where raw seconds times the scale are reference-box seconds."""
    before = yardstick()
    started = time.perf_counter()
    call()
    elapsed = time.perf_counter() - started
    after = yardstick()
    return elapsed, YARDSTICK_REF_S / ((before + after) / 2)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> Tuple[int, float, int]:
    """The highest whole percentile with at least ``TAIL_BEYOND`` samples
    strictly beyond it: ``(percentile, value, n)``.

    Nearest-rank: the p-th percentile is the ``ceil(p*n/100)``-th
    smallest sample.  With fewer than ``TAIL_BEYOND + 1`` samples no
    percentile qualifies and the smallest sample is returned as p0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p * n / 100))
        value = ordered[rank - 1]
        if sum(1 for sample in ordered if sample > value) >= TAIL_BEYOND:
            return p, value, n
    return 0, ordered[0], n


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median (the steadiness figure)."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# per-spec timing
# ----------------------------------------------------------------------
class Sample:
    """One timed spec: raw wall and CPU seconds plus the yardstick scale."""

    __slots__ = ("key", "wall", "cpu", "scale")

    def __init__(self, key: str, wall: float, cpu: float, scale: float) -> None:
        self.key = key
        self.wall = wall
        self.cpu = cpu
        self.scale = scale

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.scale


class SpecTimer:
    """Times specs back to back, each bracketed by yardstick runs.

    The yardstick after one spec is the one before the next, so a pass
    of ``n`` specs costs ``n + 1`` yardsticks.  The heap is collected
    before every yardstick so each spec starts from the same state.  A
    sample lands in :attr:`samples` only if its block finishes.
    """

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._last: Optional[float] = None

    @contextmanager
    def spec(self, key: str) -> Iterator[None]:
        if self._last is None:
            gc.collect()
            self._last = yardstick()
        before = self._last
        self._last = None
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        yield
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        gc.collect()
        after = self._last = yardstick()
        self.samples.append(Sample(key, wall, cpu, YARDSTICK_REF_S / ((before + after) / 2)))


def per_key_medians(samples: Sequence[Sample], attr: str) -> Dict[str, float]:
    grouped: Dict[str, List[float]] = {}
    for sample in samples:
        grouped.setdefault(sample.key, []).append(getattr(sample, attr))
    return {key: median(values) for key, values in grouped.items()}


def latency_metrics(samples: Sequence[Sample]) -> Dict[str, object]:
    """End-to-end timing figures of one run, reference-box and raw."""
    ref = per_key_medians(samples, "ref_wall")
    raw = per_key_medians(samples, "wall")
    ref_cpu = per_key_medians(samples, "ref_cpu")
    raw_cpu = per_key_medians(samples, "cpu")
    p, tail, n = tail_percentile([s.ref_wall for s in samples])
    p_raw, tail_raw, _ = tail_percentile([s.wall for s in samples])
    keys = len(ref)
    return {
        "latency_p50_s": median(list(ref.values())),
        "latency_tail_s": tail,
        "tail_percentile": p,
        "tail_samples": n,
        "throughput_per_s": keys / sum(ref.values()),
        "cpu_per_spec_s": sum(ref_cpu.values()) / keys,
        "raw": {
            "latency_p50_s": median(list(raw.values())),
            "latency_tail_s": tail_raw,
            "tail_percentile": p_raw,
            "throughput_per_s": keys / sum(raw.values()),
            "cpu_per_spec_s": sum(raw_cpu.values()) / keys,
        },
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the benchmark's own spans
# ----------------------------------------------------------------------
#: Layer trees: for each benchmark span, the program phases
#: (``repro.obs.collect_phases`` names) it contains, as
#: ``(metric, phase, children)``.  Siblings never overlap; a node's self
#: time is its duration minus its children's.  Phases not listed are
#: part of their parent's self time.
LAYER_TREES: Dict[str, List[tuple]] = {
    "core.solve_csc": [
        ("core.solver.conflicts", "solver.conflicts", []),
        ("core.search.bricks", "search.bricks", []),
        ("core.search.generate", "search.generate", []),
        ("core.search.evaluate", "search.evaluate", []),
        ("core.search.merge", "search.merge", []),
        ("core.search.sip", "search.sip", []),
    ],
    "synth.synthesize": [
        ("synth.minimize", "synth.minimize", []),
        ("synth.verify", "synth.verify", []),
    ],
    "symbolic.census": [("bdd.apply", "bdd.apply", [])],
    "symbolic.detect": [("bdd.apply", "bdd.apply", [])],
    "symbolic.encode": [
        ("symbolic.detect", "symbolic.detect", [("bdd.apply", "bdd.apply", [])]),
        ("symbolic.solve", "symbolic.insert", []),
    ],
}


def _self_times(metric: str, total: float, children: List[tuple], phases, out) -> None:
    covered = 0.0
    for child_metric, phase, grandchildren in children:
        value = phases.get(phase, 0.0)
        covered += value
        _self_times(child_metric, value, grandchildren, phases, out)
    out[metric] = out.get(metric, 0.0) + max(0.0, total - covered)


class Tracer:
    """Spans around the benchmark's calls into the program.

    Disabled, :meth:`span` is a bare ``yield``.  Enabled, each span opens
    its own ``collect_phases`` accumulator, so the program phases inside
    a call are attributed to that call, and :meth:`self_times` turns the
    recorded spans into per-layer self seconds.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[str, float, Dict[str, float]]] = []
        if enabled:
            from repro.obs import collect_phases

            self._collect = collect_phases

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        with self._collect() as phases:
            started = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - started
        self.spans.append((name, elapsed, dict(phases)))

    def take(self) -> List[Tuple[str, float, Dict[str, float]]]:
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def self_times(spans) -> Dict[str, float]:
        """Self seconds per layer metric (without the ``_s`` suffix)."""
        out: Dict[str, float] = {}
        for name, elapsed, phases in spans:
            _self_times(name, elapsed, LAYER_TREES.get(name, []), phases, out)
        return out


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
#: end-to-end metrics (every workload, plain run) and their units
END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "cpu_per_spec_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "solved_share": "ratio",
}

#: per-layer metrics (every workload, traced run; 0 where a layer is idle)
PER_LAYER = {
    "stg.parse_g_s": "s",
    "stg.build_state_graph_s": "s",
    "stg.states": "count",
    "core.solve_csc_s": "s",
    "core.candidates_examined": "count",
    "core.search.generate_s": "s",
    "core.search.bricks_s": "s",
    "core.search.evaluate_s": "s",
    "core.search.sip_s": "s",
    "core.search.merge_s": "s",
    "core.solver.conflicts_s": "s",
    "core.insertions": "count",
    "synth.synthesize_s": "s",
    "synth.minimize_s": "s",
    "synth.verify_s": "s",
    "synth.literals": "count",
    "synth.verified_share": "ratio",
    "petri.synthesize_stg_s": "s",
    "petri.resynth_ok_share": "ratio",
    "symbolic.encode_s": "s",
    "symbolic.solve_s": "s",
    "symbolic.insertions": "count",
    "symbolic.candidates_examined": "count",
    "bdd.apply_s": "s",
    "bdd.cache_hit_ratio": "ratio",
    "symbolic.census_s": "s",
    "symbolic.detect_s": "s",
    "bdd.nodes": "count",
    "bdd.image_iterations": "count",
    "core.solve_csc_peak_mb": "MB",
    "symbolic.encode_peak_mb": "MB",
    "symbolic.census_peak_mb": "MB",
    "service.accept_s": "s",
    "service.queue_wait_s": "s",
    "service.deliver_s": "s",
    "service.result_get_s": "s",
    "service.solve_s": "s",
    "service.server_cpu_s": "s",
    "service.http_errors": "count",
    "obs.trace_overhead_ratio": "ratio",
}


def print_detail(label: str, payload: object) -> None:
    """A human-readable line before the result (raw figures, tables)."""
    print(f"# {label}: {json.dumps(payload, sort_keys=True, default=str)}", flush=True)


def print_result(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], trace: bool) -> None:
    """The last line of standard output, as the benchmark contract fixes
    it: every declared metric of the run's kind, each with its unit."""
    declared = PER_LAYER if trace else END_TO_END
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(line), flush=True)


#: passes (service rounds) a run makes at least, so each per-spec
#: median is taken over at least this many samples.  Not 5: with
#: ``TAIL_BEYOND`` = 10, five passes would put a symbolic workload's
#: tail exactly on the boundary between two specs' samples, where it
#: jumps from one spec to the other.
MIN_PASSES = 6


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """Whole passes for a run of ``seconds``: a function of the arguments
    only, never of how fast this run goes, so every run does equal work."""
    return max(MIN_PASSES, int(round(seconds / nominal_pass_s)))


#: fresh interpreters (or server boots) timed for ``setup_s``
SETUP_REPEATS = 5


def setup_seconds(samples: Sequence[Tuple[float, float]]) -> float:
    """``setup_s`` from :func:`bracketed` samples of the set-up: the
    median raw time scaled by the median yardstick scale.  One scale
    for the whole set-up phase, which lasts seconds: a single probe's
    two yardsticks are noisier than the drift over that phase."""
    return median([raw for raw, _ in samples]) * median([scale for _, scale in samples])
