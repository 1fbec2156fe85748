"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload explicit-flow --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table of a traced run.  The last line of standard output is the result
object; lines before it starting with ``#`` carry raw figures and
details.  The exit code is 0 only when every spec ran and passed its
correctness check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("explicit-flow", "symbolic-insert", "symbolic-census", "service-http")
#: a spec that runs longer than this counts as failed (timeout)
SPEC_TIMEOUT_S = 60.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str) -> List[Tuple[float, float]]:
    """Fresh interpreters that import the program and run the workload's
    setup spec once: ``(raw seconds, yardstick scale)`` of each."""
    from harness import SETUP_REPEATS, bracketed, program_env

    command = [sys.executable, str(HERE / "setup_probe.py"), workload]
    return [
        bracketed(
            lambda: subprocess.run(
                command, env=program_env(), check=True, stdout=subprocess.DEVNULL, timeout=120
            )
        )
        for _ in range(SETUP_REPEATS)
    ]


def run_inprocess(name: str, seed: int, seconds: float, trace: bool) -> int:
    import harness
    from draw import draw
    from harness import SpecTimer, Tracer, pass_count, peak_rss_mb, print_detail, setup_seconds
    from repro.utils.deadline import deadline
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    specs = draw(name, seed)
    texts = {spec.key: spec.g_text() for spec in specs}
    passes = pass_count(seconds, workload.nominal_pass_s)
    if trace:
        # room for the tracemalloc pass that only the traced run makes
        passes -= 1

    setup_times = measure_setup(name)
    by_key = {spec.key: spec for spec in specs}
    setup_spec = by_key[workload.setup_key]
    workload.run_spec(setup_spec, texts[setup_spec.key], Tracer(False))
    tracer = Tracer(trace)
    if trace:
        workload.run_spec(setup_spec, texts[setup_spec.key], tracer)
        tracer.take()

    plain, traced = SpecTimer(), SpecTimer()
    quiet = Tracer(False)
    first: Dict[str, dict] = {}
    problems: Dict[str, List[str]] = {}
    raised: Dict[str, int] = {}
    layer_samples: Dict[str, List[tuple]] = {}
    rss_spec, rss_seen = None, peak_rss_mb()
    for index in range(passes):
        # the traced run alternates plain and traced passes
        traced_pass = trace and index % 2 == 1
        timer = traced if traced_pass else plain
        for spec in specs:
            try:
                with deadline(SPEC_TIMEOUT_S), timer.spec(spec.key):
                    outcome = workload.run_spec(spec, texts[spec.key], tracer if traced_pass else quiet)
            except Exception as error:  # counted in failed; the run goes on
                raised[spec.key] = raised.get(spec.key, 0) + 1
                problems.setdefault(spec.key, []).append(f"{type(error).__name__}: {error}")
                tracer.take()
                continue
            if traced_pass:
                layer_samples.setdefault(spec.key, []).append(
                    (Tracer.self_times(tracer.take()), timer.samples[-1].scale)
                )
            first.setdefault(spec.key, outcome)
            if index == 0 and peak_rss_mb() > rss_seen:
                rss_spec, rss_seen = spec.key, peak_rss_mb()
    peak = peak_rss_mb()

    # correctness, untimed, against references outside the code under test;
    # a spec whose result fails its check fails in every pass
    failed = sum(raised.values())
    for spec in specs:
        if spec.key in first:
            problem = workload.check(spec, texts[spec.key], first[spec.key])
            if problem:
                problems.setdefault(spec.key, []).append(problem)
                failed += passes - raised.get(spec.key, 0)
    attempted = passes * len(specs)
    if problems:
        print_detail("failures", problems)

    metrics: Dict[str, float] = {}
    if not trace:
        timing = harness.latency_metrics(plain.samples) if plain.samples else None
        if timing is not None:
            metrics.update({k: v for k, v in timing.items() if k in harness.END_TO_END})
            print_detail(
                "latency_tail_s",
                {"percentile": timing["tail_percentile"], "n": timing["tail_samples"]},
            )
            print_detail("raw", dict(timing["raw"], setup_s=harness.median([raw for raw, _ in setup_times])))
        metrics["peak_rss_mb"] = peak
        metrics["setup_s"] = setup_seconds(setup_times)
        metrics["solved_share"] = sum(1 for o in first.values() if o["solved"]) / len(specs)
        print_detail("setup_s samples", setup_times)
    else:
        metrics.update(_layer_metrics(layer_samples))
        metrics.update(workload.counts([first[s.key] for s in specs if s.key in first]))
        plain_ref = harness.per_key_medians(plain.samples, "ref_wall")
        traced_ref = harness.per_key_medians(traced.samples, "ref_wall")
        common = sorted(set(plain_ref) & set(traced_ref))
        if common:
            metrics["obs.trace_overhead_ratio"] = sum(traced_ref[k] for k in common) / sum(
                plain_ref[k] for k in common
            )
        memory_keys = [s.key for s in specs if s.track_memory]
        if rss_spec is not None and rss_spec not in memory_keys:
            memory_keys.append(rss_spec)
        for key in memory_keys:
            for metric, value in workload.memory(by_key[key], texts[key]).items():
                metrics[metric] = max(metrics.get(metric, 0.0), value)
        print_detail("tracemalloc specs", {"by_identity_and_rss_peak": memory_keys})
    print_detail("run", {"workload": name, "seed": seed, "passes": passes, "specs": [s.key for s in specs]})
    harness.print_result(failed == 0, attempted, failed, metrics, trace)
    return 0 if failed == 0 else 1


def _layer_metrics(layer_samples: Dict[str, List[tuple]]) -> Dict[str, float]:
    """Per layer: each spec's median self time over the traced passes,
    in reference-box seconds, summed over the specs of a pass."""
    from harness import median

    totals: Dict[str, float] = {}
    for samples in layer_samples.values():
        names = {name for self_times, _ in samples for name in self_times}
        for name in names:
            value = median([self_times.get(name, 0.0) * scale for self_times, scale in samples])
            totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + value
    return totals


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed hash seed: set iteration order moves timings, never results
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + argv)
    import harness

    try:
        harness.use_source_tree()
    except harness.SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "service-http":
        import service_load

        return service_load.run(args.seed, args.seconds, bool(args.trace))
    return run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
