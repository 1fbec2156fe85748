"""The benchmark's own tests: the draw, the checks, the tail, the contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.use_source_tree()

import service_load  # noqa: E402
import workloads  # noqa: E402
from draw import CENSUS_POOL, EXPLICIT_POOL, POOLS, TABLE2_ALIASES, draw  # noqa: E402
from repro.bench_stg.library import get_case  # noqa: E402
from repro.stg.parser import parse_g  # noqa: E402
from repro.stg.state_graph import build_state_graph  # noqa: E402
from repro.stg.writer import stg_to_g_text  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def _spec(pool, key):
    return next(spec for spec in pool if spec.key == key)


def strata_of(specs):
    out = {}
    for spec in specs:
        out.setdefault(spec.stratum, []).append(spec.key)
    return {label: sorted(keys) for label, keys in out.items()}


# -- the draw ----------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_draw_is_a_pure_function_of_the_seed(workload):
    first = [(spec.key, spec.g_text()) for spec in draw(workload, 7)]
    again = [(spec.key, spec.g_text()) for spec in draw(workload, 7)]
    assert first == again


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_two_seeds_give_equal_strata(workload):
    assert strata_of(draw(workload, 1)) == strata_of(draw(workload, 2))
    assert sorted(s.key for s in draw(workload, 3)) == sorted(s.key for s in POOLS[workload])


def test_seeds_change_the_order():
    orders = {tuple(spec.key for spec in draw("explicit-flow", seed)) for seed in range(5)}
    assert len(orders) > 1


def test_table2_aliases_count_once():
    keys = [spec.key for spec in EXPLICIT_POOL]
    assert len(keys) == len(set(keys)) == 20
    for alias, canonical in TABLE2_ALIASES.items():
        assert alias not in keys
        assert _spec_text(get_case(alias)) == _spec_text(get_case(canonical))


def _spec_text(case):
    stg = case.build()
    stg.name = "same"
    return stg_to_g_text(stg)


# -- the checks reject corrupted results -------------------------------
def test_explicit_check_rejects_a_solved_graph_that_keeps_a_conflict():
    spec = _spec(EXPLICIT_POOL, "vme2int")
    text = spec.g_text()
    honest = workloads.explicit_run(spec, text, harness.Tracer(False))
    assert honest["solved"] and workloads.explicit_check(spec, text, honest) is None

    conflicted = build_state_graph(parse_g(text))
    fake = SimpleNamespace(solved=True, final_sg=conflicted, records=[])
    corrupted = dict(honest, result=fake)
    assert "legacy oracle" in workloads.explicit_check(spec, text, corrupted)

    unverified = dict(honest, netlist=SimpleNamespace(verified=False))
    assert "not verified" in workloads.explicit_check(spec, text, unverified)


def test_census_check_rejects_a_wrong_count():
    spec = _spec(CENSUS_POOL, "par-toggles-16")
    text = spec.g_text()
    honest = workloads.census_run(spec, text, harness.Tracer(False))
    assert workloads.census_check(spec, text, honest) is None
    wrong = dict(honest, census=SimpleNamespace(states=spec.states + 1))
    assert "closed form" in workloads.census_check(spec, text, wrong)


def test_closed_forms():
    by_key = {spec.key: spec.states for spec in CENSUS_POOL}
    assert by_key["par-toggles-16"] == 131074
    assert by_key["indep-toggles-8"] == 1679616
    assert by_key["pipeline-8"] == 468750


def test_insert_check_rejects_a_mismatched_fingerprint():
    spec = _spec(POOLS["symbolic-insert"], "vme")
    text = spec.g_text()
    honest = workloads.insert_run(spec, text, harness.Tracer(False))
    assert workloads.insert_check(spec, text, honest) is None
    honest["result"].conflicts_remaining += 1
    assert "explicit twin" in workloads.insert_check(spec, text, honest)


def test_service_check_rejects_a_mismatched_fingerprint():
    from repro.api import encode_many

    spec = _spec(POOLS["service-http"], "nak-pa")
    references = service_load.reference_fingerprints([spec], seed=0)
    job = service_load.Job(spec, "nak-pa-s9-r0")
    item = encode_many([parse_g(job.text)], settings=spec.settings(), max_states=200000).items[0]
    job.payload = item.as_dict()
    assert service_load.check_job(job, references) is None

    job.payload["summary"] = dict(job.payload["summary"], inserted=job.payload["summary"]["inserted"] + 1)
    assert "differs" in service_load.check_job(job, references)
    job.payload = None
    job.error = "ServiceError: boom"
    assert "boom" in service_load.check_job(job, references)


# -- statistics and spans ----------------------------------------------
def test_tail_states_its_percentile_and_n():
    p, value, n = harness.tail_percentile([float(i) for i in range(1, 101)])
    assert (p, value, n) == (90, 90.0, 100)
    p, value, n = harness.tail_percentile([float(i) for i in range(1, 31)])
    assert n == 30 and sum(1 for i in range(1, 31) if i > value) >= harness.TAIL_BEYOND
    assert p == 66
    samples = [harness.Sample("a", 1.0, 1.0, 1.0), harness.Sample("b", 2.0, 2.0, 1.0)] * 12
    timing = harness.latency_metrics(samples)
    assert timing["tail_samples"] == 24 and timing["tail_percentile"] > 0


def test_self_times_subtract_children():
    spans = [
        ("core.solve_csc", 1.0, {"solver.conflicts": 0.1, "search.sip": 0.3, "solver.search": 0.8}),
        ("symbolic.encode", 2.0, {"symbolic.detect": 0.5, "bdd.apply": 0.2, "symbolic.insert": 1.0}),
    ]
    times = harness.Tracer.self_times(spans)
    assert times["core.solve_csc"] == pytest.approx(0.6)
    assert times["core.search.sip"] == pytest.approx(0.3)
    assert times["symbolic.detect"] == pytest.approx(0.3)
    assert times["bdd.apply"] == pytest.approx(0.2)
    assert times["symbolic.solve"] == pytest.approx(1.0)
    assert times["symbolic.encode"] == pytest.approx(0.5)


def test_pass_count_ignores_speed():
    assert harness.pass_count(20, 2.9) == 7
    assert harness.pass_count(1, 7.0) == harness.MIN_PASSES


# -- the contract ------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_result_line_has_every_declared_metric(capsys):
    harness.print_result(True, 3, 0, {"setup_s": 1.5}, trace=False)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(harness.END_TO_END)
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explicit-flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
