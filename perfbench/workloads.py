"""The three in-process workloads: what one spec runs, and its checks.

Each workload is a :class:`Workload`: ``run_spec`` is the timed path
from ``.g`` text to result, ``check`` judges a result against a
reference that does not come from the code under test, ``counts`` and
``memory`` feed the traced run's per-layer table.  Every call into the
program sits in a :class:`~harness.Tracer` span named after the layer it
measures.
"""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from draw import Spec
from harness import Tracer
from repro.core.csc import csc_conflicts
from repro.core.solver import solve_csc
from repro.engine import use_caches
from repro.petri.synthesis import SynthesisError, synthesize_stg
from repro.stg.parser import parse_g
from repro.stg.state_graph import build_state_graph
from repro.symbolic import SymbolicStateGraph, detect_csc_conflicts, ensure_core, symbolic_encode
from repro.synth import synthesize


@dataclass
class Workload:
    name: str
    run_spec: Callable[[Spec, str, Tracer], Dict[str, object]]
    check: Callable[[Spec, str, Dict[str, object]], Optional[str]]
    counts: Callable[[List[Dict[str, object]]], Dict[str, float]]
    memory: Callable[[Spec, str], Dict[str, float]]
    #: seconds one pass takes on the reference box; sets the pass count
    nominal_pass_s: float
    #: the spec a fresh interpreter runs to measure set-up
    setup_key: str


def _mb(num_bytes: int) -> float:
    return num_bytes / (1024.0 * 1024.0)


def _peak_of(call: Callable[[], object]) -> float:
    """Peak bytes ``call`` holds above what was live before it, in MB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return _mb(max(0, peak - before))


def fingerprint_json(fingerprint: Dict[str, object]) -> str:
    return json.dumps(fingerprint, sort_keys=True)


def legacy_csc_holds(sg) -> bool:
    """CSC of ``sg`` by the object-space oracle (engine caches off)."""
    with use_caches(False):
        return not csc_conflicts(sg)


# ----------------------------------------------------------------------
# explicit-flow: parse_g -> build_state_graph -> solve_csc -> synthesize
# -> synthesize_stg
# ----------------------------------------------------------------------
def explicit_run(spec: Spec, text: str, tracer: Tracer) -> Dict[str, object]:
    with tracer.span("stg.parse_g"):
        stg = parse_g(text)
    with tracer.span("stg.build_state_graph"):
        sg = build_state_graph(stg)
    with tracer.span("core.solve_csc"):
        result = solve_csc(sg, spec.settings())
    netlist = None
    resynth_ok = None
    if result.solved:
        with tracer.span("synth.synthesize"):
            netlist = synthesize(result.final_sg, name=stg.name)
        with tracer.span("petri.synthesize_stg"):
            try:
                synthesize_stg(result.final_sg, name=f"{stg.name}_csc")
                resynth_ok = True
            except SynthesisError:
                # a program outcome (mod4-counter today), not a failure
                resynth_ok = False
    return {
        "solved": result.solved,
        "result": result,
        "states": sg.num_states,
        "netlist": netlist,
        "resynth_ok": resynth_ok,
    }


def explicit_check(spec: Spec, text: str, outcome: Dict[str, object]) -> Optional[str]:
    """The verdict must agree with the legacy oracle on the final state
    graph, and a solved spec's netlist must report verified."""
    result = outcome["result"]
    holds = legacy_csc_holds(result.final_sg)
    if holds != result.solved:
        return f"{spec.key}: solved={result.solved} but the legacy oracle says CSC holds={holds}"
    if result.solved and not (outcome["netlist"] is not None and outcome["netlist"].verified):
        return f"{spec.key}: solved but its netlist is not verified"
    return None


def explicit_counts(outcomes: List[Dict[str, object]]) -> Dict[str, float]:
    netlists = [o["netlist"] for o in outcomes if o["netlist"] is not None]
    resynth = [o["resynth_ok"] for o in outcomes if o["resynth_ok"] is not None]
    records = [r for o in outcomes for r in o["result"].records]
    return {
        "stg.states": sum(o["states"] for o in outcomes),
        "core.insertions": len(records),
        "core.candidates_examined": sum(r.candidates_examined for r in records),
        "synth.literals": sum(n.literals for n in netlists),
        "synth.verified_share": sum(1 for n in netlists if n.verified) / len(netlists) if netlists else 0.0,
        "petri.resynth_ok_share": sum(resynth) / len(resynth) if resynth else 0.0,
    }


def explicit_memory(spec: Spec, text: str) -> Dict[str, float]:
    sg = build_state_graph(parse_g(text))
    settings = spec.settings()
    return {"core.solve_csc_peak_mb": _peak_of(lambda: solve_csc(sg, settings))}


# ----------------------------------------------------------------------
# symbolic-insert: census, then symbolic_encode with no core budget, so
# the whole Figure-4 search runs in BDD space (mode "symbolic-insert")
# ----------------------------------------------------------------------
def _bdd_cache(ssg) -> Dict[str, int]:
    stats = ssg.bdd.cache_stats()
    return {"hits": stats["hits"], "lookups": stats["hits"] + stats["misses"]}


def insert_run(spec: Spec, text: str, tracer: Tracer) -> Dict[str, object]:
    with tracer.span("stg.parse_g"):
        stg = parse_g(text)
    with tracer.span("symbolic.census"):
        ssg = SymbolicStateGraph(stg)
        census = ssg.census()
    with tracer.span("symbolic.encode"):
        outcome = symbolic_encode(stg, spec.settings(), core_budget=0, ssg=ssg)
    result = outcome.result
    return {
        "solved": outcome.solved,
        "mode": outcome.mode,
        "result": result,
        "census": census,
        "nodes": ssg.bdd.num_nodes,
        "cache": _bdd_cache(ssg),
    }


def insert_check(spec: Spec, text: str, outcome: Dict[str, object]) -> Optional[str]:
    """Same fingerprint as the explicit solver on the same text."""
    if outcome["mode"] != "symbolic-insert":
        return f"{spec.key}: ran in mode {outcome['mode']!r}, not symbolic-insert"
    twin = solve_csc(build_state_graph(parse_g(text)), spec.settings())
    if fingerprint_json(outcome["result"].fingerprint()) != fingerprint_json(twin.fingerprint()):
        return f"{spec.key}: symbolic fingerprint differs from the explicit twin"
    return None


def _bdd_counts(outcomes: List[Dict[str, object]]) -> Dict[str, float]:
    hits = sum(o["cache"]["hits"] for o in outcomes)
    lookups = sum(o["cache"]["lookups"] for o in outcomes)
    return {
        "bdd.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "bdd.nodes": max(o["nodes"] for o in outcomes),
        "bdd.image_iterations": sum(o["census"].iterations for o in outcomes),
    }


def insert_counts(outcomes: List[Dict[str, object]]) -> Dict[str, float]:
    records = [r for o in outcomes if o["result"] is not None for r in o["result"].records]
    counts = _bdd_counts(outcomes)
    counts["symbolic.insertions"] = len(records)
    counts["symbolic.candidates_examined"] = sum(r.candidates_examined for r in records)
    return counts


def insert_memory(spec: Spec, text: str) -> Dict[str, float]:
    stg = parse_g(text)
    ssg = SymbolicStateGraph(stg)
    ssg.census()
    settings = spec.settings()
    peak = _peak_of(lambda: symbolic_encode(stg, settings, core_budget=0, ssg=ssg))
    return {"symbolic.encode_peak_mb": peak}


# ----------------------------------------------------------------------
# symbolic-census: census plus CSC detection (no solving) on state
# spaces far beyond enumeration
# ----------------------------------------------------------------------
def census_run(spec: Spec, text: str, tracer: Tracer) -> Dict[str, object]:
    with tracer.span("stg.parse_g"):
        stg = parse_g(text)
    with tracer.span("symbolic.census"):
        ssg = SymbolicStateGraph(stg)
        census = ssg.census()
    with tracer.span("symbolic.detect"):
        ensure_core(ssg, detect_csc_conflicts(ssg))
    return {
        # nothing is solved here: solved_share reads 1 by construction,
        # since a spec that raises counts in failed instead
        "solved": True,
        "census": census,
        "nodes": ssg.bdd.num_nodes,
        "cache": _bdd_cache(ssg),
    }


def census_check(spec: Spec, text: str, outcome: Dict[str, object]) -> Optional[str]:
    """State counts equal the generator families' closed forms."""
    states = outcome["census"].states
    if states != spec.states:
        return f"{spec.key}: census counted {states} states, the closed form gives {spec.states}"
    return None


def census_memory(spec: Spec, text: str) -> Dict[str, float]:
    stg = parse_g(text)

    def call():
        ssg = SymbolicStateGraph(stg)
        ssg.census()
        ensure_core(ssg, detect_csc_conflicts(ssg))

    return {"symbolic.census_peak_mb": _peak_of(call)}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "explicit-flow",
            explicit_run,
            explicit_check,
            explicit_counts,
            explicit_memory,
            nominal_pass_s=2.9,
            setup_key="vme2int",
        ),
        Workload(
            "symbolic-insert",
            insert_run,
            insert_check,
            insert_counts,
            insert_memory,
            nominal_pass_s=4.8,
            setup_key="vme",
        ),
        Workload(
            "symbolic-census",
            census_run,
            census_check,
            _bdd_counts,
            census_memory,
            nominal_pass_s=4.8,
            setup_key="par-toggles-16",
        ),
    )
}
