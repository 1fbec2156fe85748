"""Spec pools and the seeded, stratified draw of every workload.

A pool lists distinct specifications, each a library case or, where the
library has none, a generator call run with the library's settings.
Each entry carries a *stratum* label — the verdict and size class it
had when the pool was chosen.  Labels only spread work evenly through a
pass; no check reads them, so a program change that moves a verdict
needs no benchmark edit.

Every seed draws the whole pool, so every seed does the same kind and
amount of work; the seed decides where the cycle starts (and, on the
service, the fresh ``.model`` names).  Signals are never renamed: names can move
tie-breaks in the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.bench_stg import generators as gen
from repro.bench_stg.library import TABLE2_CASES, BenchmarkCase, get_case
from repro.core.solver import SolverSettings
from repro.stg.writer import stg_to_g_text


@dataclass(frozen=True)
class Spec:
    """One pool entry: a library case (its builder and solver mode) and
    its stratum."""

    key: str
    case: BenchmarkCase
    stratum: str
    #: closed-form reachable-state count (census pool only)
    states: Optional[int] = None
    #: measured under tracemalloc in the traced run (chosen by identity)
    track_memory: bool = False

    def g_text(self, name: Optional[str] = None) -> str:
        stg = self.case.build()
        stg.name = name or self.key
        return stg_to_g_text(stg)

    def settings(self) -> SolverSettings:
        """The library's Table-2 solver settings for this case's mode."""
        return self.case.solver_settings()


def _own_case(key: str, builder: Callable, mode: str = "strict") -> BenchmarkCase:
    """A generator call the library has no case for, run with the
    library's settings for ``mode``."""
    return BenchmarkCase(key, builder, "perfbench-only spec", "perfbench", mode)


#: Table-2 rows that share a generator with an earlier row: each counts once.
TABLE2_ALIASES = {"mmu": "trcv-bm", "mr0": "postoffice", "mmu0": "tsend-bm", "mmu1": "ram-read-sbuf"}

#: Verdict at the library width 16 and size class (60+ states is
#: "large") of every distinct Table-2 spec when this pool was chosen.
_TABLE2_STRATA = {
    "nak-pa": "solved-small",
    "ram-read-sbuf": "solved-large",
    "sbuf-ram-write": "solved-large",
    "sbuf-read-ctl": "solved-small",
    "mux2": "solved-large",
    "postoffice": "unsolved-large",
    "duplicator": "unsolved-small",
    "specseq4": "solved-small",
    "seqmix": "solved-small",
    "seq8": "unsolved-small",
    "trcv-bm": "unsolved-large",
    "tsend-bm": "unsolved-small",
    "ircv-bm": "unsolved-small",
    "mod4-counter": "solved-small",
    "master-read": "unsolved-large",
    "ir": "solved-small",
    "par4": "solved-small",
    "divider8": "solved-small",
    "vme2int": "solved-small",
    "combuf2": "solved-small",
}

#: explicit-flow: the 20 distinct Table-2 specs (13 solve at width 16).
EXPLICIT_POOL: List[Spec] = [
    Spec(case.name, case, _TABLE2_STRATA[case.name], track_memory=case.name == "mux2")  # largest graph
    for case in TABLE2_CASES
    if case.name not in TABLE2_ALIASES
]

#: symbolic-insert: small conflicted specs the BDD-space solver finishes
#: in about a second each.  mixed_controller(1,1) and the mod4 counter,
#: the two costliest after mixed_controller(2,0), are left out so a run
#: of about 20 s holds six passes; so are parallel_toggles(3),
#: pipeline(2) and ripple_counter(3), each of which alone costs a pass.
SYMBOLIC_INSERT_POOL: List[Spec] = [
    Spec("vme", get_case("vme2int"), "light"),
    Spec("duplicator", get_case("duplicator"), "heavy"),
    Spec("mixed-2-0", _own_case("mixed-2-0", lambda: gen.mixed_controller(2, 0)), "heavy", track_memory=True),
    Spec("mixed-0-2", _own_case("mixed-0-2", lambda: gen.mixed_controller(0, 2)), "light"),
    Spec("sequencer-3", get_case("sbuf-read-ctl"), "light"),
    Spec("par-toggles-2", _own_case("par-toggles-2", lambda: gen.parallel_toggles(2), "relaxed"), "light"),
]

#: symbolic-census: Table-1 state spaces far beyond enumeration, with
#: the closed-form state counts the census must reproduce.
#: independent_toggles(24) (pipe24) is left out so a run of about 20 s
#: holds six passes; pipeline(8) costs more but is the only coupled pipeline and
#: sets the workload's memory peak.
CENSUS_POOL: List[Spec] = [
    Spec("par-toggles-16", get_case("par16", "table1"), "parallel", states=2 ** 17 + 2),
    Spec("par-toggles-24", get_case("par24", "table1"), "parallel", states=2 ** 25 + 2),
    Spec("indep-toggles-8", get_case("pipe8", "table1"), "independent", states=6 ** 8),
    Spec("indep-toggles-16", get_case("pipe16", "table1"), "independent", states=6 ** 16),
    Spec("pipeline-8", get_case("pipeline8", "table1"), "pipeline", states=6 * 5 ** 7, track_memory=True),
]

#: service-http: mid-size explicit specs (0.05-0.4 s solves), so the
#: worker is never idle and the service's polls are a small share.
_SERVICE_KEYS = (
    "nak-pa", "ram-read-sbuf", "sbuf-ram-write", "mux2", "postoffice",
    "trcv-bm", "master-read", "ircv-bm", "par4", "divider8",
)
SERVICE_POOL: List[Spec] = [spec for spec in EXPLICIT_POOL if spec.key in _SERVICE_KEYS]

POOLS: Dict[str, List[Spec]] = {
    "explicit-flow": EXPLICIT_POOL,
    "symbolic-insert": SYMBOLIC_INSERT_POOL,
    "symbolic-census": CENSUS_POOL,
    "service-http": SERVICE_POOL,
}


def draw(workload: str, seed: int) -> List[Spec]:
    """The seeded pass order of ``workload``: a pure function of its
    arguments.  Strata are interleaved round-robin (in label order,
    members by key), so cheap and costly, solved and unsolved specs
    alternate through every pass; the seed rotates that cycle.  A
    rotation keeps which spec follows which, so on the service, where a
    job waits for the one before it, every seed sees the same pairs."""
    strata: Dict[str, List[Spec]] = {}
    for spec in POOLS[workload]:
        strata.setdefault(spec.stratum, []).append(spec)
    queues = [sorted(strata[label], key=lambda spec: spec.key) for label in sorted(strata)]
    cycle: List[Spec] = []
    for index in range(max(len(queue) for queue in queues)):
        cycle.extend(queue[index] for queue in queues if index < len(queue))
    shift = seed % len(cycle)
    return cycle[shift:] + cycle[:shift]
