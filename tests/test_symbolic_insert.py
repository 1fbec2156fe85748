"""The symbolic insertion tier against the explicit solver.

``repro.symbolic.regions`` + ``repro.symbolic.insert`` rebuild the whole
region/cost/insertion machinery as BDD fixpoints; the contract is that on
every enumerable graph they reproduce the explicit engine's choices
*exactly* — same bricks in the same canonical order, same Figure-4 cost
tuples, same inserted signals, byte-identical result fingerprints.  These
tests pin the fast cases; the heavyweight library rows (mmu1, par4,
nak-pa, ...) take 15-45 s each symbolically and live in the
``bench_syminsert`` benchmark suite instead.
"""

from __future__ import annotations

import json

import pytest

from repro.bench_stg.generators import (
    handshake_wire_chain,
    mixed_controller,
    pipeline,
    vme_controller,
)
from repro.bench_stg.library import get_case
from repro.core.bricks import brick_adjacency, compute_bricks
from repro.core.cost import evaluate_block
from repro.core.csc import csc_conflicts
from repro.core.excitation import excitation_regions
from repro.core.ipartition import ipartition_from_block, min_wellformed_exit_border
from repro.core.search import SearchSettings
from repro.core.solver import SolverSettings, solve_csc
from repro.obs import collect_phases, export_chrome_trace, start_trace, stop_trace
from repro.stg.state_graph import build_state_graph
from repro.symbolic.insert import solve_csc_symbolic
from repro.symbolic.regions import (
    SymbolicGraphView,
    brick_adjacency_symbolic,
    compute_bricks_symbolic,
    conflict_context,
    evaluate_block_symbolic,
    excitation_regions_symbolic,
    ipartition_from_block_symbolic,
    min_wellformed_exit_border_symbolic,
)
from repro.symbolic.stategraph import SymbolicStateGraph

_RELAXED = SolverSettings(
    search=SearchSettings(allow_input_delay=True, frontier_width=16)
)


def _state_sets(view, nodes):
    return [frozenset(view.state_objects(node)) for node in nodes]


# ----------------------------------------------------------------------
# region machinery: symbolic fixpoints vs explicit object space
# ----------------------------------------------------------------------
class TestRegionMachinery:
    @pytest.fixture(scope="class", params=["vme", "mixed22"])
    def graphs(self, request):
        stg = {
            "vme": vme_controller,
            "mixed22": lambda: mixed_controller(2, 2),
        }[request.param]()
        sg = build_state_graph(stg)
        view = SymbolicGraphView.from_stategraph(SymbolicStateGraph(stg))
        return sg, view

    def test_excitation_regions_match(self, graphs):
        sg, view = graphs
        for event in sg.ts.events:
            explicit = [frozenset(r) for r in excitation_regions(sg.ts, event)]
            symbolic = _state_sets(view, excitation_regions_symbolic(view, event))
            assert explicit == symbolic

    def test_bricks_and_adjacency_match(self, graphs):
        sg, view = graphs
        explicit = compute_bricks(sg.ts)
        nodes = compute_bricks_symbolic(view)
        assert [frozenset(b) for b in explicit] == _state_sets(view, nodes)
        assert brick_adjacency(sg.ts, explicit) == brick_adjacency_symbolic(view, nodes)

    def test_piece_after_is_the_preimage_cube(self, graphs):
        # pre_of cofactors by piece.after: it must be exactly the cube of
        # the constants the piece assigns
        _sg, view = graphs
        for piece in view.pieces:
            assert piece.after == view.bdd.cube(piece.after_values)

    def test_partitions_borders_and_costs_match(self, graphs):
        sg, view = graphs
        conflicts = csc_conflicts(sg)
        ctx = conflict_context(view)
        assert ctx.pairs == len(conflicts)
        bricks = compute_bricks(sg.ts)
        nodes = compute_bricks_symbolic(view)
        for brick, node in zip(bricks, nodes):
            explicit_border = min_wellformed_exit_border(sg.ts, brick)
            symbolic_border = frozenset(
                view.state_objects(min_wellformed_exit_border_symbolic(view, node))
            )
            assert explicit_border == symbolic_border
            explicit_part = ipartition_from_block(sg.ts, brick)
            symbolic_part = ipartition_from_block_symbolic(view, node)
            for attr in ("s0", "splus", "s1", "sminus"):
                assert frozenset(getattr(explicit_part, attr)) == frozenset(
                    view.state_objects(getattr(symbolic_part, attr))
                )
            for allow_input_delay in (True, False):
                explicit_eval = evaluate_block(
                    sg, brick, conflicts, allow_input_delay=allow_input_delay
                )
                symbolic_eval = evaluate_block_symbolic(
                    view, node, ctx, allow_input_delay=allow_input_delay
                )
                if explicit_eval is None or symbolic_eval is None:
                    assert explicit_eval is None and symbolic_eval is None
                else:
                    assert explicit_eval.cost == symbolic_eval.cost


# ----------------------------------------------------------------------
# full solve: solve_csc_symbolic vs solve_csc
# ----------------------------------------------------------------------
def _library(name):
    case = get_case(name)
    return case.build, case.solver_settings()


SOLVE_CASES = [
    ("vme", vme_controller, SolverSettings()),
    # library rows under their own table settings; duplicator stays
    # unsolved under both engines (identical give-up fingerprints)
    ("vme2int", *_library("vme2int")),
    ("combuf2", *_library("combuf2")),
    ("mod4-counter", *_library("mod4-counter")),
    ("duplicator", *_library("duplicator")),
    ("pipeline2", lambda: pipeline(2), _RELAXED),
]


class TestSolveConformance:
    @pytest.mark.parametrize(
        "builder,settings",
        [case[1:] for case in SOLVE_CASES],
        ids=[case[0] for case in SOLVE_CASES],
    )
    def test_fingerprint_matches_explicit(self, builder, settings):
        explicit = solve_csc(build_state_graph(builder()), settings)
        symbolic = solve_csc_symbolic(SymbolicStateGraph(builder()), settings)
        assert symbolic.fingerprint() == explicit.fingerprint()
        assert json.dumps(symbolic.fingerprint(), sort_keys=True) == json.dumps(
            explicit.fingerprint(), sort_keys=True
        )
        assert symbolic.inserted_signals == explicit.inserted_signals
        assert [r.cost for r in symbolic.records] == [
            r.cost for r in explicit.records
        ]

    def test_clean_stg_is_already_solved(self):
        result = solve_csc_symbolic(SymbolicStateGraph(handshake_wire_chain(3)))
        assert result.solved
        assert result.records == []
        assert result.conflicts_remaining == 0
        assert result.states_after == result.states_before

    def test_summary_carries_wall_clock(self):
        result = solve_csc_symbolic(SymbolicStateGraph(vme_controller()))
        summary = result.summary()
        assert summary["cpu_seconds"] >= 0.0
        fingerprint = result.fingerprint()
        assert "cpu_seconds" not in fingerprint
        assert summary.keys() - fingerprint.keys() == {"cpu_seconds"}


# ----------------------------------------------------------------------
# observability: the symbolic search's span tree
# ----------------------------------------------------------------------
class TestSearchSpans:
    def test_collect_phases_reports_every_search_phase(self):
        with collect_phases() as phases:
            solve_csc_symbolic(SymbolicStateGraph(vme_controller()))
        for phase in ("bricks", "evaluate", "merge", "sip"):
            assert phases.get(f"symbolic.search.{phase}", 0.0) > 0.0, phase

    def test_fingerprint_identical_with_trace_writer_on(self, tmp_path):
        quiet = solve_csc_symbolic(SymbolicStateGraph(vme_controller()))
        start_trace(str(tmp_path / "spool"))
        try:
            traced = solve_csc_symbolic(SymbolicStateGraph(vme_controller()))
            assert export_chrome_trace(str(tmp_path / "trace.json")) > 0
        finally:
            stop_trace(cleanup=True)
        assert json.dumps(traced.fingerprint(), sort_keys=True) == json.dumps(
            quiet.fingerprint(), sort_keys=True
        )
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        names = {event["name"] for event in events}
        assert {"symbolic.search.bricks", "symbolic.search.sip"} <= names
