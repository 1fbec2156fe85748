"""Symbolic twins of the region/brick/border/cost machinery (Section 5).

The explicit insertion search (:mod:`repro.core.regions`,
:mod:`repro.core.bricks`, :mod:`repro.core.ipartition`,
:mod:`repro.core.cost`) is entirely set-algebraic: every operation is a
union, intersection, image or fixpoint over sets of states.  This module
restates those operations over BDD state sets so the Figure-4 search can
run without enumerating a single state (:mod:`repro.symbolic.insert`).

Everything computes on a :class:`SymbolicGraphView` — a thin interface
over "a reachable state set plus a list of constant-assignment
transition pieces" that both the STG-backed
:class:`~repro.symbolic.stategraph.SymbolicStateGraph` and the derived
graphs produced by symbolic signal insertion satisfy.  The key primitive
is the *constant-assignment preimage*: a piece ``t`` fires by setting its
``changed_levels`` to fixed ``after`` values, so ``{x : t(x) ∈ B}`` is
the cofactor of ``B`` by the piece's after cube — one
:meth:`~repro.bdd.bdd.BDD.cofactor` walk, memoized in the manager's
computed table, no relational product needed.  Images reuse the fused
:meth:`~repro.bdd.bdd.BDD.and_exists` relational product of the
exploration engine.

Mirroring contract
------------------
On enumerable graphs every function here produces the *same sets* as its
explicit twin, and the canonical orderings (brick dedup by
``(len, sorted member reprs)``, component sort, minimal-region
filtering) reproduce the explicit orders exactly by decoding set members
back into the explicit state objects (``Marking`` for STG-backed graphs,
``(state, bit)`` pairs for derived graphs).  Beyond
:data:`CANONICAL_ENUMERATION_LIMIT` states the orderings fall back to
``(sat_count, discovery order)`` — still deterministic, no longer
pinned to the explicit engine (which cannot run there anyway).

The branching *expansion* search repairs the first violating event it
finds, so its output genuinely depends on the event iteration order (a
repair can overshoot a region another order would have reached).  The
explicit engine scans events in reachability-graph discovery order; on
enumerable graphs that order is reproduced here by simulating the
explicit BFS's arc-insertion bookkeeping over the symbolic pieces
(:class:`ExplicitOrderLedger`) without ever building the explicit
graph.  Beyond the enumeration limit the scan falls back to
net-declaration order — deterministic, but no longer pinned to an
engine that cannot run there anyway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bdd.bdd import BDD, FALSE, Node, interleaved_pair_levels, prime_map
from repro.core.cost import Cost
from repro.core.regions import RegionSearchBudgetExceeded
from repro.obs import get_logger
from repro.stg.signals import SignalEdge
from repro.utils.deadline import check_deadline, poll_deadline

_log = get_logger("symbolic")

__all__ = [
    "CANONICAL_ENUMERATION_LIMIT",
    "ExplicitOrderLedger",
    "SymbolicPiece",
    "SymbolicGraphView",
    "SymbolicIPartition",
    "SymbolicBlockEvaluation",
    "ConflictContext",
    "assignments_over",
    "compute_bricks_symbolic",
    "brick_adjacency_symbolic",
    "connected_components_symbolic",
    "minimal_regions_containing_symbolic",
    "minimal_preregions_symbolic",
    "minimal_postregions_symbolic",
    "exit_border_symbolic",
    "min_wellformed_exit_border_symbolic",
    "ipartition_from_block_symbolic",
    "entering_signals_symbolic",
    "delayed_signals_symbolic",
    "evaluate_block_symbolic",
    "conflict_context",
]

#: Above this many reachable states the canonical orderings stop decoding
#: set members for repr-based sort keys and fall back to
#: ``(sat_count, discovery order)``.  Well above every enumerable library
#: case (so conformance stays byte-identical) and well below the sizes
#: where enumeration would dominate the search.
CANONICAL_ENUMERATION_LIMIT = 20000

#: Per-event cap of the pre/post-region intersection closure, matching
#: ``repro.core.bricks._intersection_closure``.
MAX_CLOSURE_PER_EVENT = 64


@dataclass
class SymbolicPiece:
    """One constant-assignment transition piece of a symbolic graph.

    Firing sets ``changed_levels`` to the constants of ``after_values``
    (``after`` is the same assignment as a cube node, built once with the
    piece, and the cube the preimage cofactors by); ``enabling`` is the
    raw firing condition over the unprimed levels, *not* intersected
    with the reachable set.
    """

    name: Hashable
    edge: SignalEdge
    enabling: Node
    changed_levels: List[int]
    after: Node
    after_values: Dict[int, int]
    #: position in the owning view's piece list (set by the view)
    index: int = -1


class ExplicitOrderLedger:
    """The insertion orders of the explicit engine's ``TransitionSystem``,
    reconstructed for an enumerable symbolic view.

    The explicit region expansion scans ``list(ts.events)`` — events in
    first-arc-insertion order — and that order shapes which minimal
    regions the branching search reaches.  The ledger mirrors exactly the
    bookkeeping that produces it: ``states`` in ``_succ`` insertion
    order, per-state outgoing arcs in addition order, ``events`` in
    first-occurrence order.  State keys are value tuples over the view's
    unprimed levels.
    """

    __slots__ = ("states", "outgoing", "events")

    def __init__(
        self,
        states: List[Tuple[int, ...]],
        outgoing: Dict[Tuple[int, ...], List[Tuple[SignalEdge, Tuple[int, ...]]]],
        events: List[SignalEdge],
    ) -> None:
        self.states = states
        self.outgoing = outgoing
        self.events = events

    def transitions(self) -> Iterator[Tuple[Tuple[int, ...], SignalEdge, Tuple[int, ...]]]:
        """Arcs in ``TransitionSystem.transitions()`` iteration order
        (state insertion order, then per-state addition order)."""
        for state in self.states:
            for edge, target in self.outgoing[state]:
                yield state, edge, target


def simulate_explicit_ledger(view: "SymbolicGraphView") -> ExplicitOrderLedger:
    """Replay the explicit reachability BFS's orderings over the pieces.

    Mirrors ``petri.reachability.build_reachability_graph``: FIFO queue
    over states, net-declaration order over transitions per state, arcs
    recorded before the visited check.  Pieces are the net transitions in
    the same order, so the resulting event order equals the explicit
    ``ts.events`` byte for byte.
    """
    bdd = view.bdd
    levels = view.unprimed_levels
    position = {level: i for i, level in enumerate(levels)}
    vector = [0] * bdd.num_vars

    initial = next(assignments_over(bdd, view.initial, levels))
    initial_key = tuple(initial[level] for level in levels)
    states = [initial_key]
    outgoing: Dict[Tuple[int, ...], List[Tuple[SignalEdge, Tuple[int, ...]]]] = {
        initial_key: []
    }
    events: Dict[SignalEdge, None] = {}
    frontier = deque([initial_key])
    while frontier:
        poll_deadline()
        key = frontier.popleft()
        for level, value in zip(levels, key):
            vector[level] = value
        arcs = outgoing[key]
        for piece in view.pieces:
            if not bdd.evaluate(piece.enabling, vector):
                continue
            successor = list(key)
            for level, value in piece.after_values.items():
                successor[position[level]] = value
            successor_key = tuple(successor)
            events.setdefault(piece.edge, None)
            arcs.append((piece.edge, successor_key))
            if successor_key not in outgoing:
                outgoing[successor_key] = []
                states.append(successor_key)
                frontier.append(successor_key)
    return ExplicitOrderLedger(states, outgoing, list(events))


class SymbolicGraphView:
    """The interface the symbolic region machinery computes on.

    Wraps a BDD manager, a reachable set, and transition pieces; built
    from a :class:`~repro.symbolic.stategraph.SymbolicStateGraph` via
    :meth:`from_stategraph` or directly by the symbolic insertion of
    :mod:`repro.symbolic.insert` (whose derived graphs have no backing
    STG).  ``decode`` maps a full unprimed-level assignment to the state
    object of the explicit twin graph — a
    :class:`~repro.petri.net.Marking` for STG-backed views, a
    ``(parent_state, bit)`` pair for derived views — which is what keeps
    the canonical orderings aligned with the explicit engine.
    """

    def __init__(
        self,
        bdd: BDD,
        name: str,
        signals: List[str],
        signal_levels: Dict[str, int],
        input_signals: Set[str],
        pieces: List[SymbolicPiece],
        num_state_vars: int,
        initial: Node,
        reached: Optional[Node] = None,
        decode: Optional[Callable[[Dict[int, int]], Hashable]] = None,
        ledger: Optional[ExplicitOrderLedger] = None,
        ledger_mode: str = "bfs",
    ) -> None:
        self.bdd = bdd
        self.name = name
        self.signals = list(signals)
        self.signal_levels = dict(signal_levels)
        self.input_signals = set(input_signals)
        self.pieces = list(pieces)
        self.num_state_vars = num_state_vars
        self.initial = initial
        self.unprimed_levels, self.primed_levels = interleaved_pair_levels(
            num_state_vars
        )
        self._reached = reached
        self._decode = decode
        #: "bfs" — the ledger can be reconstructed by BFS simulation
        #: (root views); "fixed" — it must be injected by whoever built
        #: the view (derived graphs, whose explicit orders come from the
        #: insertion replay, not from a BFS).
        self._ledger_mode = ledger_mode
        self._ledger = ledger
        self._num_states: Optional[int] = None
        self._enabled_cache: Dict[SignalEdge, Node] = {}
        self._sources: Optional[List[Node]] = None
        self._size_cache: Dict[Node, int] = {}
        self._pieces_by_edge: Dict[SignalEdge, List[SymbolicPiece]] = {}
        for position, piece in enumerate(self.pieces):
            piece.index = position
            self._pieces_by_edge.setdefault(piece.edge, []).append(piece)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_stategraph(cls, ssg) -> "SymbolicGraphView":
        """Adapt a :class:`SymbolicStateGraph` (explores it if needed)."""
        bdd = ssg.bdd
        pieces = []
        for transition in ssg._transitions:
            after_values = {
                level: 0 if bdd.cofactor(transition.after, bdd.var(level)) == FALSE else 1
                for level in transition.changed_levels
            }
            pieces.append(
                SymbolicPiece(
                    name=transition.name,
                    edge=transition.edge,
                    enabling=transition.enabling,
                    changed_levels=list(transition.changed_levels),
                    after=transition.after,
                    after_values=after_values,
                )
            )
        return cls(
            bdd=bdd,
            name=ssg.name,
            signals=list(ssg.signals),
            signal_levels={s: ssg.unprimed(v) for s, v in ssg.signal_vars.items()},
            input_signals={s for s in ssg.signals if ssg.stg.is_input(s)},
            pieces=pieces,
            num_state_vars=ssg.num_state_vars,
            initial=ssg.initial_cube(),
            reached=ssg.explore(),
            decode=lambda assignment: ssg.decode_state(assignment)[0],
        )

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    @property
    def reached(self) -> Node:
        if self._reached is None:
            self._reached = self._explore()
        return self._reached

    def _explore(self) -> Node:
        """Chained image fixpoint from the initial cube (the twin of
        :meth:`SymbolicStateGraph.explore` for derived graphs)."""
        bdd = self.bdd
        reached = self.initial
        changed = True
        while changed:
            changed = False
            for piece in self.pieces:
                check_deadline()
                moved = bdd.and_exists(reached, piece.enabling, piece.changed_levels)
                if moved == bdd.false:
                    continue
                moved = bdd.apply_and(moved, piece.after)
                new = bdd.apply_diff(moved, reached)
                if new != bdd.false:
                    reached = bdd.apply_or(reached, new)
                    changed = True
        return reached

    @property
    def num_states(self) -> int:
        if self._num_states is None:
            self._num_states = self.bdd.sat_count(self.reached, self.unprimed_levels)
        return self._num_states

    @property
    def canonical(self) -> bool:
        """Whether set members are decoded for explicit-matching orders."""
        return self.num_states <= CANONICAL_ENUMERATION_LIMIT

    @property
    def ledger(self) -> Optional[ExplicitOrderLedger]:
        """Explicit-engine insertion orders, or ``None`` beyond the
        enumeration limit (root views build theirs on first use)."""
        if self._ledger is None and self._ledger_mode == "bfs" and self.canonical:
            self._ledger = simulate_explicit_ledger(self)
        return self._ledger

    def expansion_event_order(self) -> List[SignalEdge]:
        """Event scan order of the region expansion: the explicit
        ``list(ts.events)`` order when a ledger is available, otherwise
        net-declaration first-occurrence order."""
        ledger = self.ledger
        if ledger is not None:
            return list(ledger.events)
        return self.base_edges()

    # ------------------------------------------------------------------
    # per-edge structure
    # ------------------------------------------------------------------
    def base_edges(self) -> List[SignalEdge]:
        return list(self._pieces_by_edge)

    def pieces_of(self, edge: SignalEdge) -> List[SymbolicPiece]:
        return self._pieces_by_edge.get(edge.base(), [])

    def enabled_predicate(self, edge: SignalEdge) -> Node:
        """Raw enabling of ``edge`` (union over its pieces), like
        :meth:`SymbolicStateGraph.enabled_predicate`."""
        edge = edge.base()
        cached = self._enabled_cache.get(edge)
        if cached is None:
            cached = self.bdd.disjoin(p.enabling for p in self.pieces_of(edge))
            self._enabled_cache[edge] = cached
        return cached

    def sources(self, piece_index: int) -> Node:
        """``D_p = reached ∧ enabling_p``: the reachable states where the
        piece fires (memoized per piece)."""
        if self._sources is None:
            bdd = self.bdd
            reached = self.reached
            self._sources = [bdd.apply_and(reached, p.enabling) for p in self.pieces]
        return self._sources[piece_index]

    def er_set(self, edge: SignalEdge) -> Node:
        return self.bdd.apply_and(self.reached, self.enabled_predicate(edge))

    def sr_set(self, edge: SignalEdge) -> Node:
        bdd = self.bdd
        result = bdd.false
        for piece in self.pieces_of(edge):
            enabled = self.sources(piece.index)
            if enabled == bdd.false:
                continue
            result = bdd.apply_or(result, self.piece_image(enabled, piece))
        return result

    def is_input_edge(self, edge: SignalEdge) -> bool:
        return edge.signal in self.input_signals

    # ------------------------------------------------------------------
    # images and constant-assignment preimages
    # ------------------------------------------------------------------
    def piece_image(self, states: Node, piece: SymbolicPiece) -> Node:
        """Targets of ``piece`` fired from ``states`` (``states`` need not
        be restricted to the enabling — the conjunction is fused)."""
        bdd = self.bdd
        moved = bdd.and_exists(states, piece.enabling, piece.changed_levels)
        if moved == bdd.false:
            return bdd.false
        return bdd.apply_and(moved, piece.after)

    def image(self, states: Node) -> Node:
        bdd = self.bdd
        result = bdd.false
        for piece in self.pieces:
            poll_deadline()
            result = bdd.apply_or(result, self.piece_image(states, piece))
        return result

    def pre_of(self, piece_index: int, target: Node) -> Node:
        """``{x : piece(x) ∈ target}`` — the cofactor of ``target`` by the
        piece's after cube, independent of the enabling.  The manager's
        cofactor table memoizes it, across views and reorders."""
        return self.bdd.cofactor(target, self.pieces[piece_index].after)

    # ------------------------------------------------------------------
    # enumeration / decoding (canonical orderings, tests)
    # ------------------------------------------------------------------
    def state_objects(self, node: Node) -> List[Hashable]:
        """Decode every member of a state-set BDD (small sets only)."""
        if self._decode is None:
            raise ValueError("this view cannot decode states")
        return [
            self._decode(assignment)
            for assignment in assignments_over(self.bdd, node, self.unprimed_levels)
        ]

    def pick_state(self, node: Node) -> Node:
        """One member of a non-empty state set, as a full unprimed cube."""
        partial = self.bdd.pick_cube(node)
        assert partial is not None
        return self.bdd.cube(
            {level: partial.get(level, 0) for level in self.unprimed_levels}
        )

    def size_of(self, node: Node) -> int:
        cached = self._size_cache.get(node)
        if cached is None:
            cached = self.bdd.sat_count(node, self.unprimed_levels)
            self._size_cache[node] = cached
        return cached


def assignments_over(
    bdd: BDD, node: Node, levels: Sequence[int]
) -> Iterator[Dict[int, int]]:
    """All satisfying assignments of ``node`` over exactly ``levels``
    (the generic twin of ``SymbolicStateGraph._assignments_over``)."""
    rank = {var: i for i, var in enumerate(bdd.var_order())}
    ordered = sorted(levels, key=rank.__getitem__)
    level_set = set(ordered)

    def walk(current: Node, position: int, prefix: Dict[int, int]):
        if current == bdd.false:
            return
        if position == len(ordered):
            if current != bdd.true:
                raise ValueError("function depends on a level outside the set")
            yield dict(prefix)
            return
        level = ordered[position]
        node_level = bdd.level(current)
        if node_level not in level_set and current != bdd.true:
            raise ValueError("function depends on a level outside the set")
        for value in (0, 1):
            if current != bdd.true and node_level == level:
                child = bdd.high(current) if value else bdd.low(current)
            else:
                child = current
            prefix[level] = value
            yield from walk(child, position + 1, prefix)
        del prefix[level]

    yield from walk(node, 0, {})


# ----------------------------------------------------------------------
# canonical ordering helpers
# ----------------------------------------------------------------------
def _canonical_set_sort(
    view: SymbolicGraphView, nodes: List[Node], key_style: str
) -> List[Node]:
    """Sort state-set nodes the way the explicit engine sorts the same
    sets of state objects.

    ``key_style="brick"`` reproduces ``bricks._deduplicate``'s
    ``(len(b), sorted(map(repr, b)))``; ``key_style="component"``
    reproduces ``excitation._connected_components``'s
    ``(len(c), repr(sorted(map(repr, c))))``.  Beyond the enumeration
    limit the fallback is ``(size, discovery order)`` (stable sort by
    size alone).
    """
    if not view.canonical:
        return sorted(nodes, key=view.size_of)
    decorated = []
    for node in nodes:
        reprs = sorted(map(repr, view.state_objects(node)))
        if key_style == "component":
            decorated.append(((view.size_of(node), repr(reprs)), node))
        else:
            decorated.append(((view.size_of(node), reprs), node))
    decorated.sort(key=lambda pair: pair[0])
    return [node for _key, node in decorated]


# ----------------------------------------------------------------------
# excitation regions (connected components)
# ----------------------------------------------------------------------
def connected_components_symbolic(
    view: SymbolicGraphView, states: Node
) -> List[Node]:
    """Weakly connected components of the subgraph induced by ``states``
    (twin of ``excitation._connected_components``, canonical order)."""
    bdd = view.bdd
    components: List[Node] = []
    remaining = states
    while remaining != bdd.false:
        check_deadline()
        component = view.pick_state(remaining)
        frontier = component
        while frontier != bdd.false:
            grown = bdd.false
            for index, piece in enumerate(view.pieces):
                # forward neighbours: targets (inside ``states``) of arcs
                # leaving the current component
                forward = bdd.apply_and(view.piece_image(frontier, piece), states)
                # backward neighbours: sources (inside ``states``) of arcs
                # entering the current component
                backward = bdd.apply_and(
                    bdd.apply_and(states, piece.enabling),
                    view.pre_of(index, frontier),
                )
                grown = bdd.apply_or(grown, bdd.apply_or(forward, backward))
            grown = bdd.apply_diff(grown, component)
            component = bdd.apply_or(component, grown)
            frontier = grown
        components.append(component)
        remaining = bdd.apply_diff(remaining, component)
    return _canonical_set_sort(view, components, key_style="component")


def excitation_regions_symbolic(
    view: SymbolicGraphView, edge: SignalEdge
) -> List[Node]:
    """The excitation regions ``ER_j(edge)`` as state-set nodes."""
    return connected_components_symbolic(view, view.er_set(edge))


# ----------------------------------------------------------------------
# region expansion (minimal pre/post-regions)
# ----------------------------------------------------------------------
def _event_crossing(
    view: SymbolicGraphView, pieces: List[SymbolicPiece], block: Node
) -> Tuple[bool, bool, bool, bool, Node, Node, Node]:
    """Crossing classification of one event w.r.t. ``block``.

    Returns ``(has_enter, has_exit, has_inside, has_outside,
    enter_sources, exit_targets, outside_targets)``; arcs are those of
    the reachability graph (sources restricted to the reached set).
    """
    bdd = view.bdd
    not_block = bdd.apply_not(block)
    has_enter = has_exit = has_inside = has_outside = False
    enter_sources = bdd.false
    exit_targets = bdd.false
    outside_targets = bdd.false
    for piece in pieces:
        index = piece.index
        src = view.sources(index)
        if src == bdd.false:
            continue
        target_in = view.pre_of(index, block)
        src_in = bdd.apply_and(src, block)
        src_out = bdd.apply_and(src, not_block)
        inside = bdd.apply_and(src_in, target_in)
        if inside != bdd.false:
            has_inside = True
        exiting = bdd.apply_diff(src_in, target_in)
        if exiting != bdd.false:
            has_exit = True
            exit_targets = bdd.apply_or(exit_targets, view.piece_image(exiting, piece))
        entering = bdd.apply_and(src_out, target_in)
        if entering != bdd.false:
            has_enter = True
            enter_sources = bdd.apply_or(enter_sources, entering)
        outside = bdd.apply_diff(src_out, target_in)
        if outside != bdd.false:
            has_outside = True
            outside_targets = bdd.apply_or(
                outside_targets, view.piece_image(outside, piece)
            )
    return (
        has_enter,
        has_exit,
        has_inside,
        has_outside,
        enter_sources,
        exit_targets,
        outside_targets,
    )


def _expansion_choices_symbolic(
    view: SymbolicGraphView, pieces: List[SymbolicPiece], current: Node
) -> Optional[List[Node]]:
    """Repair-addition sets for one violating event, or ``None`` if legal
    (twin of ``regions._expansion_choices``)."""
    (
        has_enter,
        has_exit,
        has_inside,
        has_outside,
        enter_sources,
        exit_targets,
        outside_targets,
    ) = _event_crossing(view, pieces, current)
    legal = not (
        (has_enter and (has_exit or has_inside or has_outside))
        or (has_exit and (has_enter or has_inside or has_outside))
    )
    if legal:
        return None
    choices = [view.bdd.apply_or(enter_sources, exit_targets)]
    if has_enter and not has_inside and not has_exit:
        choices.append(outside_targets)
    return choices


def minimal_regions_containing_symbolic(
    view: SymbolicGraphView, seed: Node, max_explored: int = 20000
) -> List[Node]:
    """All minimal regions of the view's graph containing ``seed`` (twin
    of ``regions.minimal_regions_containing``; same stack discipline,
    candidate sets keyed by canonical BDD node identity)."""
    bdd = view.bdd
    if seed == bdd.false:
        return []
    event_pieces = [view.pieces_of(edge) for edge in view.expansion_event_order()]

    found: List[Node] = []
    visited: Set[Node] = set()
    stack: List[Node] = [seed]
    explored = 0
    while stack:
        poll_deadline()
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        explored += 1
        if explored > max_explored:
            raise RegionSearchBudgetExceeded(
                f"region expansion explored more than {max_explored} candidate sets"
            )
        if current == view.reached:
            found.append(current)
            continue
        choices: Optional[List[Node]] = None
        for pieces in event_pieces:
            choices = _expansion_choices_symbolic(view, pieces, current)
            if choices is not None:
                break
        if choices is None:
            found.append(current)
            continue
        for addition in choices:
            expanded = bdd.apply_or(current, addition)
            if expanded not in visited:
                stack.append(expanded)
    return _keep_minimal_symbolic(view, found)


def _keep_minimal_symbolic(view: SymbolicGraphView, regions: List[Node]) -> List[Node]:
    """Drop regions strictly containing another region (twin of
    ``regions._keep_minimal``; subset test is an ``AND NOT`` emptiness)."""
    bdd = view.bdd
    unique = list(dict.fromkeys(regions))
    unique.sort(key=view.size_of)
    minimal: List[Node] = []
    for candidate in unique:
        if not any(
            kept != candidate and bdd.apply_diff(kept, candidate) == bdd.false
            for kept in minimal
        ):
            minimal.append(candidate)
    return minimal


def _crossing_flags(
    view: SymbolicGraphView, edge: SignalEdge, block: Node
) -> Tuple[bool, bool]:
    """``(enters, exits)`` of ``edge`` w.r.t. ``block`` with legality,
    matching ``regions.Crossing.enters`` / ``.exits``."""
    has_enter, has_exit, has_inside, has_outside, _e, _x, _o = _event_crossing(
        view, view.pieces_of(edge), block
    )
    legal = not (
        (has_enter and (has_exit or has_inside or has_outside))
        or (has_exit and (has_enter or has_inside or has_outside))
    )
    return (has_enter and legal, has_exit and legal)


def minimal_preregions_symbolic(
    view: SymbolicGraphView, edge: SignalEdge, max_explored: int = 20000
) -> List[Node]:
    """Minimal pre-regions of ``edge`` (seeded with its excitation set;
    candidates the event no longer exits are discarded)."""
    candidates = minimal_regions_containing_symbolic(
        view, view.er_set(edge), max_explored=max_explored
    )
    return [r for r in candidates if _crossing_flags(view, edge, r)[1]]


def minimal_postregions_symbolic(
    view: SymbolicGraphView, edge: SignalEdge, max_explored: int = 20000
) -> List[Node]:
    """Minimal post-regions of ``edge`` (seeded with its switching set)."""
    candidates = minimal_regions_containing_symbolic(
        view, view.sr_set(edge), max_explored=max_explored
    )
    return [r for r in candidates if _crossing_flags(view, edge, r)[0]]


# ----------------------------------------------------------------------
# bricks
# ----------------------------------------------------------------------
def _intersection_closure_symbolic(
    view: SymbolicGraphView, regions: List[Node]
) -> List[Node]:
    """Close a family of state sets under pairwise intersection (twin of
    ``bricks._intersection_closure``; the per-event cap is logged when
    hit because beyond it the closure content is order-sensitive)."""
    bdd = view.bdd
    closure = list(dict.fromkeys(regions))
    seen = set(closure)
    queue = list(closure)
    while queue and len(closure) < MAX_CLOSURE_PER_EVENT:
        current = queue.pop()
        for other in list(closure):
            candidate = bdd.apply_and(current, other)
            if candidate != bdd.false and candidate not in seen:
                closure.append(candidate)
                seen.add(candidate)
                queue.append(candidate)
                if len(closure) >= MAX_CLOSURE_PER_EVENT:
                    _log.warning(
                        "intersection_closure_capped",
                        name=view.name,
                        cap=MAX_CLOSURE_PER_EVENT,
                    )
                    break
    return closure


def compute_bricks_symbolic(
    view: SymbolicGraphView, mode: str = "regions", max_explored: int = 20000
) -> List[Node]:
    """The brick set as state-set nodes (twin of
    ``bricks.compute_bricks``; ``mode="states"`` would enumerate and is
    not offered symbolically)."""
    if mode not in ("regions", "excitation"):
        raise ValueError(
            f"brick mode {mode!r} is not supported by the symbolic insertion path"
        )
    bricks: List[Node] = []
    for edge in view.base_edges():
        check_deadline()
        bricks.extend(excitation_regions_symbolic(view, edge))
    if mode == "regions":
        for edge in view.base_edges():
            check_deadline()
            pre = minimal_preregions_symbolic(view, edge, max_explored=max_explored)
            post = minimal_postregions_symbolic(view, edge, max_explored=max_explored)
            bricks.extend(_intersection_closure_symbolic(view, pre))
            bricks.extend(_intersection_closure_symbolic(view, post))
    unique = list(dict.fromkeys(b for b in bricks if b != view.bdd.false))
    return _canonical_set_sort(view, unique, key_style="brick")


def brick_adjacency_symbolic(
    view: SymbolicGraphView, bricks: Sequence[Node]
) -> Dict[int, Set[int]]:
    """Adjacency between bricks by index: overlap, or an arc of the graph
    connects them in either direction (twin of
    ``bricks.brick_adjacency``)."""
    bdd = view.bdd
    images: List[Node] = []
    for brick in bricks:
        poll_deadline()
        images.append(view.image(bdd.apply_and(brick, view.reached)))
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(bricks))}
    for i in range(len(bricks)):
        poll_deadline()
        for j in range(i + 1, len(bricks)):
            if (
                bdd.apply_and(bricks[i], bricks[j]) != bdd.false
                or bdd.apply_and(images[i], bricks[j]) != bdd.false
                or bdd.apply_and(images[j], bricks[i]) != bdd.false
            ):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return adjacency


# ----------------------------------------------------------------------
# exit borders and I-partitions
# ----------------------------------------------------------------------
def exit_border_symbolic(view: SymbolicGraphView, block: Node) -> Node:
    """``EB(block)``: members with a transition leaving the block,
    ``B ∧ ⋁_p (D_p ∧ ¬pre_p(B))`` — one conjunction with the block
    (``D_p`` already lies inside the reached set)."""
    bdd = view.bdd
    escaping = bdd.false
    for index in range(len(view.pieces)):
        escaping = bdd.apply_or(
            escaping,
            bdd.apply_diff(view.sources(index), view.pre_of(index, block)),
        )
    return bdd.apply_and(block, escaping)


def min_wellformed_exit_border_symbolic(
    view: SymbolicGraphView, block: Node
) -> Node:
    """``MWFEB(block)``: the exit border closed under successors inside
    the block (twin of ``ipartition.min_wellformed_exit_border``)."""
    bdd = view.bdd
    border = exit_border_symbolic(view, block)
    frontier = border
    while frontier != bdd.false:
        check_deadline()
        grown = bdd.apply_and(view.image(frontier), block)
        grown = bdd.apply_diff(grown, border)
        border = bdd.apply_or(border, grown)
        frontier = grown
    return border


@dataclass
class SymbolicIPartition:
    """The four blocks ``S0 / S+ / S1 / S-`` as state-set nodes."""

    s0: Node
    splus: Node
    s1: Node
    sminus: Node

    def zero_side(self, bdd: BDD) -> Node:
        return bdd.apply_or(self.s0, self.splus)

    def one_side(self, bdd: BDD) -> Node:
        return bdd.apply_or(self.s1, self.sminus)


def ipartition_from_block_symbolic(
    view: SymbolicGraphView, block: Node
) -> SymbolicIPartition:
    """Derive the I-partition induced by a bipartition block (twin of
    ``ipartition.ipartition_from_block``, over the reachable set)."""
    bdd = view.bdd
    block = bdd.apply_and(block, view.reached)
    complement = bdd.apply_diff(view.reached, block)
    splus = min_wellformed_exit_border_symbolic(view, block)
    sminus = min_wellformed_exit_border_symbolic(view, complement)
    return SymbolicIPartition(
        s0=bdd.apply_diff(block, splus),
        splus=splus,
        s1=bdd.apply_diff(complement, sminus),
        sminus=sminus,
    )


# ----------------------------------------------------------------------
# cost terms
# ----------------------------------------------------------------------
def entering_signals_symbolic(view: SymbolicGraphView, subset: Node) -> Set[str]:
    """Signals labelling arcs entering ``subset`` (twin of
    ``cost.entering_signals``)."""
    bdd = view.bdd
    not_subset = bdd.apply_not(subset)
    signals: Set[str] = set()
    for index, piece in enumerate(view.pieces):
        if piece.edge.signal in signals:
            continue
        entering = bdd.apply_and(
            view.sources(index),
            bdd.apply_and(not_subset, view.pre_of(index, subset)),
        )
        if entering != bdd.false:
            signals.add(piece.edge.signal)
    return signals


def delayed_signals_symbolic(
    view: SymbolicGraphView, partition: SymbolicIPartition
) -> Set[str]:
    """Signals whose transitions acquire the new signal as a trigger
    (twin of ``cost.delayed_signals``)."""
    bdd = view.bdd
    one_side = partition.one_side(bdd)
    zero_side = partition.zero_side(bdd)
    signals: Set[str] = set()
    for index, piece in enumerate(view.pieces):
        if piece.edge.signal in signals:
            continue
        src = view.sources(index)
        postponed = bdd.apply_or(
            bdd.apply_and(
                bdd.apply_and(src, partition.splus), view.pre_of(index, one_side)
            ),
            bdd.apply_and(
                bdd.apply_and(src, partition.sminus), view.pre_of(index, zero_side)
            ),
        )
        if postponed != bdd.false:
            signals.add(piece.edge.signal)
    return signals


def delayed_edges_symbolic(
    view: SymbolicGraphView, partition: SymbolicIPartition
) -> Set[SignalEdge]:
    """Base edges postponed by the insertion (twin of
    ``sip.delayed_events``)."""
    bdd = view.bdd
    one_side = partition.one_side(bdd)
    zero_side = partition.zero_side(bdd)
    edges: Set[SignalEdge] = set()
    for index, piece in enumerate(view.pieces):
        if piece.edge in edges:
            continue
        src = view.sources(index)
        postponed = bdd.apply_or(
            bdd.apply_and(
                bdd.apply_and(src, partition.splus), view.pre_of(index, one_side)
            ),
            bdd.apply_and(
                bdd.apply_and(src, partition.sminus), view.pre_of(index, zero_side)
            ),
        )
        if postponed != bdd.false:
            edges.add(piece.edge)
    return edges


# ----------------------------------------------------------------------
# CSC conflict relation (view-generic) and block evaluation
# ----------------------------------------------------------------------
class ConflictContext:
    """The CSC conflict relation of a view plus the pair counts the cost
    model needs.

    The relation is the one of :mod:`repro.symbolic.csc` generalized to
    derived graphs: both states reachable, equal codes over the view's
    signal levels, some non-input edge enabled in exactly one of them.
    ``sat_count`` over both variable copies counts ordered pairs, so all
    pair counts are halved.
    """

    def __init__(self, view: SymbolicGraphView) -> None:
        self.view = view
        bdd = view.bdd
        self._prime = prime_map(view.num_state_vars)
        reached = view.reached
        reached_primed = bdd.rename(reached, self._prime)
        code_eq = bdd.true
        for level in sorted(view.signal_levels.values(), reverse=True):
            code_eq = bdd.apply_and(
                code_eq, bdd.apply_eq(bdd.var(level), bdd.var(level + 1))
            )
        pair = bdd.apply_and(bdd.apply_and(reached, reached_primed), code_eq)
        relation = bdd.false
        for edge in view.base_edges():
            check_deadline()
            if view.is_input_edge(edge):
                continue
            enabled = view.enabled_predicate(edge)
            differs = bdd.apply_xor(enabled, bdd.rename(enabled, self._prime))
            relation = bdd.apply_or(relation, bdd.apply_and(pair, differs))
        self.relation = relation
        self.all_levels = view.unprimed_levels + view.primed_levels
        self.pairs = bdd.sat_count(relation, self.all_levels) // 2

    def unsolved_pairs(self, partition: SymbolicIPartition) -> int:
        """Conflict pairs the partition does not firmly separate (twin of
        ``cost.count_unsolved``: pairs touching ``S+``/``S-`` stay
        unsolved)."""
        bdd = self.view.bdd
        if self.relation == bdd.false:
            return 0
        # The relation is symmetric under swapping the two state copies,
        # and the (S0, S1') / (S1, S0') orientations are disjoint, so the
        # halved two-sided count equals one orientation counted once.
        separated = bdd.apply_and(
            bdd.apply_and(self.relation, partition.s0),
            bdd.rename(partition.s1, self._prime),
        )
        return self.pairs - bdd.sat_count(separated, self.all_levels)


def conflict_context(view: SymbolicGraphView) -> ConflictContext:
    """Build the CSC conflict relation and pair count of ``view``."""
    return ConflictContext(view)


@dataclass
class SymbolicBlockEvaluation:
    """A candidate block with its derived partition and cost (twin of
    ``cost.BlockEvaluation``)."""

    block: Node
    partition: SymbolicIPartition
    cost: Cost


def evaluate_block_symbolic(
    view: SymbolicGraphView,
    block: Node,
    conflicts: ConflictContext,
    allow_input_delay: bool = True,
) -> Optional[SymbolicBlockEvaluation]:
    """Evaluate a candidate bipartition block (twin of
    ``cost.evaluate_block``): ``None`` for degenerate blocks, otherwise
    the partition plus the lexicographic Figure-4 cost with every term
    computed by ``sat_count`` / emptiness tests."""
    bdd = view.bdd
    block = bdd.apply_and(block, view.reached)
    if block == bdd.false or view.size_of(block) >= view.num_states:
        return None
    partition = ipartition_from_block_symbolic(view, block)
    if partition.splus == bdd.false or partition.sminus == bdd.false:
        return None
    delayed = delayed_signals_symbolic(view, partition)
    input_delays = 0
    if not allow_input_delay:
        input_delays = sum(1 for s in delayed if s in view.input_signals)
    triggers_plus = entering_signals_symbolic(view, partition.splus)
    triggers_minus = entering_signals_symbolic(view, partition.sminus)
    cost = Cost(
        unsolved_conflicts=conflicts.unsolved_pairs(partition),
        input_delays=input_delays,
        trigger_estimate=len(triggers_plus) + len(triggers_minus) + len(delayed),
        border_size=view.size_of(partition.splus) + view.size_of(partition.sminus),
    )
    return SymbolicBlockEvaluation(block=block, partition=partition, cost=cost)
