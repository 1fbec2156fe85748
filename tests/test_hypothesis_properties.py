"""Property-based tests (hypothesis) for the core data structures."""

from hypothesis import assume, given, settings, strategies as st

from repro.bdd import BDD, prime_map
from repro.core.regions import crossing, is_region
from repro.logic.cubes import Cube
from repro.logic.minimize import minimize_cover, verify_cover
from repro.stg.signals import FALL, RISE, SignalEdge
from repro.ts import TransitionSystem, is_deterministic
from repro.utils.ordered import OrderedSet


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def small_transition_systems(draw):
    """Random deterministic transition systems with <= 8 states."""
    num_states = draw(st.integers(min_value=2, max_value=8))
    num_events = draw(st.integers(min_value=1, max_value=4))
    states = [f"s{i}" for i in range(num_states)]
    events = [chr(ord("a") + i) for i in range(num_events)]
    ts = TransitionSystem("random")
    for state in states:
        ts.add_state(state)
    ts.set_initial(states[0])
    # deterministic: at most one target per (state, event)
    for state in states:
        for event in events:
            if draw(st.booleans()):
                target = draw(st.sampled_from(states))
                ts.add_transition(state, event, target)
    return ts


@st.composite
def minterm_partition(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    all_minterms = []
    for value in range(2 ** width):
        all_minterms.append(tuple((value >> i) & 1 for i in range(width)))
    labels = draw(
        st.lists(st.sampled_from(["on", "off", "dc"]), min_size=len(all_minterms), max_size=len(all_minterms))
    )
    on = [m for m, lab in zip(all_minterms, labels) if lab == "on"]
    off = [m for m, lab in zip(all_minterms, labels) if lab == "off"]
    return width, on, off


# ----------------------------------------------------------------------
# region properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(small_transition_systems(), st.sets(st.integers(min_value=0, max_value=7)))
def test_complement_of_region_is_region(ts, index_subset):
    states = ts.states
    subset = {states[i] for i in index_subset if i < len(states)}
    if is_region(ts, subset):
        complement = set(states) - subset
        assert is_region(ts, complement)


@settings(max_examples=60, deadline=None)
@given(small_transition_systems())
def test_trivial_sets_are_regions_and_ts_deterministic(ts):
    assert is_region(ts, set())
    assert is_region(ts, set(ts.states))
    assert is_deterministic(ts)


@settings(max_examples=60, deadline=None)
@given(small_transition_systems(), st.sets(st.integers(min_value=0, max_value=7)))
def test_crossing_counts_partition_event_transitions(ts, index_subset):
    states = ts.states
    subset = {states[i] for i in index_subset if i < len(states)}
    for event in ts.events:
        relation = crossing(ts, subset, event)
        total = relation.enter + relation.exit + relation.inside + relation.outside
        assert total == len(ts.transitions_of(event))


# ----------------------------------------------------------------------
# logic minimiser properties
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(minterm_partition())
def test_minimized_cover_is_correct(partition):
    width, on, off = partition
    cover = minimize_cover(on, off, width)
    assert verify_cover(cover, on, off) == []


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_cube_expansion_monotone(width, data):
    minterm = tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(width))
    cube = Cube.from_minterm(minterm)
    position = data.draw(st.integers(min_value=0, max_value=width - 1))
    expanded = cube.without_literal(position)
    assert expanded.contains_cube(cube)
    assert expanded.literal_count() <= cube.literal_count()


# ----------------------------------------------------------------------
# BDD properties
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_bdd_matches_truth_table(num_vars, data):
    bdd = BDD(num_vars)
    truth = [data.draw(st.booleans()) for _ in range(2 ** num_vars)]
    function = bdd.false
    for value, bit in enumerate(truth):
        if bit:
            assignment = {i: (value >> i) & 1 for i in range(num_vars)}
            function = bdd.apply_or(function, bdd.cube(assignment))
    for value, bit in enumerate(truth):
        assignment = tuple((value >> i) & 1 for i in range(num_vars))
        assert bdd.evaluate(function, assignment) == int(bit)
    assert bdd.count_solutions(function) == sum(truth)


# ----------------------------------------------------------------------
# misc data structures
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5)))
def test_ordered_set_behaves_like_set(items):
    ordered = OrderedSet(items)
    assert set(ordered) == set(items)
    assert len(ordered) == len(set(items))


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6),
       st.sampled_from([RISE, FALL]),
       st.integers(min_value=0, max_value=9))
def test_signal_edge_parse_format_roundtrip(signal, direction, index):
    edge = SignalEdge(signal, direction, index)
    assert SignalEdge.parse(str(edge)) == edge


# ----------------------------------------------------------------------
# evaluation-kernel properties: planes vs the big-int oracle
# ----------------------------------------------------------------------
_KERNEL_CACHE = {}


def _candidate_kernels():
    """One big-int oracle kernel plus both plane backends, over the VME
    controller's state graph and its real CSC conflict set (cached: the
    state graph is deterministic, hypothesis only varies the masks)."""
    if "kernels" not in _KERNEL_CACHE:
        import repro.core.planes as planes_mod
        from repro.bench_stg import generators as gen
        from repro.core.csc import csc_conflicts
        from repro.engine.indexing import IndexedEvaluator
        from repro.stg.state_graph import build_state_graph

        sg = build_state_graph(gen.vme_controller())
        conflicts = csc_conflicts(sg)

        def kernel(impl):
            return IndexedEvaluator(
                sg, conflicts, allow_input_delay=False, kernel_impl=impl
            ).kernel

        bigint = kernel("bigint")
        vector = kernel("planes")
        pure = kernel("planes")
        saved = planes_mod._np
        planes_mod._np = None  # build-time switch: backend is frozen per instance
        try:
            pure.batch_kernel()
        finally:
            planes_mod._np = saved
        _KERNEL_CACHE["kernels"] = (bigint, vector, pure)
    return _KERNEL_CACHE["kernels"]


def _evaluation_key(evaluation):
    if evaluation is None:
        return None
    return (
        evaluation.mask,
        evaluation.size,
        bytes(evaluation.side),
        evaluation.cost,
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plane_kernels_match_bigint_oracle(data):
    from repro.core.indexed import evaluate_candidates

    bigint, vector, pure = _candidate_kernels()
    num_states = bigint.num_states
    batch_size = data.draw(st.integers(min_value=1, max_value=70))
    masks = [
        data.draw(st.integers(min_value=0, max_value=(1 << num_states) - 1))
        for _ in range(batch_size)
    ]
    expected = [_evaluation_key(e) for e in evaluate_candidates(bigint, masks)]
    for kernel in (vector, pure):
        got = [_evaluation_key(e) for e in evaluate_candidates(kernel, masks)]
        assert got == expected


# ----------------------------------------------------------------------
# BDD sifting properties: reordering never changes the function
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_sifting_preserves_functions(num_vars, data):
    bdd = BDD(num_vars)
    functions = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        function = bdd.false
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            cube = {
                var: data.draw(st.integers(min_value=0, max_value=1))
                for var in data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=num_vars - 1), min_size=1
                    )
                )
            }
            function = bdd.apply_or(function, bdd.cube(cube))
        functions.append(function)
    before = [bdd.count_solutions(f) for f in functions]
    probes = [
        tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(num_vars))
        for _ in range(4)
    ]
    before_probes = [[bdd.evaluate(f, p) for p in probes] for f in functions]
    before_restrict = [bdd.restrict(f, 0, 1) for f in functions]

    bdd.reorder()  # full sifting over single-variable blocks

    assert [bdd.count_solutions(f) for f in functions] == before
    assert [[bdd.evaluate(f, p) for p in probes] for f in functions] == before_probes
    # restrict results are node ids; recomputing them after the reorder
    # must land on nodes denoting the same functions
    for function, old_restrict in zip(functions, before_restrict):
        new_restrict = bdd.restrict(function, 0, 1)
        assert bdd.apply_xor(new_restrict, old_restrict) == bdd.false
    assert sorted(bdd.var_order()) == list(range(num_vars))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_grouped_sifting_preserves_pair_relations(num_pairs, data):
    """Sifting interleaved (unprimed, primed) blocks — the solver's
    grouping — keeps relational sat-counts over both copies intact."""
    bdd = BDD(2 * num_pairs)
    relation = bdd.true
    for pair in range(num_pairs):
        if data.draw(st.booleans()):
            clause = bdd.apply_eq(bdd.var(2 * pair), bdd.var(2 * pair + 1))
        else:
            clause = bdd.apply_or(bdd.var(2 * pair), bdd.nvar(2 * pair + 1))
        relation = bdd.apply_and(relation, clause)
    levels = list(range(2 * num_pairs))
    before = bdd.sat_count(relation, levels)
    groups = [(2 * k, 2 * k + 1) for k in range(num_pairs)]
    bdd.reorder(groups=groups)
    assert bdd.sat_count(relation, levels) == before


# ----------------------------------------------------------------------
# BDD computed tables: cube cofactor, rename and sat_count
# ----------------------------------------------------------------------
def _random_function(bdd, num_vars, data, variables=None):
    """A random sum of random cubes over ``variables`` (all by default)."""
    pool = list(range(num_vars)) if variables is None else list(variables)
    function = bdd.false
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        literals = data.draw(st.sets(st.sampled_from(pool), min_size=1))
        cube = {var: data.draw(st.integers(min_value=0, max_value=1)) for var in literals}
        function = bdd.apply_or(function, bdd.cube(cube))
    return function


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_cube_cofactor_equals_chained_restrict(num_vars, data):
    bdd = BDD(num_vars)
    function = _random_function(bdd, num_vars, data)
    literals = data.draw(st.sets(st.integers(min_value=0, max_value=num_vars - 1)))
    assignment = {var: data.draw(st.integers(min_value=0, max_value=1)) for var in literals}
    cofactor = bdd.cofactor(function, bdd.cube(assignment))
    chained = function
    for var, value in assignment.items():
        chained = bdd.restrict(chained, var, value)
    assert cofactor == chained
    # pointwise: the cofactor ignores the cube's variables
    for bits in range(1 << num_vars):
        point = [(bits >> var) & 1 for var in range(num_vars)]
        fixed = [assignment.get(var, value) for var, value in enumerate(point)]
        assert bdd.evaluate(cofactor, point) == bdd.evaluate(function, fixed)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_computed_tables_agree_across_reorder(num_pairs, data):
    """Warm cofactor/rename/sat_count tables give the same functions and
    counts after sifting as before (and as a fresh computation)."""
    bdd = BDD(2 * num_pairs)
    unprimed = [2 * i for i in range(num_pairs)]
    functions = [
        _random_function(bdd, 2 * num_pairs, data, unprimed)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    literals = data.draw(st.sets(st.sampled_from(unprimed)))
    cube = bdd.cube({var: data.draw(st.integers(min_value=0, max_value=1)) for var in literals})
    mapping = prime_map(num_pairs)
    everything = list(range(2 * num_pairs))

    def snapshot():
        return [
            (
                bdd.cofactor(f, cube),
                bdd.rename(f, mapping),
                bdd.sat_count(f, unprimed),
                bdd.sat_count(bdd.apply_and(f, bdd.rename(f, mapping)), everything),
            )
            for f in functions
        ]

    before = snapshot()
    assert snapshot() == before  # warm tables answer like cold ones
    bdd.reorder(groups=[(2 * k, 2 * k + 1) for k in range(num_pairs)])
    after = snapshot()
    for old, new in zip(before, after):
        # node ids of the same function may differ once the order moved
        assert bdd.apply_xor(old[0], new[0]) == bdd.false
        assert bdd.apply_xor(old[1], new[1]) == bdd.false
        assert old[2:] == new[2:]
    # and the counts are the true ones, by enumeration
    for function, (_c, _r, count, _p) in zip(functions, after):
        points = 0
        for bits in range(1 << num_pairs):
            point = [0] * (2 * num_pairs)
            for i, var in enumerate(unprimed):
                point[var] = (bits >> i) & 1
            points += bdd.evaluate(function, point)
        assert count == points


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.data())
def test_bounded_manager_flushes_the_new_tables(num_vars, data):
    bounded = BDD(2 * num_vars, max_cache_entries=1)
    free = BDD(2 * num_vars)
    unprimed = [2 * i for i in range(num_vars)]
    # the same random draws build the same function in both managers
    choices = [
        (
            data.draw(st.sets(st.sampled_from(unprimed), min_size=2)),
            data.draw(st.integers(min_value=0, max_value=(1 << num_vars) - 1)),
        )
        for _ in range(4)
    ]

    def results(bdd):
        function = bdd.false
        for literals, values in choices:
            cube = {var: (values >> (var // 2)) & 1 for var in literals}
            function = bdd.apply_or(function, bdd.cube(cube))
        # one node per table cannot overflow a one-entry table
        assume(len(bdd.support(function)) >= 2)
        cofactored = bdd.cofactor(function, bdd.cube({unprimed[0]: 1}))
        renamed = bdd.rename(function, prime_map(num_vars))
        return (
            bdd.sat_count(cofactored, unprimed),
            bdd.sat_count(renamed, [v + 1 for v in unprimed]),
            bdd.sat_count(function, unprimed),
        )

    assert results(bounded) == results(free)
    stats = bounded.cache_stats()
    for family in ("cofactor", "rename", "sat_count"):
        assert family in stats["families"]
        assert stats[f"{family}_entries"] <= 1
    assert stats["families"]["rename"]["flushes"] >= 1
    assert stats["families"]["sat_count"]["flushes"] >= 1
    assert stats["flushes"] == sum(f["flushes"] for f in stats["families"].values())
