"""Tests for the symbolic elimination of the support-five contraction cases."""

import collections
import functools
import itertools
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipsplit.criteria import (
    _closed_form,
    greedy_blocks,
    hexagon_check,
    hexagon_determinant,
    in_hexagon,
    invertibility_excludes,
    pairing_excludes,
    pairing_matrix,
)
from chipsplit.enumeration import _resolve_survivor, sign_survivor_search
from chipsplit.grid import PERMUTATIONS, ChipConfiguration, act_point, compose, grid_points
from chipsplit.hyperfield import (
    RING_DEPTH,
    XI_PRIME_COORDS,
    ContractionPoint,
    chi,
    contract,
    lambda_set,
    s3_on_contraction,
)
from chipsplit import hyperfield, pipeline
from chipsplit.linalg import Poly, binomial, falling_poly, integer_roots_at_or_above, poly_det
from chipsplit.pipeline import (
    D_FLOOR,
    ScenarioFailure,
    Sym,
    SymPoint,
    _E_MIN,
    _LOW_ROW,
    _REGION_ROWS,
    _STRIP_BOX,
    _SYMMETRY_IMAGES,
    _TOP_WINDOW,
    _attempt_excluded,
    _attempt_guards,
    _attempt_regions,
    _block_verdict,
    _classify_column,
    _column_variables,
    _entry,
    _expand,
    _extremes,
    _final_slice_patterns,
    _group_offsets,
    _hexagon_instances,
    _pairing_det,
    _partitions,
    _placed_carrier,
    _region_decision,
    _region_failures,
    _scaled_row,
    _sign_for_all,
    _strip_masks,
    cell_possibilities,
    hexagon_eliminates,
    invertibility_eliminates,
    pipeline_summary,
    relset_pipeline,
    special_eliminates,
    symmetry_eliminates,
)

from bareiss_poly import bareiss_poly_det

FINAL_RECORD = {
    "x[0,0]": -1,
    "r[0,3]": 1,
    "t[3,0]": 1,
    "alpha[1]": 1,
    "beta[1]": 1,
    "gamma[1]": 1,
}
EXCEPTIONAL_RECORD = {
    "x[0,0]": -1,
    "x[0,3]": 1,
    "x[1,1]": 1,
    "x[3,0]": 1,
    "gamma[0]": 1,
}
HEXAGON_RECORDS = [
    {"x[0,0]": -1, "x[0,3]": 1, "x[1,1]": 1, "x[3,0]": 1, "t[3,3]": 1, "gamma[0]": 1},
    {"x[0,0]": -1, "x[0,3]": 1, "x[1,1]": 1, "x[3,0]": 1, "r[3,3]": 1, "gamma[0]": 1},
    {"x[0,0]": -1, "x[0,3]": 1, "x[1,1]": 1, "x[3,0]": 1, "r[3,3]": 1, "t[3,3]": 1},
]
STAGE_COUNTS = {
    "invertibility": 2272,
    "symmetry": 13,
    "hexagon": 3,
    "special": 2,
    "survivor": 0,
}

STRIP_KINDS = ("alpha", "beta", "gamma")

sym_exprs = st.builds(
    Sym,
    st.integers(-3, 3),
    st.integers(-50, 50),
    st.dictionaries(
        st.sampled_from(["m_a", "m_b"]), st.integers(-3, 3).filter(bool), max_size=2
    ).map(lambda terms: tuple(sorted(terms.items()))),
)


def evaluate(sym, d, values=None):
    total = sym.dc * d + sym.c
    for name, coeff in sym.terms:
        total += coeff * (values or {})[name]
    return total


def split_cell(name):
    kind, rest = name.split("[")
    return kind, [int(part) for part in rest.rstrip("]").split(",")]


def placed_point(name, d, m=None):
    """Concrete grid position of a support cell, strips at height m."""
    kind, idx = split_cell(name)
    top = d - (RING_DEPTH - 1)  # the degree of the top ring's lowest diagonal
    if kind == "x":
        return (idx[0], idx[1])
    if kind == "r":
        return (idx[0], top - idx[0] + idx[1])
    if kind == "t":
        return (top - idx[1] + idx[0], idx[1])
    if kind == "alpha":
        return (idx[0], m)
    if kind == "beta":
        return (m, idx[0])
    return (m, d - idx[0] - m)


def strip_positions(name, d):
    """Every concrete position a strip cell admits, generic and near-top."""
    return range(RING_DEPTH, d - (RING_DEPTH - 1) - split_cell(name)[1][0])


def support_names(record):
    return [name for name, v in record.items() if v]


class TestSym:
    @given(sym_exprs, sym_exprs, st.integers(-4, 4))
    def test_arithmetic_matches_evaluation(self, x, y, k):
        d, values = 51, {"m_a": 9, "m_b": 30}
        assert evaluate(x + y, d, values) == evaluate(x, d, values) + evaluate(y, d, values)
        assert evaluate(x - y, d, values) == evaluate(x, d, values) - evaluate(y, d, values)
        assert evaluate(x.scaled(k), d, values) == k * evaluate(x, d, values)
        assert evaluate(x.shifted(k), d, values) == evaluate(x, d, values) + k

    def test_substitution_replaces_and_keeps(self):
        x = Sym.var("m_a") + Sym.var("m_b").scaled(2) + Sym.dee(3)
        out = x.subst({"m_a": Sym.dee(-5)})
        assert evaluate(out, 50, {"m_b": 7}) == (50 - 5) + 14 + 53
        assert out.subst({"m_b": Sym.const(4)}).is_const is False

    @given(sym_exprs)
    @settings(max_examples=200, deadline=None)
    def test_sign_for_all_is_sound(self, x):
        claim = _sign_for_all(x, D_FLOOR, _STRIP_BOX)
        if claim is None:
            return
        for d in (D_FLOOR, D_FLOOR + 1, 61):
            corners = (4, 17, d - 7)
            for ma, mb in itertools.product(corners, corners):
                value = evaluate(x, d, {"m_a": ma, "m_b": mb})
                assert (value > 0) - (value < 0) == claim

    def test_sign_for_all_on_the_pinch_guard(self):
        guard = Sym.dee(-1) - Sym.var("m_alpha[1]").scaled(2)
        assert _sign_for_all(guard, D_FLOOR, _STRIP_BOX) is None
        assert _sign_for_all(guard.shifted(-12), D_FLOOR, _STRIP_BOX) is None
        pinch = Sym.dee(-9) - Sym.var("m").scaled(2)
        assert _sign_for_all(pinch, D_FLOOR, _STRIP_BOX) is None
        bounded = Sym.var("m").scaled(2) - Sym.dee().scaled(2) + Sym.const(5)
        assert _sign_for_all(bounded, D_FLOOR, _STRIP_BOX) == -1
        assert _sign_for_all(Sym.dee(-6) - Sym.var("m"), D_FLOOR, _STRIP_BOX) == 1

    def test_sign_for_all_reads_its_floor_from_the_caller(self):
        # d - 30 is positive from d = 42 on, and changes sign from d = 21 on.
        assert _sign_for_all(Sym.dee(-30), 42, _STRIP_BOX) == 1
        assert _sign_for_all(Sym.dee(-30), 21, _STRIP_BOX) is None


class TestCellPossibilities:
    def test_option_counts(self):
        assert len(cell_possibilities("x[2,1]")) == 1
        assert len(cell_possibilities("r[0,3]")) == 1
        assert len(cell_possibilities("alpha[0]")) == 4
        assert len(cell_possibilities("alpha[3]")) == 1
        assert len(cell_possibilities("beta[2]")) == 2
        assert len(cell_possibilities("gamma[1]")) == 3

    def test_corner_cells_pin_points(self):
        d = 45
        (p,) = cell_possibilities("r[1,2]")
        assert (evaluate(p.i, d), evaluate(p.j, d)) == (1, d - 2)
        (p,) = cell_possibilities("t[2,3]")
        assert (evaluate(p.i, d), evaluate(p.j, d)) == (d - 4, 3)

    def test_points_are_shared_objects(self):
        # The attempts share one object per cell point, so that most
        # cache probes compare points by identity.
        for name in ("x[2,1]", "r[0,3]", "alpha[0]", "beta[2]", "gamma[1]"):
            assert cell_possibilities(name) is cell_possibilities(name)

    @pytest.mark.parametrize("idx", range(RING_DEPTH))
    def test_strip_options_tile_the_whole_strip(self, idx):
        d = 45
        for kind in STRIP_KINDS:
            name = f"{kind}[{idx}]"
            seen = set()
            for p in cell_possibilities(name):
                var_names = {n for n, _ in p.i.terms} | {n for n, _ in p.j.terms}
                assert var_names <= {f"m_{name}"}
                if var_names:
                    # The strip box [r, d - (2r - 1)].
                    for m in range(RING_DEPTH, d - 2 * RING_DEPTH + 2):
                        values = {f"m_{name}": m}
                        seen.add((evaluate(p.i, d, values), evaluate(p.j, d, values)))
                else:
                    seen.add((evaluate(p.i, d), evaluate(p.j, d)))
            assert seen == {placed_point(name, d, m) for m in strip_positions(name, d)}

    def test_strip_box_at_depth_four(self):
        assert _STRIP_BOX == (Sym.const(4), Sym.dee(-7))

    @pytest.mark.parametrize("d", range(D_FLOOR, D_FLOOR + 4))
    def test_cells_hold_the_points_ring_cell_gives_them(self, d):
        # The pipeline's positions and hyperfield.ring_cell read one ring:
        # every merged cell's possibilities, with the generic strip point
        # over the strip box, are exactly the grid points that feed it.
        low, top = (evaluate(end, d) for end in _STRIP_BOX)
        fed = collections.defaultdict(set)
        for p in grid_points(d):
            cell = hyperfield._merged_cell(p, d)
            if cell is not None:
                fed[cell].add(p)
        assert set(fed) == set(XI_PRIME_COORDS)
        for name in XI_PRIME_COORDS:
            seen = set()
            for p in cell_possibilities(name):
                heights = range(low, top + 1) if p.variables() else [None]
                seen |= {(evaluate(p.i, d, {f"m_{name}": m}), evaluate(p.j, d, {f"m_{name}": m})) for m in heights}
            assert seen == fed[name], name


def placements(n_vars):
    """All ways the variable columns can sit relative to the fixed clusters.

    Each variable is either attached to the low cluster at an explicit
    column, attached to the top cluster at an explicit distance from d,
    or floating; floating variables are grouped into chains with
    explicit internal offsets and an unconstrained common base. The
    scenario oracle: the pipeline enumerates each region's contents
    instead.
    """
    low_hi = 3 + 5 * n_vars
    top_hi = 6 + 5 * n_vars
    base = (
        [("low", v) for v in range(4, low_hi + 1)]
        + [("top", o) for o in range(7, top_hi + 1)]
        + [("float",)]
    )
    for combo in itertools.product(base, repeat=n_vars):
        floats = [k for k, choice in enumerate(combo) if choice == ("float",)]
        if not floats:
            yield combo
            continue
        for grouping in _partitions(floats):
            for offsets in itertools.product(
                *(_group_offsets(len(group)) for group in grouping)
            ):
                detailed = list(combo)
                for g, (group, offs) in enumerate(zip(grouping, offsets)):
                    for member, off in zip(group, offs):
                        detailed[member] = ("float", g, off)
                yield tuple(detailed)


def attempt_failures(points):
    """The pairing failures of every placement scenario that is not vacuous.

    The scenario oracle of the region-first walk. Yields one list per
    scenario, in placement order. The pairing runs region by region:
    the low region, each float base in name order, then the top window.
    A region's failures are memoised per attempt on its moved points.
    """
    if any(len(p.variables()) > 1 for p in points):
        raise AssertionError("a support point carries more than one variable")
    colvars = _column_variables(points)
    movers = [
        (k, p, name, colexpr, v)
        for v, (name, colexpr) in enumerate(colvars)
        for k, p in enumerate(points)
        if name in p.variables()
    ]
    moving = {k for k, *_ in movers}
    fixed = {"low": [], "top": []}
    for k, p in enumerate(points):
        if k not in moving:
            kind = _classify_column(p.i)
            fixed[kind[0]].append((k, p, kind[1]))
    memo = {}
    for placement in placements(len(colvars)):
        low, top, floats = [], [], {}
        for k, p, name, colexpr, v in movers:
            slot = _placed_carrier(p, name, colexpr, placement[v])
            if slot is None:
                break
            q, kind = slot
            if kind[0] == "low":
                low.append((k, q, kind[1]))
            elif kind[0] == "top":
                top.append((k, q, kind[1]))
            else:
                floats.setdefault(kind[1], []).append((k, q, kind[2]))
        else:
            regions = [("low", low)]
            if floats:
                regions += sorted(floats.items())
            regions.append(("top", top))
            failures = []
            for region, entries in regions:
                key = (region, *entries)
                found = memo.get(key)
                if found is None:
                    limit, base_row = (
                        (None, Sym.var(region)) if region.startswith("B") else _REGION_ROWS[region]
                    )
                    found = memo[key] = _region_failures(
                        fixed.get(region, []) + entries, limit, base_row
                    )
                failures += found
            yield failures


def scenario_guards(points):
    """The guards of every failing block over every scenario, None if one has none."""
    guards = set()
    for failures in attempt_failures(points):
        for failure in failures:
            if failure.expr is None:
                return None
            guards.add(failure.expr)
    return guards


def reference_substitution(colvars, placement):
    """Solve every placed column expression for its variable, from scratch.

    The per-placement solve, with no table or cache; None marks a
    vacuous placement.
    """
    mapping = {}
    for (name, colexpr), choice in zip(colvars, placement):
        if choice[0] == "low":
            col = Sym.const(choice[1])
        elif choice[0] == "top":
            col = Sym.dee(-choice[1])
        else:
            col = Sym.var(f"B{choice[1]}").shifted(choice[2])
        coeff = dict(colexpr.terms)[name]
        rest = colexpr - Sym(0, 0, ((name, coeff),))
        value = (col - rest).scaled(coeff)
        if _sign_for_all(value.shifted(-4), D_FLOOR, _STRIP_BOX) == -1:
            return None
        if _sign_for_all(Sym.dee(-7) - value, D_FLOOR, _STRIP_BOX) == -1:
            return None
        mapping[name] = value
    return mapping


def reference_scenarios(points):
    colvars = _column_variables(points)
    for placement in placements(len(colvars)):
        mapping = reference_substitution(colvars, placement)
        if mapping is not None:
            yield [p.subst(mapping) for p in points]


def generic_points(names):
    return [cell_possibilities(name)[0] for name in names]


@functools.cache
def case_attempts_by_width():
    """One generic-position case attempt per count of column variables."""
    by_width = {}
    for case in lambda_set():
        points = generic_points(support_names(case.record()))
        for attempt in (points, [p.transposed() for p in points]):
            by_width.setdefault(len(_column_variables(attempt)), attempt)
    return by_width


THREE_VARIABLE_NAMES = ["x[0,0]", "beta[0]", "beta[2]", "gamma[1]", "t[3,0]"]


def reference_scenario_failures(points, verdict):
    """The greedy pairing that classifies every point in every scenario.

    Builds the low, top and float column maps of one placed scenario
    from all its points, classifying each afresh, and hands each block
    to verdict as a tuple of built rows.
    """
    failures = []
    low, top, floats = {}, {}, {}
    for idx, p in enumerate(points):
        kind = _classify_column(p.i)
        if kind[0] == "low":
            low.setdefault(kind[1], []).append(idx)
        elif kind[0] == "top":
            top.setdefault(kind[1], []).append(idx)
        else:
            floats.setdefault(kind[1], {}).setdefault(kind[2], []).append(idx)
    regions = [(low, None, Sym.const(0))]
    for base, positions in sorted(floats.items()):
        regions.append((positions, None, Sym.var(base)))
    regions.append((top, _TOP_WINDOW + 1, Sym.dee(-_TOP_WINDOW)))
    for positions, limit, base_row in regions:
        blocks = greedy_blocks(positions, limit)
        if blocks is None:
            failures.append(ScenarioFailure("infeasible", "no balanced column composition"))
            continue
        for c_lo, width, members in blocks:
            rows = tuple(base_row.shifted(c_lo + w) for w in range(width))
            failure = verdict(rows, tuple(points[m] for m in members))
            if failure is not None:
                failures.append(failure)
    return failures


@functools.cache
def rows_verdict(rows, pts):
    """The uncached verdict body, keyed by the block's built rows.

    It runs with the rows' first entry as base and no offset, so
    comparing it with the pipeline also checks that the pipeline's
    (base_row, c_lo, width) key names the same rows.
    """
    return _block_verdict.__wrapped__(rows[0], 0, len(rows), pts)


@functools.cache
def reference_placed(points):
    return list(reference_scenarios(list(points)))


@functools.cache
def reference_attempt(points):
    """The reference failures of every scenario, and the blocks they asked for."""
    asked = set()

    def verdict(rows, pts):
        asked.add((rows, pts))
        return rows_verdict(rows, pts)

    failures = [
        reference_scenario_failures(placed, verdict)
        for placed in reference_placed(points)
    ]
    return failures, asked


# A moved carrier (index 0) that can land in the column of a fixed point
# with a higher index (index 1, column 4), so the order of a column's
# members is observable in the verdict keys.
SHARED_COLUMN_POINTS = [
    SymPoint(Sym.var("m_a"), Sym.const(1)),
    SymPoint(Sym.const(4), Sym.const(2)),
    SymPoint(Sym.const(0), Sym.const(0)),
    SymPoint(Sym.dee(-3), Sym.const(0)),
]


def comparison_attempts():
    """The attempts the region-by-region pairing is checked on, as tuples."""
    by_width = case_attempts_by_width()
    final_points = generic_points(support_names(FINAL_RECORD))
    attempts = [
        by_width[1],
        [p.transposed() for p in by_width[1]],
        by_width[2],
        [p.transposed() for p in by_width[2]],
        generic_points(THREE_VARIABLE_NAMES),
        final_points,
        [p.transposed() for p in final_points],
    ]
    return [tuple(points) for points in attempts]


@functools.cache
def per_case_run():
    """Each case's own ``relset_pipeline`` verdict, and every pairing attempt decided, in order.

    Runs the chain on every case of Lambda, mirror images too, so the
    attempts are all those a run decides without sharing a verdict
    between a case and its (12) image.
    """
    attempts = []
    real = pipeline._attempt_excluded

    def recording(points):
        attempts.append(tuple(points))
        return real(points)

    pipeline._attempt_excluded = recording
    try:
        verdicts = [relset_pipeline(case) for case in lambda_set()]
    finally:
        pipeline._attempt_excluded = real
    return verdicts, attempts


def special_case_attempts():
    """Both attempts of every position pattern of the two special cases."""
    attempts = []
    for record in (FINAL_RECORD, EXCEPTIONAL_RECORD):
        case = ContractionPoint.from_record(record, XI_PRIME_COORDS)
        for combo in itertools.product(*(cell_possibilities(name) for name in case.record())):
            attempts += [list(combo), [p.transposed() for p in combo]]
    return attempts


class TestScenarioGenerators:
    @pytest.mark.parametrize("n, bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)])
    def test_partitions_list_every_set_partition_once(self, n, bell):
        items = list(range(n))
        seen = []
        for partition in _partitions(items):
            assert sorted(x for block in partition for x in block) == items
            assert all(partition)
            seen.append(frozenset(frozenset(block) for block in partition))
        assert len(seen) == len(set(seen)) == bell

    def test_partitions_of_two_keep_the_joined_group_first(self):
        # The float bases are named B0, B1 in this order, so the order of a
        # full run's groupings (at most two column variables) is pinned.
        assert list(_partitions([3, 7])) == [[[3, 7]], [[3], [7]]]

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_group_offsets_are_the_chains_of_their_rule(self, size):
        # Any member of a group may sit lowest, at offset 0.
        def rule(chain):
            ordered = sorted(chain)
            return ordered[0] == 0 and all(b - a <= 5 for a, b in zip(ordered, ordered[1:]))

        box = itertools.product(range(-6, 5 * size + 1), repeat=size)
        assert list(_group_offsets(size)) == [chain for chain in box if rule(chain)]


class TestAttemptFailures:
    def test_attempts_cover_every_column_variable_count(self):
        # A merged record has at most one strip cell of each kind, so its
        # attempts carry at most two column variables; the three-variable
        # attempt is built by hand.
        assert set(case_attempts_by_width()) == {0, 1, 2}
        widths = [len(_column_variables(points)) for points in comparison_attempts()]
        assert widths == [1, 1, 2, 2, 3, 2, 2]

    def test_failures_match_the_per_scenario_pairing(self):
        # The scenario oracle's region memo agrees with the pairing that
        # classifies every point of every scenario afresh.
        scenarios = failing = 0
        for points in comparison_attempts():
            expected, _ = reference_attempt(points)
            assert list(attempt_failures(list(points))) == expected
            scenarios += len(expected)
            failing += sum(1 for failures in expected if failures)
        assert scenarios and failing, (scenarios, failing)

    def test_excluded_matches_the_scenario_walk_on_every_attempt(self):
        attempts = per_case_run()[1]
        assert len(attempts) == 7041
        distinct = set(attempts)
        excluded = 0
        for points in distinct:
            expected = not any(attempt_failures(list(points)))
            assert _attempt_excluded(list(points)) == expected, points
            excluded += expected
        assert 0 < excluded < len(distinct), (excluded, len(distinct))

    def test_guards_match_the_scenario_walk(self):
        # The comparison attempts, both attempts of every pattern of the two
        # special cases, and every attempt of a full run that moves a point.
        attempts = [list(points) for points in comparison_attempts()] + special_case_attempts()
        attempts += [list(points) for points in set(per_case_run()[1]) if _column_variables(points)]
        kinds = collections.Counter()
        for points in attempts:
            expected = scenario_guards(points)
            assert _attempt_guards(points) == expected, points
            kinds["none" if expected is None else "guarded" if expected else "excluded"] += 1
        assert set(kinds) == {"none", "guarded", "excluded"}, kinds

    def test_attempt_without_a_realisable_scenario_is_excluded(self):
        # The fixed points fail on their own, but the moved point's column
        # d + m is past the triangle under every choice, so every scenario
        # is vacuous and no region content is realised.
        fixed = [SymPoint(Sym.const(i), Sym.const(j)) for i, j in [(0, 0), (0, 3), (1, 1), (3, 0)]]
        points = fixed + [SymPoint(Sym.dee() + Sym.var("m_a"), Sym.const(0))]
        assert not _attempt_excluded(fixed)
        assert list(attempt_failures(points)) == []
        assert _attempt_excluded(points)
        assert _attempt_guards(points) == set()

    @pytest.mark.parametrize("entry_point", ["regions", "excluded"])
    def test_asks_for_the_reference_verdict_keys(self, monkeypatch, entry_point):
        # The whole region walk asks for exactly the blocks of every
        # scenario. _attempt_excluded asks for the same when it excludes
        # the attempt; when it fails, it stops after the structure of its
        # first failing region content, before regions the scenario walk
        # still visits. A cached region asks for nothing, so each
        # observation starts with an empty region cache.
        def recording(base_row, c_lo, width, pts):
            rows = tuple(base_row.shifted(c_lo + w) for w in range(width))
            asked.add((rows, pts))
            return _block_verdict(base_row, c_lo, width, pts)

        monkeypatch.setattr(pipeline, "_block_verdict", recording)
        walks = collections.Counter()
        for points in comparison_attempts() + [tuple(SHARED_COLUMN_POINTS)]:
            asked = set()
            expected = reference_attempt(points)[1]
            _region_decision.cache_clear()
            if entry_point == "regions":
                list(_attempt_regions(list(points)))
            elif not _attempt_excluded(list(points)):
                assert asked <= expected
                walks["stopped"] += 1
                continue
            assert asked == expected
            walks["whole"] += 1
        assert set(walks) == ({"whole"} if entry_point == "regions" else {"stopped", "whole"}), walks

    def test_shared_column_keeps_members_in_point_order(self, monkeypatch):
        asked = []
        monkeypatch.setattr(
            pipeline, "_block_verdict", lambda *key: asked.append(key) or _block_verdict(*key)
        )
        _region_decision.cache_clear()
        list(_attempt_regions(SHARED_COLUMN_POINTS))
        moved, fixed = SymPoint(Sym.const(4), Sym.const(1)), SHARED_COLUMN_POINTS[1]
        assert (_LOW_ROW, 4, 2, (moved, fixed)) in asked
        assert all(key[3] != (fixed, moved) for key in asked)


@functools.cache
def choices_by_position(n_vars):
    """Every choice each variable position takes over all placements."""
    seen = [set() for _ in range(n_vars)]
    for placement in placements(n_vars):
        for v, choice in enumerate(placement):
            seen[v].add(choice)
    return seen


def test_low_columns_stop_at_the_top_windows_first_row():
    # At the floor the top window starts at column D_FLOOR - _TOP_WINDOW = 18,
    # which three low-placed variables reach (3 + 5 * 3); a full run's
    # low columns stay at 13 or below.
    assert _classify_column(Sym.const(D_FLOOR - _TOP_WINDOW)) == ("low", 18)
    with pytest.raises(AssertionError, match="unexpected explicit column"):
        _classify_column(Sym.const(D_FLOOR - _TOP_WINDOW + 1))


def test_placed_carrier_matches_the_reference_substitution():
    met = set()
    for case in lambda_set():
        points = generic_points(support_names(case.record()))
        for attempt in (points, [p.transposed() for p in points]):
            colvars = _column_variables(attempt)
            choices = choices_by_position(len(colvars))
            for (name, colexpr), position_choices in zip(colvars, choices):
                for p in attempt:
                    if name in p.variables():
                        met.update((p, name, colexpr, c) for c in position_choices)
    vacuous = 0
    for p, name, colexpr, choice in met:
        mapping = reference_substitution([(name, colexpr)], [choice])
        got = _placed_carrier(p, name, colexpr, choice)
        if mapping is None:
            assert got is None, (p, choice)
            vacuous += 1
        else:
            q = p.subst(mapping)
            assert got == (q, _classify_column(q.i)), (p, choice)
    assert vacuous and len(met) > vacuous, (len(met), vacuous)


# A record whose pairing meets blocks beyond the closed forms, which need
# the exact determinant.
GENERAL_BLOCK_RECORD = {
    "x[0,0]": -1,
    "r[1,3]": 1,
    "r[2,3]": 1,
    "t[1,1]": 1,
    "t[3,0]": 1,
    "alpha[0]": 1,
}


class TestBlockVerdictCache:
    def count_determinants(self, monkeypatch):
        calls = []
        real = pipeline.poly_det

        def counting(grid):
            calls.append(len(grid))
            return real(grid)

        monkeypatch.setattr(pipeline, "poly_det", counting)
        return calls

    def test_cached_verdicts_equal_fresh_ones(self, monkeypatch):
        met = []

        def recording(*key):
            met.append(key)
            return _block_verdict(*key)

        monkeypatch.setattr(pipeline, "_block_verdict", recording)
        _region_decision.cache_clear()
        invertibility_eliminates(
            ContractionPoint.from_record(GENERAL_BLOCK_RECORD, XI_PRIME_COORDS)
        )
        monkeypatch.setattr(pipeline, "_block_verdict", _block_verdict)
        calls = self.count_determinants(monkeypatch)
        for key in met:
            assert _block_verdict(*key) == _block_verdict.__wrapped__(*key)
        assert calls, "no general block was met"

    def test_repeat_makes_no_determinant_calls(self, monkeypatch):
        case = ContractionPoint.from_record(GENERAL_BLOCK_RECORD, XI_PRIME_COORDS)
        _block_verdict.cache_clear()
        _region_decision.cache_clear()
        calls = self.count_determinants(monkeypatch)
        invertibility_eliminates(case)
        assert calls
        calls.clear()
        invertibility_eliminates(case)
        assert calls == []


def permutation_sum_det(rows):
    """Leibniz expansion of an integer determinant."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


def concrete_block_dets(base_row, c_lo, width, pts):
    """The oracle: a block's determinant at concrete values of its symbol.

    The symbol is d, with floor D_FLOOR, when some upper argument reads
    d + c, and u = d - base, with floor 7, otherwise. Returns the product
    of the row factors K_w! the pipeline scales row w by, K_w being the
    row's largest lower index, and a map from sum K_w + 1 symbol values,
    at or above the floor and where every upper argument is
    nonnegative, to the permutation-sum determinant of the guarded
    binomial entries there. Both the scaled determinant and this one
    have degree at most sum K_w, so these values fix them.
    """
    lead = base_row.shifted(c_lo)
    columns = sorted(pts, key=lambda p: (p.i - lead).c)
    uppers = [Sym.dee() - (p.i + p.j) for p in columns]
    ks = [[(lead.shifted(w) - p.i).c for p in columns] for w in range(width)]
    tops = [max(max(row), 0) for row in ks]
    floor = D_FLOOR if any(not (upper.is_const or upper.terms) for upper in uppers) else 7
    start = max([floor] + [-upper.c for upper in uppers if not upper.is_const])
    values = {}
    for s in range(start, start + sum(tops) + 1):
        args = [upper.c if upper.is_const else s + upper.c for upper in uppers]
        values[s] = permutation_sum_det([[binomial(n, k) for n, k in zip(args, row)] for row in ks])
    return math.prod(math.factorial(top) for top in tops), values


def test_block_determinants_are_scaled_integer_fraction_determinants(monkeypatch):
    # A full run from a cold cache: every distinct block is decided once,
    # and each general block's determinant has int coefficients and is
    # the product of its row factors times the permutation-sum
    # determinant of its binomial entries, at enough symbol values. Every
    # grid that reaches poly_det, the slice's too, has the determinant
    # the Bareiss elimination on Poly entries gives. The traffic the
    # module docstring quotes, which the region, verdict, carrier and
    # entry caches are kept for, is pinned too.
    asked, current, determinants, grids = set(), [None], {}, []
    traffic = collections.Counter()
    real_det = pipeline.poly_det

    def counting_walk(*args):
        traffic["region walks"] += 1
        return _region_failures(*args)

    def recording_det(grid):
        det = real_det(grid)
        grids.append((grid, det))
        if current[0] is not None:
            determinants[current[0]] = det
        return det

    def recording_verdict(*key):
        traffic["verdict asks"] += 1
        asked.add(key)
        current[0] = key
        try:
            return _block_verdict(*key)
        finally:
            current[0] = None

    _block_verdict.cache_clear()
    _placed_carrier.cache_clear()
    _region_decision.cache_clear()
    _entry.cache_clear()
    monkeypatch.setattr(pipeline, "poly_det", recording_det)
    monkeypatch.setattr(pipeline, "_block_verdict", recording_verdict)
    monkeypatch.setattr(pipeline, "_region_failures", counting_walk)
    pipeline_summary.__wrapped__()
    assert len(asked) == 620
    assert traffic == {"region walks": 14856, "verdict asks": 38858}
    carriers = _placed_carrier.cache_info()
    assert (carriers.misses, carriers.hits) == (267, 6428)
    regions = _region_decision.cache_info()
    assert (regions.misses, regions.hits) == (2242, 12079)
    entries = _entry.cache_info()
    assert (entries.misses, entries.hits) == (207, 3999)
    assert len(grids) == 217
    for grid, det in grids:
        assert det == bareiss_poly_det(grid), grid
    assert determinants
    for key, det in determinants.items():
        assert all(type(c) is int for c in det.coeffs), key
        factor, values = concrete_block_dets(*key)
        assert det.degree < len(values), key
        for s, value in values.items():
            assert det(s) == factor * value, (key, s)


def test_cached_region_decisions_equal_fresh_ones(monkeypatch):
    # Every region a cold full run decides, decided again without the
    # cache: the key holds everything a region's content list reads.
    asked = set()

    def recording(*key):
        asked.add(key)
        return _region_decision(*key)

    _region_decision.cache_clear()
    monkeypatch.setattr(pipeline, "_region_decision", recording)
    pipeline_summary.__wrapped__()
    assert len(asked) == _region_decision.cache_info().currsize == 2242
    for key in asked:
        assert _region_decision(*key) == _region_decision.__wrapped__(*key), key
    assert {"float" if n is None else region for region, _, _, n in asked} == {"low", "top", "float"}


def test_two_and_one_verdict_agrees_with_the_integer_guard():
    # Every two-and-one block of the low region with constant heights up
    # to 12: the pipeline's guard sign and the census's integer guard
    # must call the same blocks singular.
    checked = 0
    for lead in range(3):
        for j1, j2 in itertools.combinations(range(13), 2):
            for j3 in range(13):
                shifted = [(0, j1), (0, j2), (1, j3)]
                pts = tuple(SymPoint(Sym.const(lead + i), Sym.const(j)) for i, j in shifted)
                failure = _block_verdict(Sym.const(0), lead, 3, pts)
                singular = failure is not None and failure.reason == "singular"
                assert singular == (_closed_form(shifted) is False), (lead, shifted)
                assert failure is None or singular, failure
                checked += 1
    assert checked == 3 * 78 * 13


class TestBlockVerdictRefusals:
    # Hand-built blocks for the verdicts a full run never returns. A
    # point (i, d - c - i) has the constant complementary degree c.

    @staticmethod
    def low_block(points):
        """Low-region points from (column, complementary degree) pairs."""
        return tuple(SymPoint(Sym.const(i), Sym.dee(-c - i)) for i, c in points)

    @pytest.mark.parametrize(
        "points,singular",
        [([(0, 0), (0, 1), (1, 1), (2, 1)], False), ([(0, 0), (0, 1), (1, 0), (2, 0)], True)],
    )
    def test_constant_blocks_are_decided_by_their_value(self, points, singular):
        # Every entry is a constant, so the determinant is one number; the
        # pairing matrix at any d agrees.
        failure = _block_verdict(_LOW_ROW, 0, 4, self.low_block(points))
        concrete = {(i, 50 - c - i) for i, c in points}
        assert (pairing_matrix(set(range(4)), concrete, 50).determinant() == 0) == singular
        assert failure == (ScenarioFailure("singular", "identically singular block") if singular else None)

    def test_float_point_at_a_free_height_mixes_the_degree_with_a_base(self):
        # (B0, m) has the complementary degree d - B0 - m: two variables.
        base = Sym.var("B0")
        pts = (
            SymPoint(base, Sym.var("m_alpha[0]")),
            SymPoint(base.shifted(1), Sym.const(0)),
            SymPoint(base.shifted(1), Sym.const(1)),
        )
        failure = _block_verdict(base, 0, 3, pts)
        assert failure == ScenarioFailure("ambiguous", "entry mixes the degree with a base")

    @pytest.mark.parametrize("c,root", [(5, 7), (4, None)])
    def test_u_determinant_root_counts_from_seven(self, c, root):
        # Complementary degrees u - 2, c, u - 2 in columns 0, 0, 2 of a
        # float block, u = d - B0 >= 7: the determinant is c + 2 - u.
        base = Sym.var("B0")
        pts = (
            SymPoint(base, Sym.const(2)),
            SymPoint(base, Sym.dee(-c) - base),
            SymPoint(base.shifted(2), Sym.const(0)),
        )
        failure = _block_verdict(base, 0, 3, pts)
        if root is None:
            assert failure is None
        else:
            assert failure == ScenarioFailure("ambiguous", f"block determinant vanishes at u in [{root}]")

    @pytest.mark.parametrize("c,root", [(40, 42), (39, None)])
    def test_d_determinant_root_counts_from_the_floor(self, c, root):
        # The low-region twin: complementary degrees d - 2, c, d - 2 and
        # the determinant c + 2 - d, read from d = D_FLOOR on.
        pts = (
            SymPoint(Sym.const(0), Sym.const(2)),
            SymPoint(Sym.const(0), Sym.dee(-c)),
            SymPoint(Sym.const(2), Sym.const(0)),
        )
        failure = _block_verdict(_LOW_ROW, 0, 3, pts)
        if root is None:
            assert failure is None
        else:
            assert failure == ScenarioFailure("ambiguous", f"block determinant vanishes at d in [{root}]")

    def test_region_past_its_stop_is_infeasible(self):
        # Columns 0, 0, 1 close one block of width 3, which a stop at 2 refuses.
        points = [(0, 0), (0, 2), (1, 0)]
        entries = [(k, SymPoint(Sym.const(i), Sym.const(j)), i) for k, (i, j) in enumerate(points)]
        assert _region_failures(entries, 3, _LOW_ROW) == []
        infeasible = ScenarioFailure("infeasible", "no balanced column composition")
        assert _region_failures(entries, 2, _LOW_ROW) == [infeasible]


class TestExtremes:
    # The slice's distinct boxes for g over e >= _E_MIN, and the strip box
    # over d >= D_FLOOR; the symbol is the Sym's degree slot either way.
    BOXES = [(_E_MIN, box) for box in dict.fromkeys(box for *_, box in _final_slice_patterns())]
    BOXES.append((D_FLOOR, _STRIP_BOX))

    def brute(self, expr, floor, box, top):
        lo, hi = box
        return [
            evaluate(expr, s, {"g": g})
            for s in range(floor, top + 1)
            for g in range(evaluate(lo, s), evaluate(hi, s) + 1)
        ]

    def test_bounds_match_brute_force(self):
        for floor, box in self.BOXES:
            for ce, c0, cg in itertools.product((-2, -1, 0, 1, 2), repeat=3):
                expr = Sym(ce, c0, (("g", cg),) if cg else ())
                lo, hi = _extremes(expr, floor, box)
                near = self.brute(expr, floor, box, floor + 19)
                if lo is None:
                    assert min(self.brute(expr, floor, box, floor + 59)) < min(near)
                else:
                    assert lo == min(near)
                if hi is None:
                    assert max(self.brute(expr, floor, box, floor + 59)) > max(near)
                else:
                    assert hi == max(near)


def concrete_slice_instance(points, rows, e, g):
    d = 2 * e + 1
    S = []
    for i_form, upper in points:
        i = evaluate(i_form, e, {"g": g})
        S.append((i, d - i - evaluate(upper, e)))
    E = [evaluate(row, e, {"g": g}) for row in rows]
    return d, E, S


def slice_columns(e):
    """Each column g some slice pattern puts gamma[1]'s point at, once per pattern, sorted."""
    columns = []
    for _, points, _, box in _final_slice_patterns():
        column = points[-1][0]
        low, high = box if column.terms else (column, column)
        columns += range(evaluate(low, e), evaluate(high, e) + 1)
    return sorted(columns)


def gamma_one_columns(d):
    """The columns i whose point on the diagonal of degree d - 1 feeds gamma[1]."""
    return [i for i in range(d) if hyperfield._merged_cell((i, d - 1 - i), d) == "gamma[1]"]


def sample_gs(box, e):
    lo, hi = evaluate(box[0], e), evaluate(box[1], e)
    return sorted({lo, (lo + hi) // 2, hi})


def slice_row_factor(rows, points, box):
    """The product of the row factors K_r! the slice scales row r by.

    K_r is the largest lower index among the row's evaluated entries,
    which ``test_entry_classification_is_sound`` checks against the
    guarded binomial.
    """
    factor = 1
    for row in rows:
        kappas = []
        for i_form, upper in points:
            entry = _entry(upper, row - i_form, _E_MIN, box)
            if entry is not None:
                kappas.append(entry[0])
        factor *= math.factorial(max(kappas))
    return factor


# Small integer polynomials, zero about half the time, so that expansions
# often cut a row of unevaluated entries away.
small_polys = st.one_of(st.just(Poly([])), st.lists(st.integers(-3, 3), max_size=3).map(Poly))
# Square grids of them with about a third of the entries unevaluated (None).
partly_evaluated_grids = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.none(), small_polys, small_polys), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def filled(grid, hole):
    """The grid with its k-th unevaluated (None) entry, in row order, set to hole(k)."""
    holes = itertools.count()
    return [[hole(next(holes)) if entry is None else entry for entry in row] for row in grid]


class TestExpand:
    @settings(max_examples=400, deadline=None)
    @given(partly_evaluated_grids)
    @example([[Poly([1]), None], [Poly([]), Poly([2])]])
    @example([[Poly([0, 1]), None, None], [Poly([]), Poly([1]), Poly([2])], [Poly([]), Poly([3]), Poly([1, 1])]])
    def test_expansion_is_the_determinant_under_every_filling(self, grid):
        # The unevaluated entries' rows must be expanded away, so when
        # _expand returns, its value cannot depend on what they hold.
        if all(entry is not None for row in grid for entry in row):
            assert _expand(grid) == poly_det(grid)
        elif all(any(row[c] is None for row in grid) for c in range(len(grid))):
            with pytest.raises(AssertionError):
                _expand(grid)
        else:
            try:
                det = _expand(grid)
            except AssertionError:
                return  # stuck in a minor
            assert det == poly_det(filled(grid, lambda k: Poly([1])))
            assert det == poly_det(filled(grid, lambda k: Poly([k + 2, -1])))


def test_row_without_an_evaluated_entry_reaches_the_expansion_refusal():
    # Such a row leaves no evaluated column, so _expand refuses it, as it
    # refuses any grid outside the pairing blocks and slice patterns.
    assert _scaled_row([None, None]) == [None, None]
    assert _scaled_row([None, (2, Poly([0, 1])), (0, Poly([3]))]) == [None, Poly([0, 1]), Poly([6])]
    grid = [_scaled_row([None, None]), _scaled_row([(0, Poly([1])), (1, Poly([0, 1]))])]
    with pytest.raises(AssertionError, match="no evaluated column"):
        _expand(grid)
    with pytest.raises(AssertionError, match="no evaluated column"):
        # binomial(d - m, 5 - m) over the strip box is exponential in both d and m.
        _pairing_det([Sym.const(5)], [(Sym.var("m"), Sym.dee() - Sym.var("m"))], D_FLOOR, _STRIP_BOX)


class TestFinalSlice:
    def test_entry_classification_is_sound(self):
        for _, points, rows, box in _final_slice_patterns():
            for e in (21, 34):
                for g in sample_gs(box, e):
                    for row in rows:
                        for i_form, upper in points:
                            k = row - i_form
                            entry = _entry(upper, k, _E_MIN, box)
                            if entry is None:
                                continue
                            kappa, poly = entry
                            uv = evaluate(upper, e)
                            kv = evaluate(k, e, {"g": g})
                            scale = math.factorial(kappa)
                            assert poly(e) == binomial(uv, kv) * scale, (upper, k, e, g)
                            if not poly:
                                continue
                            # The entry has degree at most kappa, so
                            # kappa + 1 values of e fix it for every e.
                            assert poly.degree <= kappa
                            for v in range(_E_MIN, _E_MIN + kappa + 1):
                                value = binomial(evaluate(upper, v), kappa) * scale
                                assert poly(v) == value, (upper, k, v)

    @pytest.mark.parametrize("e", [21, 22, 30])
    def test_patterns_tile_gamma_ones_range(self, e):
        # Pairwise disjoint (no column twice) and covering every position
        # the pairing stage enumerates for gamma[1] at d = 2e + 1.
        assert slice_columns(e) == gamma_one_columns(2 * e + 1)

    def test_determinants_match_the_cubic(self):
        def anchor(e):
            return e * (e + 1) * (2 * e + 1) // 6

        for name, points, rows, box in _final_slice_patterns():
            det = _pairing_det(rows, points, _E_MIN, box)
            factor = slice_row_factor(rows, points, box)
            assert all(isinstance(c, int) for c in det.coeffs), name
            for e in (21, 30):
                expected = anchor(e) * ((e - 1) if name == "at-strip" else 1)
                assert abs(det(e)) == expected * factor, name

    @pytest.mark.parametrize("e", [21, 25])
    def test_determinants_match_concrete_pairing_matrices(self, e):
        for name, points, rows, box in _final_slice_patterns():
            det = _pairing_det(rows, points, _E_MIN, box)
            factor = slice_row_factor(rows, points, box)
            for g in sample_gs(box, e):
                d, E, S = concrete_slice_instance(points, rows, e, g)
                assert len(set(E)) == len(set(S)) == 6
                concrete = pairing_matrix(set(E), set(S), d).determinant()
                assert abs(concrete) * factor == abs(det(e)), (name, g)

    def test_concrete_pairing_stalls_exactly_on_the_slice(self):
        d, e = 43, 21
        pinched = {(0, 0), (0, d), (d, 0), (1, e), (e, 1), (10, d - 11)}
        assert not invertibility_excludes(pinched, d).excluded
        nudged = {(0, 0), (0, d), (d, 0), (1, e + 1), (e, 1), (10, d - 11)}
        assert invertibility_excludes(nudged, d).excluded


class TestGuardAudit:
    def generic_points(self, record):
        case = ContractionPoint.from_record(record, XI_PRIME_COORDS)
        return [cell_possibilities(name)[0] for name in support_names(case.record())]

    def test_final_case_guards_pin_the_middle_heights(self):
        points = self.generic_points(FINAL_RECORD)
        flipped = [p.transposed() for p in points]
        assert not _attempt_excluded(points)
        assert not _attempt_excluded(flipped)
        guards = _attempt_guards(points)
        assert set(guards) == {(1, -1, (("m_alpha[1]", -2),))}
        guards = _attempt_guards(flipped)
        assert set(guards) == {(1, -1, (("m_beta[1]", -2),))}

    def test_certified_attempt_reports_no_guards(self):
        for case in lambda_set():
            names = support_names(case.record())
            if any(split_cell(n)[0] in STRIP_KINDS for n in names):
                continue
            if not invertibility_eliminates(case):
                continue
            points = [cell_possibilities(name)[0] for name in names]
            flipped = [p.transposed() for p in points]
            assert set() in (_attempt_guards(points), _attempt_guards(flipped))
            return
        raise AssertionError("no strip-free case was eliminated by the pairing")

    def test_exceptional_record_resists_the_pairing(self):
        points = [
            cell_possibilities(name)[0] for name in support_names(EXCEPTIONAL_RECORD)
        ]
        # The two-and-one guard 0 + 3 - 2*1 - 1 vanishes identically, which
        # is what pushes this record to the subtraction argument.
        assert not _attempt_excluded(points)
        assert not _attempt_excluded([p.transposed() for p in points])


class TestInvertibilityStage:
    def test_symbolic_claims_hold_concretely(self):
        d = 45
        picked = []
        for case in lambda_set():
            names = support_names(case.record())
            strips = [n for n in names if split_cell(n)[0] in STRIP_KINDS]
            if len(strips) > 1:
                continue
            if invertibility_eliminates(case):
                picked.append((names, strips))
            if len(picked) == 6:
                break
        assert len(picked) == 6
        for names, strips in picked:
            fixed = [placed_point(n, d) for n in names if n not in strips]
            sweeps = [[None]] if not strips else [strip_positions(strips[0], d)]
            for (m,) in itertools.product(*sweeps):
                support = set(fixed)
                if strips:
                    support.add(placed_point(strips[0], d, m))
                assert len(support) == len(names)
                assert invertibility_excludes(frozenset(support), d).excluded

    def test_symmetry_image_succeeds_where_the_original_fails(self):
        case = ContractionPoint.from_record(
            {"x[0,0]": -1, "r[1,3]": 1, "r[2,2]": 1, "t[3,0]": 1, "alpha[0]": 1, "beta[1]": 1},
            XI_PRIME_COORDS,
        )
        assert not invertibility_eliminates(case)
        assert symmetry_eliminates(case) == "(13)"


def five_image_symmetry(case):
    """The symmetry stage as it tried every nontrivial image in the order of PERMUTATIONS; the oracle."""
    for sigma in PERMUTATIONS[1:]:
        if invertibility_eliminates(s3_on_contraction(sigma, case)):
            return sigma
    return None


@functools.cache
def cases_reaching_symmetry():
    """The five-support cases the invertibility stage leaves to the symmetry stage."""
    return [
        verdict.case
        for verdict in pipeline_summary().verdicts
        if verdict.eliminated_by != "invertibility" and len(verdict.case.positive_support()) == 5
    ]


class TestSymmetryStage:
    def test_one_image_per_coset_of_the_transposition(self):
        cosets = [{sigma, compose("(12)", sigma)} for sigma in ("e", *_SYMMETRY_IMAGES)]
        assert set().union(*cosets) == set(PERMUTATIONS)

    def test_transposing_an_image_is_the_transposed_symmetry(self):
        for case in lambda_set():
            for sigma in PERMUTATIONS:
                assert s3_on_contraction(compose("(12)", sigma), case) == s3_on_contraction(
                    "(12)", s3_on_contraction(sigma, case)
                )

    def test_sigma_and_its_transposition_agree(self):
        cases = cases_reaching_symmetry()
        assert len(cases) == 17
        for case in cases:
            for sigma in PERMUTATIONS:
                assert invertibility_eliminates(s3_on_contraction(sigma, case)) == invertibility_eliminates(
                    s3_on_contraction(compose("(12)", sigma), case)
                )

    def test_two_images_return_what_five_did(self):
        for case in cases_reaching_symmetry():
            assert symmetry_eliminates(case) == five_image_symmetry(case)


HEXAGON_NAMES = ("small", "thirds", "wide_i", "wide_j")


def hand_strip_allowed(kind: str, idx: int, inst: str, d: int, m: int) -> bool:
    """Whether one hexagon instance contains the generic strip position m, by hand.

    The case analysis the pipeline wrote out before it read the instances
    off their (d', ell1, ell2) triples, kept verbatim as the oracle.
    """
    t = d // 3
    if kind == "alpha":
        small = m <= 6 - idx
        if inst == "small" or inst == "wide_i":
            return small
        if inst == "thirds":
            return (m + idx <= t) | (m >= d - t + 1)
        return small | (m >= t)
    if kind == "beta":
        small = m <= 6 - idx
        if inst == "small" or inst == "wide_j":
            return small
        if inst == "thirds":
            return (m + idx <= t) | (m >= d - t + 1)
        return small | (m >= t)
    if kind == "gamma":
        small = m <= 6 - idx
        if inst == "small":
            return small
        if inst == "thirds":
            return (m <= t - idx - 1) | (m >= d - t + 1)
        if inst == "wide_i":
            return small | (m >= t)
        return small | (m <= d - idx - t)
    raise ValueError(f"unexpected strip kind {kind}")


class TestHexagonStage:
    def test_derived_masks_match_the_hand_cases(self):
        # The strip masks are read at D_FLOOR only; the hand cases show
        # they are the same at every d past it.
        for d in range(D_FLOOR, 247):
            instances = dict(zip(HEXAGON_NAMES, _hexagon_instances(d)))
            for kind in STRIP_KINDS:
                for idx in range(4):
                    hand_masks = set()
                    for m in range(4, d - 6):
                        point = {"alpha": (idx, m), "beta": (m, idx), "gamma": (m, d - idx - m)}[kind]
                        mask = 0
                        for bit, name in enumerate(HEXAGON_NAMES):
                            allowed = hand_strip_allowed(kind, idx, name, d, m)
                            assert in_hexagon(point, d, *instances[name]) == allowed
                            mask |= allowed << bit
                        hand_masks.add(mask)
                    assert _strip_masks(kind, idx) == hand_masks

    def test_instances_are_admissible_exactly_from_the_floor(self):
        # hexagon_check raises ValueError on an inadmissible (d', ell1, ell2).
        empty = ChipConfiguration({})
        for d in range(D_FLOOR, 247):
            for inst in _hexagon_instances(d):
                hexagon_check(empty, d, *inst)
        small, thirds, wide_i, wide_j = _hexagon_instances(D_FLOOR - 1)
        for inst in (small, thirds):
            hexagon_check(empty, D_FLOOR - 1, *inst)
        for inst in (wide_i, wide_j):
            with pytest.raises(ValueError):
                hexagon_check(empty, D_FLOOR - 1, *inst)

    def test_backing_determinants_are_nonzero(self):
        # The thirds instance (t, t, t) lies inside the hexagon (t, t, d - 2t)
        # that fills d, also when 3 does not divide d. Its determinant grows
        # with d; past the degrees checked here it rests on the box formula.
        for d in range(D_FLOOR, 123):
            t = d // 3
            assert _hexagon_instances(d)[1] == (t, t, t)
            determinant = hexagon_determinant(d, t, t)
            assert determinant.nonzero()
            assert determinant.matching == "shifted"

    def test_wide_family_determinant_is_nonzero_at_every_degree(self):
        # small, wide_i and wide_j (the transpose) lie inside the hexagon
        # (6, 7, d - 13) that fills d, whose determinant is that of
        # binom(N, 7 + k - a), N = d - 6. Row k times (7 + k)! is a
        # matrix of integer polynomials in N, so one determinant decides
        # every d.
        for d in range(D_FLOOR, 123):
            small, _, wide_i, wide_j = _hexagon_instances(d)
            assert small[:2] == wide_i[:2] == wide_j[::2] == (6, 7)
        d_small, ell1, _ = _hexagon_instances(D_FLOOR)[2]
        size = d_small + 1
        scaled = poly_det(
            [
                [falling_poly(1, 0, ell1 + k - a) * math.perm(ell1 + k, a) for a in range(size)]
                for k in range(size)
            ]
        )
        assert scaled.degree == 49
        assert integer_roots_at_or_above(scaled, 0) == list(range(size))
        scale = math.prod(math.factorial(ell1 + k) for k in range(size))
        for d in (20, 42, 44, 57, 100):
            assert scaled(d - d_small) == scale * hexagon_determinant(d, d_small, ell1).direct

    def test_exceptional_case_is_covered_at_every_degree_checked(self):
        # The smaller-support case stands for the origin, the corners
        # (0, 3), (1, 1), (3, 0) and two gamma[0] points. Every pair of
        # gamma[0] positions, generic or near-top, shares one instance
        # with the corners.
        corners = [(0, 0), (0, 3), (1, 1), (3, 0)]
        for d in range(D_FLOOR, 123):
            instances = _hexagon_instances(d)

            def mask(point):
                return sum(1 << bit for bit, inst in enumerate(instances) if in_hexagon(point, d, *inst))

            fixed = functools.reduce(operator.and_, map(mask, corners))
            positions = strip_positions("gamma[0]", d)
            assert len(positions) == d - 7
            masks = {mask((m, d - m)) & fixed for m in positions}
            assert all(a & b for a, b in itertools.product(masks, repeat=2)), d

    def test_exceptional_case_masks_meet_pairwise(self):
        # The gamma[0] masks read at D_FLOOR, which hexagon_eliminates
        # proves are the masks at every d >= D_FLOOR: no two are disjoint,
        # so the hexagon lemma covers the case as well as the subtraction.
        masks = _strip_masks("gamma", 0)
        assert masks == {0b0110, 0b1010, 0b1100, 0b1111}
        assert all(a & b for a, b in itertools.product(masks, repeat=2))

    def test_frozen_hexagon_records(self):
        for record in HEXAGON_RECORDS:
            assert hexagon_eliminates(ContractionPoint.from_record(record, XI_PRIME_COORDS))

    def test_final_case_is_not_covered(self):
        assert not hexagon_eliminates(ContractionPoint.from_record(FINAL_RECORD, XI_PRIME_COORDS))


class TestSpecialStage:
    def test_exceptional_certificate(self):
        cert = special_eliminates(ContractionPoint.from_record(EXCEPTIONAL_RECORD, XI_PRIME_COORDS))
        assert cert is not None
        assert "witness" in cert

    def test_final_case_certificate(self):
        cert = special_eliminates(ContractionPoint.from_record(FINAL_RECORD, XI_PRIME_COORDS))
        assert cert is not None
        assert cert["resistant_patterns"] == 3
        assert set(cert["determinants_in_e"]) == {
            "low",
            "below-strip",
            "at-strip",
            "high",
            "near-top",
            "nearer-top",
        }

    def test_final_case_slice_determinants_are_pinned(self):
        # The certificate's determinants reach no committed artifact, so
        # their coefficients (ascending in e) are pinned here.
        cert = special_eliminates(ContractionPoint.from_record(FINAL_RECORD, XI_PRIME_COORDS))
        assert cert["resistant_patterns"] == 3
        assert cert["determinants_in_e"] == {
            "low": ["0", "-1", "-3", "-2"],
            "below-strip": ["0", "-2", "-6", "-4"],
            "at-strip": ["0", "-1", "-2", "1", "2"],
            "high": ["0", "-1", "-3", "-2"],
            "near-top": ["0", "-120", "-360", "-240"],
            "nearer-top": ["0", "-24", "-72", "-48"],
        }

    def test_other_records_get_no_certificate(self):
        case = ContractionPoint.from_record(HEXAGON_RECORDS[2], XI_PRIME_COORDS)
        assert special_eliminates(case) is None


class TestPipelineReport:
    def test_stage_counts(self):
        report = pipeline_summary()
        assert report.counts == STAGE_COUNTS
        assert len(report.verdicts) == 2290
        assert report.survivors() == ()

    def test_hexagon_stage_catches_the_expected_records(self):
        report = pipeline_summary()
        records = [
            {k: v for k, v in verdict.case.record().items() if v}
            for verdict in report.verdicts
            if verdict.eliminated_by == "hexagon"
        ]
        assert records == HEXAGON_RECORDS

    def test_symmetry_always_goes_through_the_transposition(self):
        report = pipeline_summary()
        details = {
            verdict.detail
            for verdict in report.verdicts
            if verdict.eliminated_by == "symmetry"
        }
        assert details == {"pairing succeeds on the (13) image"}

    def test_symmetry_verdicts_carry_the_sigma_their_detail_quotes(self):
        symmetric = 0
        for verdict in pipeline_summary().verdicts:
            if verdict.eliminated_by != "symmetry":
                assert verdict.sigma is None
                continue
            symmetric += 1
            assert verdict.detail == f"pairing succeeds on the {verdict.sigma} image"
            # The JSON form keeps its three fields, so the artifact keeps its bytes.
            assert set(verdict.to_json()) == {"case", "eliminated_by", "detail"}
        assert symmetric == STAGE_COUNTS["symmetry"]

    def test_verdicts_serialize(self):
        report = pipeline_summary()
        payload = report.to_json()
        assert payload["counts"] == STAGE_COUNTS
        assert len(payload["cases"]) == 2290

    def test_shared_verdicts_equal_each_cases_own(self):
        # The report gives a case the invertibility verdict of its (12)
        # image; each case's own chain must reach the same verdict.
        verdicts, _ = per_case_run()
        assert pipeline_summary().verdicts == tuple(verdicts)
        assert len(verdicts) == 2290

    def test_a_mirror_pair_runs_the_invertibility_stage_once(self, monkeypatch):
        # The stage runs once on each five-support case, except on those
        # whose (12) image comes earlier and fell to it. Lambda is closed
        # under the mirror, so every pair the stage eliminates is decided
        # by one run.
        stage = {v.case.vector: v.eliminated_by for v in per_case_run()[0]}
        asked = collections.Counter()
        real = pipeline.invertibility_eliminates

        def recording(case):
            asked[case.vector] += 1
            return real(case)

        monkeypatch.setattr(pipeline, "invertibility_eliminates", recording)
        pipeline_summary.__wrapped__()
        five = [case.vector for case in lambda_set() if len(case.positive_support()) == 5]
        position = {vector: k for k, vector in enumerate(five)}
        expected = []
        for k, vector in enumerate(five):
            image = s3_on_contraction("(12)", ContractionPoint(XI_PRIME_COORDS, vector)).vector
            if not (position[image] < k and stage[image] == "invertibility"):
                expected.append(vector)
        # The symmetry stage asks too, on images that move the origin's debt off x[0,0].
        assert {vector: n for vector, n in asked.items() if vector in position} == collections.Counter(expected)
        assert len(expected) == 1169

    def test_final_case_pipeline_verdict(self):
        verdict = relset_pipeline(ContractionPoint.from_record(FINAL_RECORD, XI_PRIME_COORDS))
        assert verdict.eliminated_by == "special"

    def test_survivor_details_when_every_stage_fails(self, monkeypatch):
        asked = []
        for name, failure in [
            ("invertibility_eliminates", False),
            ("symmetry_eliminates", None),
            ("hexagon_eliminates", False),
            ("special_eliminates", None),
        ]:
            monkeypatch.setattr(pipeline, name, lambda case, name=name, failure=failure: asked.append(name) or failure)
        five = relset_pipeline(ContractionPoint.from_record(FINAL_RECORD, XI_PRIME_COORDS))
        assert (five.eliminated_by, five.detail) == (None, "survived every eliminator")
        assert asked == ["invertibility_eliminates", "symmetry_eliminates", "hexagon_eliminates", "special_eliminates"]
        asked.clear()
        smaller = relset_pipeline(lambda_set()[-1])
        assert (smaller.eliminated_by, smaller.detail) == (None, "no special argument applies")
        assert asked == ["special_eliminates"]


# How the width-5 sweep survivors at d = 42 and 43 fall, by the stage
# of their contraction case and, for special cases, by how
# ``_resolve_survivor`` settles them.
SEAM_TALLIES = {
    42: {("invertibility", None): 2351, ("symmetry", None): 1062},
    43: {
        ("invertibility", None): 3194,
        ("symmetry", None): 14,
        ("special", "invertibility"): 468,
        ("special", "empty-kernel"): 3,
    },
}


class TestSeamWithTheSweep:
    @pytest.mark.parametrize("d", sorted(SEAM_TALLIES))
    def test_sweep_survivors_fall_to_their_case_verdict(self, d):
        """Each concrete survivor at the pipeline floor falls as its case does.

        Every width-5 sign survivor contracts to a pipeline case, and the
        concrete form of that case's verdict excludes it: the pairing on
        the support, the pairing on the recorded symmetry image, or the
        survivor-settling step for a special case. No survivor lands in a
        hexagon case.
        """
        verdicts = {v.case.vector: v for v in pipeline_summary().verdicts}
        survivors, _ = sign_survivor_search(d, 5)
        tally = collections.Counter()
        for support in survivors:
            points = {(0, 0), *support}
            config = ChipConfiguration({(0, 0): -1, **dict.fromkeys(support, 1)})
            image = chi(contract(config, d)).vector
            assert image in verdicts
            verdict = verdicts[image]
            resolution = None
            if verdict.eliminated_by == "invertibility":
                assert pairing_excludes(points, d)
            elif verdict.eliminated_by == "symmetry":
                assert pairing_excludes({act_point(verdict.sigma, p, d) for p in points}, d)
            else:
                assert verdict.eliminated_by == "special"
                resolution, _ = _resolve_survivor(support, d)
                assert resolution not in ("outcome", "unresolved")
            tally[verdict.eliminated_by, resolution] += 1
        assert tally == SEAM_TALLIES[d]
