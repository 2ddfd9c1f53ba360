"""Tests for the fundamental-outcome census and the empty-degree sweeps."""

import concurrent.futures
import gc
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipsplit import criteria, enumeration
from chipsplit.cli import _echo_json
from chipsplit.enumeration import (
    EnumerationReport,
    SweepCertificate,
    _resolve_survivor,
    _sign_tables,
    candidate_count,
    canonical_key,
    check_conjecture,
    classify_candidate,
    enumerate_fundamental,
    sign_survivor_search,
    sweep_no_valid_outcomes,
    sweep_start,
)
from chipsplit.grid import ChipConfiguration, act, config_record, grid_points
from chipsplit.hyperfield import hyperfield_excludes, sign_survivors
from chipsplit.models import composite, decompose, fundamentality, is_fundamental, outcome_to_model
from chipsplit.pascal import is_outcome, left_column_form, outcome_space, top_edge_columns, top_edge_form

# The published census through five positive entries: cell (n, d) counts
# fundamental outcomes with n + 1 positive points and degree d.
CENSUS_TABLE_N4 = {
    (1, 1): 1,
    (2, 2): 3,
    (2, 3): 1,
    (3, 3): 12,
    (3, 4): 4,
    (3, 5): 2,
    (4, 4): 82,
    (4, 5): 38,
    (4, 6): 10,
    (4, 7): 4,
}
ROW_TOTALS = {1: 1, 2: 4, 3: 18, 4: 134}

# The complete classification with at most three positive entries.
SMALL_OUTCOMES = [
    {(0, 0): -1, (0, 1): 1, (1, 0): 1},
    {(0, 0): -1, (0, 1): 1, (1, 1): 1, (2, 0): 1},
    {(0, 0): -1, (1, 0): 1, (0, 2): 1, (1, 1): 1},
    {(0, 0): -1, (0, 2): 1, (1, 1): 2, (2, 0): 1},
    {(0, 0): -1, (0, 3): 1, (1, 1): 3, (3, 0): 1},
]

# The two degree-seven outcomes that slip past every hand argument.
EXCEPTIONAL_SEVEN = [
    {(0, 0): -2, (0, 7): 2, (1, 5): 7, (1, 1): 7, (5, 1): 7, (7, 0): 2},
    {(0, 0): -1, (0, 7): 1, (1, 3): 7, (3, 3): 7, (3, 1): 7, (7, 0): 1},
]

# Supports the sign test cannot rule out, per degree, for four positive
# entries; the invertibility criterion finishes each of them.
SIGN_SURVIVORS_D6 = [
    ((0, 3), (1, 5), (4, 1), (6, 0)),
    ((0, 5), (1, 1), (3, 3), (6, 0)),
    ((0, 6), (1, 1), (3, 3), (5, 0)),
    ((0, 6), (1, 1), (3, 3), (6, 0)),
    ((0, 6), (1, 4), (3, 0), (5, 1)),
]
SIGN_SURVIVORS_D7 = [
    ((0, 7), (1, 1), (3, 3), (7, 0)),
    ((0, 7), (1, 3), (5, 1), (7, 0)),
    ((0, 7), (1, 5), (3, 1), (7, 0)),
]

# Sign-survivor counts for five positive entries on the first swept degrees.
SIGN_SURVIVOR_COUNTS_5 = {8: 792, 9: 882, 10: 950}


@cache
def census(d_max, n_max):
    return enumerate_fundamental(d_max, n_max)


def entry_dicts(outcomes):
    return [dict(w) for w in outcomes]


def _anchored(points, d):
    """The anchor rule: two points on the top diagonal, one on each axis."""
    tops = sum(1 for i, j in points if i + j == d)
    has_row = any(j == 0 and i >= 1 for i, j in points)
    has_column = any(i == 0 and j >= 1 for i, j in points)
    return tops >= 2 and has_row and has_column


def anchored_supports(n, d):
    """Brute-force candidates of the census cell (n, d).

    Every set of n + 1 points of the degree-d triangle, the origin
    excluded, with at least two points on the top diagonal and a point
    on each axis away from the origin.
    """
    points = [p for p in grid_points(d) if p != (0, 0)]
    for combo in itertools.combinations(points, n + 1):
        if _anchored(combo, d):
            yield frozenset(combo)


def oracle_cell(n, d):
    """The census cell (n, d) decided one candidate at a time."""
    counters = dict.fromkeys(
        ("candidates", "signs", "invertibility", "kernel", "fundamental"), 0
    )
    found = []
    for support in anchored_supports(n, d):
        counters["candidates"] += 1
        stage, outcome = classify_candidate(support, d)
        counters[stage] += 1
        if outcome is not None:
            found.append(outcome)
    found.sort(key=canonical_key)
    return found, counters


def mirror_of(support):
    """The sorted point tuple of a support's transpose (i, j) -> (j, i)."""
    return tuple(sorted((j, i) for i, j in support))


def top_sum(support, d):
    """i_min + i_max over a support's points on the top diagonal."""
    tops = [i for i, j in support if i + j == d]
    return min(tops) + max(tops)


def pruned_listing(d, size):
    """The census's listing of the sign survivors, as sorted point tuples."""
    points, listed = enumeration._mirror_representatives(d, size)
    return [tuple(sorted(points[m] for m in combo)) for combo in listed]


def check_pruned_listing(listed, d, size):
    """The listing holds one of each mirror pair with i_min + i_max < d, and every tie.

    That is what ``_census_cell`` needs to count each survivor once: it
    counts a strict support twice and settles a tie against its mirror.
    """
    kept = set(listed)
    assert len(kept) == len(listed), "a support is listed twice"
    assert all(top_sum(s, d) <= d for s in kept), "a support with i_min + i_max > d is listed"
    survivors, _ = sign_survivor_search(d, size)
    assert kept | {mirror_of(s) for s in kept} == set(survivors), "the mirror closure misses a survivor"
    ties = {s for s in kept if top_sum(s, d) == d}
    assert {mirror_of(s) for s in ties} == ties, "a tie is listed without its mirror"


class TestAnchoredCandidates:
    """The census against the per-candidate oracle above."""

    @pytest.mark.parametrize(
        "n,d",
        [(n, d) for n in range(1, 5) for d in range(1, 7)] + [(5, 5)],
    )
    def test_matches_brute_force_filter(self, n, d):
        report = census(d, n)
        cells = {(m, e): counters for m, e, counters in report.stats["cells"]}
        found, counters = oracle_cell(n, d)
        if counters["candidates"] == 0:
            assert (n, d) not in cells
        else:
            assert cells[(n, d)] == counters
        in_cell = [
            w
            for w in report.outcomes
            if w.degree == d and len(w.positive_support) == n + 1
        ]
        assert entry_dicts(in_cell) == entry_dicts(found)

    def test_closed_form_count_matches_brute_force(self):
        for n in range(6):
            for d in range(7):
                brute = sum(1 for _ in anchored_supports(n, d))
                assert candidate_count(n, d) == brute, (n, d)

    def test_anchor_rule(self):
        tops = {(2, 3), (4, 1)}
        row, column, inner = (3, 0), (0, 2), (1, 1)
        assert _anchored(tops | {row, column}, 5)
        assert not _anchored(tops | {column, inner}, 5)
        assert not _anchored(tops | {row, inner}, 5)
        assert not _anchored({(2, 3), row, column, inner}, 5)

    def test_every_tier_one_sign_survivor_is_anchored(self):
        # The census lists sign survivors without an anchor filter; this
        # pins, cell by cell, that none would have been dropped.
        survivors, unanchored = 0, []
        for d in range(1, 10):
            points, point_signs, origin_signs = _sign_tables(d)
            for n in range(1, 6):
                combos, _ = sign_survivors(point_signs, origin_signs, n + 1)
                survivors += len(combos)
                for combo in combos:
                    support = [points[k] for k in combo]
                    if not _anchored(support, d):
                        unanchored.append((support, d))
        assert unanchored == []
        assert survivors == 168331

    def test_the_top_diagonal_form_forces_two_top_points(self):
        # psi[d] reads only the top diagonal, with sign (-1)^i at (i, d - i),
        # so a support needs top points of both parities of i to cancel it.
        for d in range(1, 21):
            form = left_column_form(d, d)
            signs = {p: (form.coefficient(*p) > 0) - (form.coefficient(*p) < 0) for p in grid_points(d)}
            assert signs == {(i, j): (-1) ** i if i + j == d else 0 for i, j in grid_points(d)}, d

    def test_empty_cells(self):
        assert candidate_count(0, 3) == 0
        assert candidate_count(1, 0) == 0
        assert candidate_count(2, 1) == 0
        listed = [(n, d) for n, d, _ in census(3, 2).stats["cells"]]
        assert listed == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]


def kernel_oracle(support, d):
    """The kernel stage's verdict read off ``outcome_space``.

    The dimension of the outcome space on the support plus the origin,
    and its basis vector, whose origin entry ``outcome_space`` makes
    nonpositive, when that space is a line and the vector has a
    negative origin, is valid, and is positive on the whole support.
    """
    basis = outcome_space({(0, 0), *support}, d)
    if len(basis) != 1:
        return len(basis), None
    (generator,) = basis
    if generator[(0, 0)] < 0 and generator.is_valid() and generator.positive_support == frozenset(support):
        return 1, generator
    return 1, None


class TestKernelStage:
    """``models.fundamentality`` against the ``outcome_space`` oracle."""

    def test_matches_the_reference_on_every_census_kernel_call(self, wide_census_run):
        # Every support the census cells n <= 5, d <= 9 hand to the
        # stage, with the mirrors of the ones it settles.
        _, calls = wide_census_run
        assert len(calls) == 9284
        assert len({(tuple(sorted(support)), d) for support, d, _ in calls}) == 9284
        found = 0
        for support, d, verdict in calls:
            assert verdict == kernel_oracle(support, d), (sorted(support), d)
            found += verdict[1] is not None
        assert found == 1127

    @given(st.integers(1, 12).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.frozensets(
                st.sampled_from([p for p in grid_points(d) if p != (0, 0)]),
                min_size=1,
                max_size=d + 4,
            ),
        )
    ))
    @settings(max_examples=300, deadline=None)
    # Kernels of dimension 0, of dimension 1 with and without a
    # fundamental generator, and of dimension 3.
    @example((5, frozenset({(0, 1), (0, 5), (1, 2), (3, 1)})))
    @example((3, frozenset({(0, 3), (1, 1), (3, 0)})))
    @example((2, frozenset({(0, 1), (0, 2), (1, 0)})))
    @example((2, frozenset({(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)})))
    def test_dimension_and_generator_match_outcome_space(self, case):
        d, support = case
        assert fundamentality(support, d) == kernel_oracle(support, d)

    @pytest.mark.parametrize(
        "d,support,resolution",
        [
            (2, {(0, 1), (0, 2)}, "invertibility"),
            (5, {(0, 1), (0, 5), (1, 2), (3, 1)}, "empty-kernel"),
            (2, {(0, 1), (1, 0)}, "outcome"),
            (2, {(0, 1), (0, 2), (1, 0)}, "kernel"),
            (2, {(0, 1), (0, 2), (1, 0), (1, 1)}, "unresolved"),
        ],
    )
    def test_sweep_resolutions(self, d, support, resolution):
        support = frozenset(support)
        found, outcome = _resolve_survivor(support, d)
        assert found == resolution
        assert (outcome is not None) == (resolution == "outcome")
        if outcome is not None:
            assert outcome == fundamentality(support, d)[1]

    @pytest.mark.parametrize(
        "size,d",
        [(size, d) for size in (4, 5, 6) for d in range(1, 7)] + [(5, 8)],
    )
    def test_settling_ignores_point_order(self, size, d):
        # Survivors are stored as sorted tuples; settling must not read
        # anything into that order.
        survivors, _ = sign_survivor_search(d, size)
        for support in survivors:
            expected = _resolve_survivor(support, d)
            assert _resolve_survivor(support[::-1], d) == expected
            assert _resolve_survivor(frozenset(support), d) == expected

    def test_settling_is_symmetric_under_transposition(self):
        # Over the census cells n <= 5, d <= 5 and the width-5 sweep at
        # d = 8 and 9, the mirror (i, j) -> (j, i) of every sign survivor
        # is a survivor, and it settles the same way with the outcome
        # mirrored.
        cells = [(d, n + 1) for n in range(1, 6) for d in range(1, 6)] + [(8, 5), (9, 5)]
        pairs = found = 0
        for d, size in cells:
            survivors, _ = sign_survivor_search(d, size)
            listed = set(survivors)
            for support in survivors:
                mirror = mirror_of(support)
                assert mirror in listed, (d, support)
                if mirror <= support:
                    continue
                pairs += 1
                resolution, outcome = _resolve_survivor(support, d)
                expected = None
                if outcome is not None:
                    expected = ChipConfiguration({(j, i): v for (i, j), v in outcome}, ambient=d)
                    found += 1
                assert _resolve_survivor(mirror, d) == (resolution, expected), (d, support)
        assert pairs == 3578 and found, (pairs, found)

    def test_columns_are_the_top_edge_coefficients(self):
        for d in range(8):
            columns = top_edge_columns(d)
            for p in grid_points(d):
                columns[p]
            assert sorted(columns) == sorted(grid_points(d))
            for (i, j), column in columns.items():
                assert column == tuple(
                    top_edge_form(a, d - a, d).coefficient(i, j) for a in range(d + 1)
                )
            for off in [(-1, 0), (0, -1), (d + 1, 0), (d, 1)]:
                with pytest.raises(KeyError):
                    columns[off]

    def test_outcome_space_builds_only_its_support_columns(self):
        top_edge_columns.cache_clear()
        outcome_space({(0, 0), (499, 0), (0, 499)}, 499)
        assert len(top_edge_columns(499)) == 3


class TestCensusMirrorPairs:
    """The census settles one of each mirror pair; the sweep's routine is its oracle."""

    def test_matches_settling_every_survivor(self):
        # Every census cell n <= 5, d <= 7 against the certificate of
        # ``_settle_degree``, which settles both members of each pair.
        self_mirrors = mirrored_pairs = 0
        for n in range(1, 6):
            for d in range(1, 8):
                candidates = candidate_count(n, d)
                if candidates == 0:
                    continue
                found, counters = enumeration._census_cell(n, d, candidates)
                cert = enumeration._settle_degree((n + 1, d))
                tally = Counter(cert.resolutions)
                settled = len(cert.resolutions)
                assert counters == {
                    "candidates": candidates,
                    "signs": candidates - settled,
                    "invertibility": tally["invertibility"],
                    "kernel": settled - tally["invertibility"] - tally["outcome"],
                    "fundamental": tally["outcome"],
                }, (n, d)
                have = {frozenset(w) for w in found}
                assert len(have) == len(found) == len(cert.outcomes_found), (n, d)
                assert have == {frozenset(w) for w in cert.outcomes_found}, (n, d)
                self_mirrors += sum(1 for s in cert.sign_survivors if mirror_of(s) == s)
                for w in found:
                    mirrored = frozenset(((j, i), v) for (i, j), v in w)
                    if mirrored != frozenset(w):
                        assert mirrored in have, (n, d)
                        mirrored_pairs += 1
        assert self_mirrors > 0
        assert mirrored_pairs > 0

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(1, 6) for d in range(1, 10) if candidate_count(n, d)]
    )
    def test_the_pruned_listing_closes_to_every_survivor(self, n, d):
        check_pruned_listing(pruned_listing(d, n + 1), d, n + 1)

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(1, 6) for d in range(1, 10) if candidate_count(n, d)]
    )
    def test_mirror_masks_list_what_the_top_diagonal_masks_list(self, n, d):
        # The masks the census derived from the top diagonal: after the
        # top point (k, d - k), the points off the top diagonal and the
        # top points up to index d - k; nothing after a top point with
        # 2k > d; everything after a point off the top diagonal. The
        # shared mirror masks list the same supports, in the same order.
        points, point_signs, origin_signs = enumeration._sign_tables(d)
        everyone = (1 << len(points)) - 1
        top = (1 << (d + 1)) - 1
        after = [everyone] * len(points)
        for k in range(d + 1):
            after[k] = 0 if 2 * k > d else everyone ^ top ^ ((1 << (d - k + 1)) - 1)
        expected, _ = sign_survivors(point_signs, origin_signs, n + 1, after)
        assert enumeration._mirror_representatives(d, n + 1) == (points, expected)

    @pytest.mark.parametrize(
        "kind,fault",
        [("strict", "closure"), ("tie", "tie"), ("self-mirror tie", "closure")],
    )
    def test_a_listing_that_drops_a_support_is_caught(self, kind, fault):
        # Dropping a strict support loses its pair from the closure, and
        # dropping one tie of a pair leaves the census to skip the other.
        d, size = 6, 5

        def kind_of(support):
            if top_sum(support, d) < d:
                return "strict"
            return "self-mirror tie" if mirror_of(support) == support else "tie"

        listed = pruned_listing(d, size)
        victim = next(s for s in listed if kind_of(s) == kind)
        with pytest.raises(AssertionError, match=fault):
            check_pruned_listing([s for s in listed if s != victim], d, size)


class TestRankSettling:
    """Cells whose support plus origin fills the d + 1 top-edge rows settle by rank."""

    def test_matches_settling_each_listed_support_alone(self):
        # Every listed support of the square and over-square cells with
        # n <= 5 (so d <= n + 1), in listing order, against the pairing
        # test and the kernel stage run on it alone.
        cells = supports = 0
        for n in range(1, 6):
            for d in range(1, n + 2):
                if not candidate_count(n, d):
                    continue
                points, listed = enumeration._mirror_representatives(d, n + 1)
                settle = enumeration._rank_settler(points, d)
                for combo, support, _ in enumeration._census_representatives(points, listed, d):
                    assert settle(combo) == _resolve_survivor(support, d), (n, d, support)
                    supports += 1
                cells += 1
        assert (cells, supports) == (15, 8695)

    @given(st.integers(1, 7).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.sets(st.integers(0, d * (d + 3) // 2 - 1), min_size=d, max_size=d + 2),
                min_size=1,
                max_size=10,
            ),
        )
    ))
    @settings(max_examples=200, deadline=None)
    def test_matches_settling_alone_on_any_sorted_stream(self, case):
        # Supports that need not survive the sign test, of d to d + 2
        # points, fed as engine index tuples in lexicographic order.
        d, supports = case
        points = _sign_tables(d)[0]
        settle = enumeration._rank_settler(points, d)
        for combo in sorted(tuple(sorted(s)) for s in supports):
            support = [points[m] for m in combo]
            assert settle(combo) == _resolve_survivor(support, d), (d, support)

    @pytest.mark.parametrize(
        "d,counters,digest",
        [
            (3, (36, 4, 0, 32, 0), "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
            (4, (2744, 1134, 0, 1610, 0), "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
            (5, (45656, 28491, 0, 17165, 0), "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
            (6, (384825, 292064, 0, 86051, 6710), "a64f2fcddeea6da4b20a581d1e4f961ac5f28e3c88d709d8e47c8b9679626521"),
            (7, (2172401, 1837474, 276546, 55960, 2421), "d9789d481a27447cfd4417e1e4925070dc731025b5001d430cb18bd3fa7b0052"),
        ],
    )
    def test_seven_positive_entries_through_degree_seven(self, d, counters, digest):
        # No golden file holds a cell with n = 6. The counters and the
        # sha256 of the canonically sorted outcome records were recorded
        # when every cell still settled each support alone.
        found, got = enumeration._census_cell(6, d, candidate_count(6, d))
        assert tuple(got.values()) == counters
        assert list(got) == ["candidates", "signs", "invertibility", "kernel", "fundamental"]
        records = [config_record(w) for w in sorted(found, key=canonical_key)]
        text = json.dumps(records, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCensusSmall:
    def test_small_support_classification(self):
        report = census(3, 2)
        assert report.table == {(1, 1): 1, (2, 2): 3, (2, 3): 1}
        assert entry_dicts(report.outcomes) == SMALL_OUTCOMES

    def test_brute_force_equality_through_degree_four(self):
        # Re-derive the census with no anchors and no pruning: run the
        # exact fundamentality test on every support of each size.
        found = []
        for d in range(1, 5):
            points = [p for p in grid_points(d) if p != (0, 0)]
            for size in range(2, 6):
                for combo in itertools.combinations(points, size):
                    if max(i + j for i, j in combo) != d:
                        continue
                    if is_fundamental(combo, d):
                        support = frozenset(combo)
                        stage, outcome = classify_candidate(support, d)
                        assert stage == "fundamental"
                        found.append(outcome)
        found.sort(key=canonical_key)
        report = census(4, 4)
        assert entry_dicts(found) == entry_dicts(report.outcomes)

    def test_prunes_are_sound(self):
        # Anything the sign or invertibility stage discards must also
        # fail the exact test; spot-check a sample from two cells.
        rng = random.Random(7)
        for n, d in ((3, 5), (4, 6)):
            pruned = {"signs": [], "invertibility": []}
            for support in anchored_supports(n, d):
                stage, _ = classify_candidate(support, d)
                if stage in pruned:
                    pruned[stage].append(support)
            for stage, sample_pool in pruned.items():
                assert sample_pool, f"expected some {stage} prunes at ({n}, {d})"
                for support in rng.sample(sample_pool, min(40, len(sample_pool))):
                    assert not is_fundamental(support, d)

    def test_outcomes_really_are_outcomes(self):
        for w in census(5, 3).outcomes:
            assert is_outcome(w)
            assert is_fundamental(w.positive_support, w.degree)


class TestCensusTable:
    def test_counts_through_four_positive_entries(self):
        assert census(7, 4).table == CENSUS_TABLE_N4

    def test_row_totals(self):
        report = census(7, 4)
        for n, expected in ROW_TOTALS.items():
            total = sum(c for (m, _), c in report.table.items() if m == n)
            assert total == expected

    def test_exceptional_degree_seven_outcomes_present(self):
        have = entry_dicts(census(7, 4).outcomes)
        for exceptional in EXCEPTIONAL_SEVEN:
            assert exceptional in have

    def test_transposition_closure(self):
        report = census(7, 4)
        have = {frozenset(dict(w).items()) for w in report.outcomes}
        for w in report.outcomes:
            mirrored = act("(12)", w, w.degree)
            assert frozenset(dict(mirrored).items()) in have

    def test_conjecture_and_equality_counts(self):
        conjecture = check_conjecture(census(7, 4))
        assert conjecture.holds
        assert conjecture.equality_counts == {1: 1, 2: 1, 3: 2, 4: 4}

    def test_json_round_trip(self):
        report = census(7, 4)
        clone = EnumerationReport.from_json(report.to_json())
        assert clone.table == report.table
        assert entry_dicts(clone.outcomes) == entry_dicts(report.outcomes)

    def test_matches_committed_golden(self):
        from pathlib import Path

        with open(Path(__file__).parent / "golden" / "census-n4-d7.json") as fh:
            golden = json.load(fh)
        payload = json.loads(json.dumps(census(7, 4).to_json()))
        assert payload == golden


GOLDEN = Path(__file__).parent / "golden"


class TestCensusGoldenWide:
    """The wide census, recomputed once per run and checked whole.

    It covers six positive entries up to degree nine, the former
    long-run cell (5, 9) included, and takes about half a minute.
    """

    def test_matches_committed_golden(self, wide_census):
        golden = json.loads((GOLDEN / "census-n5-d9.json").read_text())
        assert json.loads(json.dumps(wide_census.to_json())) == golden

    def test_renders_the_committed_golden_bytes(self, wide_census, capsys):
        # What `enumerate --max-degree 9 --json` writes, compared in bytes.
        _echo_json(wide_census.to_json())
        assert capsys.readouterr().out.encode() == (GOLDEN / "census-n5-d9.json").read_bytes()

    def test_report_revalidates_on_load(self, wide_census):
        loaded = EnumerationReport.from_json(
            json.loads((GOLDEN / "census-n5-d9.json").read_text())
        )
        assert loaded.stats["d_max"] == 9
        assert loaded.stats["n_max"] == 5
        assert loaded.table == wide_census.table

    def test_wide_row_counts(self, wide_census):
        row = {d: c for (n, d), c in wide_census.table.items() if n == 5}
        assert row == {5: 602, 6: 254, 7: 88, 8: 24, 9: 2}
        for cell, count in CENSUS_TABLE_N4.items():
            assert wide_census.table[cell] == count

    def test_total_outcome_count(self, wide_census):
        assert len(wide_census.outcomes) == 1127
        assert sum(wide_census.table.values()) == 1127

    def test_conjecture_and_equality(self, wide_census):
        conjecture = check_conjecture(wide_census)
        assert conjecture.holds
        assert conjecture.equality_counts == {1: 1, 2: 1, 3: 2, 4: 4, 5: 2}

    def test_transposition_closure(self, wide_census):
        have = {frozenset(dict(w).items()) for w in wide_census.outcomes}
        for w in wide_census.outcomes:
            assert frozenset(dict(act("(12)", w, w.degree)).items()) in have

    def test_sampled_outcomes_are_fundamental(self, wide_census):
        rng = random.Random(5)
        for w in rng.sample(wide_census.outcomes, 12):
            assert is_outcome(w, w.degree)
            assert is_fundamental(w.positive_support, w.degree)


class TestLongRunGate:
    """The census has no long-run gate: every cell runs."""

    def test_bad_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            enumerate_fundamental(0, 1)
        with pytest.raises(ValueError):
            enumerate_fundamental(3, 0)

    def test_support_bound_stops_at_the_triangle(self, monkeypatch):
        # The degree-3 triangle has 9 points off the origin, so no cell
        # beyond n = 8 can hold a candidate.
        calls = []

        def counting(n, d):
            calls.append((n, d))
            return candidate_count(n, d)

        monkeypatch.setattr(enumeration, "candidate_count", counting)
        report = enumerate_fundamental(3, 1999)
        assert max(n for n, _ in calls) == 8
        assert len(calls) == 8 * 3
        assert report.stats["n_max"] == 1999
        capped = enumerate_fundamental(3, 8)
        assert report.outcomes == capped.outcomes
        assert report.stats["cells"] == capped.stats["cells"]


class TestReportValidation:
    def build(self, entries_list, table):
        outcomes = tuple(
            ChipConfiguration(entries) for entries in entries_list
        )
        return EnumerationReport(table, outcomes, {})

    def test_rejects_unsorted_outcomes(self):
        with pytest.raises(ValueError, match="sorted"):
            self.build(
                [SMALL_OUTCOMES[1], SMALL_OUTCOMES[0]],
                {(1, 1): 1, (2, 2): 1},
            )

    def test_rejects_imprimitive_outcomes(self):
        doubled = {p: 2 * v for p, v in SMALL_OUTCOMES[0].items()}
        with pytest.raises(ValueError, match="primitive"):
            self.build([doubled], {(1, 1): 1})

    def test_rejects_invalid_outcomes(self):
        flipped = {(0, 0): 1, (0, 1): -1, (1, 0): 1}
        with pytest.raises(ValueError, match="valid"):
            self.build([flipped], {(1, 1): 1})

    def test_rejects_wrong_table(self):
        with pytest.raises(ValueError, match="table"):
            self.build([SMALL_OUTCOMES[0]], {(1, 1): 2})


class TestConjectureCheck:
    def test_degree_violation_is_reported(self):
        rogue = ChipConfiguration({(0, 0): -1, (1, 0): 1, (2, 1): 1})
        report = EnumerationReport({(1, 3): 1}, (rogue,), {})
        conjecture = check_conjecture(report)
        assert not conjecture.holds
        assert conjecture.degree_violations == (rogue,)
        assert conjecture.support_violations == ()

    def test_support_violation_is_reported(self):
        rogue = ChipConfiguration(
            {(0, 0): -1, (1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 0): 1}
        )
        report = EnumerationReport({(3, 2): 1}, (rogue,), {})
        conjecture = check_conjecture(report)
        assert not conjecture.holds
        assert conjecture.support_violations == (rogue,)


@pytest.mark.parametrize(
    "call,result",
    [
        (lambda: sweep_no_valid_outcomes(3, []), ()),
        (lambda: sweep_no_valid_outcomes(3, [0, 4]), "sweep degrees must be positive"),
        (
            lambda: EnumerationReport({(1, 1): 1}, (ChipConfiguration({(0, 0): Fraction(-1, 2), (1, 0): 1}),), {}),
            "census outcomes must be integral",
        ),
    ],
    ids=["no-degrees", "degree-zero", "fractional-outcome"],
)
def test_sweep_and_report_validation(call, result):
    if isinstance(result, str):
        with pytest.raises(ValueError, match=result):
            call()
    else:
        assert call() == result


@cache
def recorded_width_five_sweep():
    path = Path(__file__).resolve().parent.parent / "results" / "sweep-5-d41.json"
    payload = json.loads(path.read_text())
    return {summary["degree"]: summary for summary in payload["summaries"]}


class TestSignSurvivorSearch:
    @pytest.mark.parametrize(
        "d,size",
        [(5, 3), (6, 4), (7, 3), (6, 5), (8, 4)],
    )
    def test_agrees_with_direct_sign_test(self, d, size):
        survivors, _ = sign_survivor_search(d, size)
        points = [p for p in grid_points(d) if p != (0, 0)]
        brute = [
            combo
            for combo in itertools.combinations(sorted(points), size)
            if not hyperfield_excludes(combo, d).excluded
        ]
        assert survivors == brute

    @pytest.mark.parametrize("d", range(8, 26))
    def test_matches_the_recorded_width_five_sweep(self, d):
        # The committed sweep was produced by the per-form search that
        # the bitset engine replaced; equal node counts show that the
        # engine walks the same tree.
        recorded = recorded_width_five_sweep()[d]
        survivors, nodes = sign_survivor_search(d, 5)
        assert len(survivors) == recorded["sign_survivors"]
        assert nodes == recorded["nodes"]

    def test_survivors_come_out_sorted(self):
        survivors, nodes = sign_survivor_search(6, 4)
        assert nodes > 0
        keys = [tuple(sorted(s)) for s in survivors]
        assert keys == sorted(keys)


class TestSweep:
    def test_width_four_survivors_and_exclusions(self):
        certificates = sweep_no_valid_outcomes(4, range(6, 12))
        by_degree = {cert.d: cert for cert in certificates}
        assert sorted(by_degree) == list(range(6, 12))
        assert list(by_degree[6].sign_survivors) == SIGN_SURVIVORS_D6
        assert list(by_degree[7].sign_survivors) == SIGN_SURVIVORS_D7
        for cert in certificates:
            assert cert.holds
            assert all(r == "invertibility" for r in cert.resolutions)
            if cert.d >= 8:
                assert cert.sign_survivors == ()

    def test_width_five_first_degrees(self):
        certificates = sweep_no_valid_outcomes(5, [8, 9, 10])
        for cert in certificates:
            assert cert.holds
            assert len(cert.sign_survivors) == SIGN_SURVIVOR_COUNTS_5[cert.d]
            assert set(cert.resolutions) <= {"invertibility", "empty-kernel"}

    def test_finds_genuine_outcomes_when_they_exist(self):
        # Degree five does host valid outcomes with four positive
        # entries; the sweep must surface exactly the census cell.
        (cert,) = sweep_no_valid_outcomes(4, [5])
        assert not cert.holds
        expected = [
            dict(w)
            for w in census(5, 3).outcomes
            if w.degree == 5 and len(w.positive_support) == 4
        ]
        assert sorted(entry_dicts(cert.outcomes_found), key=sorted) == sorted(
            expected, key=sorted
        )

    def test_long_run_gate(self):
        # Degrees past the former desk range need no flag, and every width
        # of two or more sweeps from one past the degree bound d <= 2n - 1.
        (cert,) = sweep_no_valid_outcomes(4, [12])
        assert cert.holds
        assert [sweep_start(n_plus) for n_plus in (2, 3, 4, 5, 6)] == [2, 4, 6, 8, 10]
        with pytest.raises(ValueError, match="at least two"):
            sweep_no_valid_outcomes(1, [8])

    @pytest.mark.parametrize("n_plus", [2, 3])
    def test_narrow_widths_have_no_sign_survivor_up_to_degree_thirty(self, n_plus):
        certificates = sweep_no_valid_outcomes(n_plus, range(sweep_start(n_plus), 31))
        assert all(cert.holds and cert.sign_survivors == () for cert in certificates)

    def test_certificate_round_trip(self):
        (cert,) = sweep_no_valid_outcomes(4, [6])
        clone = SweepCertificate.from_json(
            json.loads(json.dumps(cert.to_json()))
        )
        assert clone == cert

    def test_jobs_do_not_change_certificates(self):
        serial = sweep_no_valid_outcomes(4, [6, 7])
        parallel = sweep_no_valid_outcomes(4, [6, 7], jobs=2)
        assert [c.to_json() for c in serial] == [c.to_json() for c in parallel]

    def test_pool_is_capped_at_one_worker_per_degree(self, monkeypatch):
        # A real pool would fork every requested worker up front, so a fake
        # records the size asked for and runs the tasks in this process.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        certificates = sweep_no_valid_outcomes(4, [6, 7], jobs=5000)
        assert sizes == [2]
        assert [cert.d for cert in certificates] == [6, 7]


def test_census_and_sweep_skip_the_certificate_path(monkeypatch):
    # Both only need a yes/no invertibility verdict, so neither builds a
    # certificate or takes a block determinant. Counted calls, not timings.
    calls = {"det": 0, "reference": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(criteria, "det", counted("det", criteria.det))
    monkeypatch.setattr(
        enumeration,
        "invertibility_excludes",
        counted("reference", enumeration.invertibility_excludes),
    )
    report = enumerate_fundamental(5, 3)
    sweep_no_valid_outcomes(5, [8, 9])
    assert calls == {"det": 0, "reference": 0}
    # The counters do see the certificate path when it runs.
    for w in report.outcomes:
        classify_candidate(w.positive_support, w.degree)
    assert calls["det"] > 0 and calls["reference"] == len(report.outcomes)


def test_census_builds_a_configuration_only_per_outcome(monkeypatch):
    # fundamentality decides on plain integers and builds a
    # ChipConfiguration only for a fundamental generator.
    built = []
    init = ChipConfiguration.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChipConfiguration, "__init__", counting)
    report = enumerate_fundamental(6, 4)
    assert len(built) == len(report.outcomes) == 153


def test_results_are_freed_without_the_cyclic_collector():
    # No recursive closure is left holding a result in a reference
    # cycle, so dropping it frees it without gc.collect().
    a, b, c = (outcome_to_model(w) for w in enumerate_fundamental(3, 3).outcomes[:3])
    mixture = composite(a, composite(b, c, Fraction(1, 2)), Fraction(1, 3))
    runs = {
        "search": lambda: sign_survivor_search(6, 6),
        "census": lambda: enumerate_fundamental(5, 4),
        "sweep": lambda: sweep_no_valid_outcomes(5, [8, 9]),
        "decompose": lambda: decompose(mixture),
    }
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name, run in runs.items():
            run()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(runs, 0)

class TestCanonicalKey:
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.integers(-5, 5).filter(bool),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_key_is_injective_on_configurations(self, entries):
        config = ChipConfiguration(entries)
        clone = ChipConfiguration(dict(entries))
        assert canonical_key(config) == canonical_key(clone)
        if any(v != 0 for v in entries.values()):
            bumped = dict(entries)
            (point, value), *_ = sorted(bumped.items())
            bumped[point] = value + 1
            other = ChipConfiguration(bumped)
            if dict(other) != dict(config):
                assert canonical_key(other) != canonical_key(config)
