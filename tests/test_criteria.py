"""Tests for the invertibility and hexagon exclusion criteria."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipsplit.criteria import (
    ExclusionVerdict,
    _closed_form,
    block_shape,
    greedy_blocks,
    hexagon_check,
    hexagon_determinant,
    invertibility_excludes,
    pairing_excludes,
    pairing_matrix,
)
from chipsplit.grid import ChipConfiguration, Game, apply_game, grid_points
from chipsplit.linalg import binomial, det, rank
from chipsplit.models import tightness_family
from chipsplit.pascal import is_outcome, outcome_space, top_edge_columns
from reference_walk import construct_lambda
from reference_walk import invertibility_excludes as reference_excludes

OPENING_SUPPORT = frozenset({(0, 0), (2, 0), (1, 1), (0, 2)})
WORKED_SUPPORT = frozenset({(0, 0), (0, 4), (2, 0), (4, 1), (5, 0), (6, 0)})


def supports(d, max_size=6):
    return st.frozensets(st.sampled_from(grid_points(d)), min_size=1, max_size=max_size)


def outcomes(d):
    interior = [p for p in grid_points(d) if p[0] + p[1] < d]
    moves = st.dictionaries(st.sampled_from(interior), st.integers(0, 2), max_size=8)
    return moves.map(lambda m: apply_game(ChipConfiguration.zero(d), Game(m)))


def shift(config, di, dj, ambient):
    return ChipConfiguration({(i + di, j + dj): v for (i, j), v in config}, ambient=ambient)


class TestPairingMatrix:
    def test_two_point_block(self):
        matrix = pairing_matrix({0, 1}, {(0, 0), (0, 4)}, 6)
        assert matrix.entries == ((1, 1), (6, 2))
        assert matrix.determinant() == -4

    def test_columns_in_degree_order(self):
        matrix = pairing_matrix({0, 1, 2}, {(1, 2), (0, 0), (0, 5)}, 5)
        assert matrix.points == ((0, 0), (1, 2), (0, 5))

    def test_shift_identity(self):
        tall = pairing_matrix({2, 3}, {(2, 1), (3, 2)}, 7)
        low = pairing_matrix({0, 1}, {(0, 1), (1, 2)}, 5)
        assert tall.entries == low.entries

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pairing_matrix(set(), set(), 4)
        with pytest.raises(ValueError):
            pairing_matrix({0, 1}, {(0, 0)}, 4)
        with pytest.raises(ValueError):
            pairing_matrix({5}, {(0, 0)}, 4)
        with pytest.raises(ValueError):
            pairing_matrix({0}, {(3, 2)}, 4)


class TestConstructLambda:
    def test_worked_example(self):
        blocks = construct_lambda(WORKED_SUPPORT, 6)
        assert [b.c_hi - b.c_lo for b in blocks] == [2, 1, 1, 1, 1, 1]
        assert blocks[0].points == ((0, 0), (0, 4))
        assert blocks[0].degrees == (0, 1)
        assert blocks[1].points == ((2, 0),)
        assert blocks[2].points == ()
        assert blocks[2].degrees == ()
        assert [b.points for b in blocks[3:]] == [((4, 1),), ((5, 0),), ((6, 0),)]

    def test_empty_support_single_part(self):
        blocks = construct_lambda(frozenset(), 4)
        assert len(blocks) == 1
        assert (blocks[0].c_lo, blocks[0].c_hi) == (0, 5)

    def test_infeasible_example(self):
        assert construct_lambda({(3, 0), (2, 1), (2, 0)}, 3) is None

    def test_rejects_outside_triangle(self):
        with pytest.raises(ValueError):
            construct_lambda({(2, 2)}, 3)

    @given(supports(5))
    def test_feasible_iff_tails_fit(self, points):
        d = 5
        tails_ok = all(
            sum(1 for i, _ in points if i >= d - k) <= k + 1 for k in range(d + 1)
        )
        blocks = construct_lambda(points, d)
        assert (blocks is not None) == tails_ok

    @given(supports(6))
    def test_blocks_partition_support(self, points):
        blocks = construct_lambda(points, 6)
        if blocks is None:
            return
        assert blocks[0].c_lo == 0
        assert blocks[-1].c_hi == 7
        assert all(a.c_hi == b.c_lo for a, b in zip(blocks, blocks[1:]))
        scattered = [p for b in blocks for p in b.points]
        assert sorted(scattered) == sorted(points)
        for b in blocks:
            width = b.c_hi - b.c_lo
            assert len(b.points) in (0, width)
            assert all(b.c_lo <= i < b.c_hi for i, _ in b.points)
            assert b.degrees == (tuple(range(b.c_lo, b.c_hi)) if b.points else ())
            # Greedy means no shorter prefix of the block already balances.
            for cut in range(1, width):
                inside = sum(1 for i, _ in b.points if i < b.c_lo + cut)
                assert inside != 0 and inside != cut


class TestGreedyBlocks:
    @given(
        st.frozensets(
            st.tuples(st.integers(0, 5), st.integers(0, 8)), min_size=1, max_size=6
        )
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_concrete_column_composition(self, pts):
        order = sorted(pts)
        positions = {}
        for idx, (i, _) in enumerate(order):
            positions.setdefault(i, []).append(idx)
        blocks = greedy_blocks(positions, None)
        assert blocks is not None
        nonempty = [b for b in construct_lambda(frozenset(pts), 40) if b.points]
        assert len(blocks) == len(nonempty)
        for (c_lo, width, members), block in zip(blocks, nonempty):
            assert (c_lo, c_lo + width) == (block.c_lo, block.c_hi)
            assert {order[m] for m in members} == set(block.points)

    def test_right_boundary_limits_the_walk(self):
        assert greedy_blocks({23: [0, 1]}, 25) == [(23, 2, [0, 1])]
        assert greedy_blocks({24: [0, 1]}, 25) is None

    def test_matches_construct_lambda_on_small_supports(self):
        # Every support of one to four points at d <= 6, walked with the
        # right edge of the degree-d triangle.
        checked = 0
        for d in range(7):
            for size in range(1, 5):
                for subset in combinations(grid_points(d), size):
                    columns = {}
                    for p in sorted(subset):
                        columns.setdefault(p[0], []).append(p)
                    blocks = greedy_blocks(columns, d + 1)
                    reference = construct_lambda(frozenset(subset), d)
                    if reference is None:
                        assert blocks is None, (subset, d)
                    else:
                        expected = [
                            (b.c_lo, b.c_hi - b.c_lo, sorted(b.points))
                            for b in reference
                            if b.points
                        ]
                        assert blocks == expected, (subset, d)
                    checked += 1
        assert checked == 34092


@st.composite
def wide_cases(draw):
    # Half the points come from a strip along one axis, so that blocks of
    # four or more points and the transposed attempt both occur.
    d = draw(st.integers(1, 20))
    points = grid_points(d)
    strips = [p for p in points if p[0] <= 2], [p for p in points if p[1] <= 2]
    strip = draw(st.sampled_from(strips))
    point = st.one_of(st.sampled_from(points), st.sampled_from(strip))
    return d, draw(st.frozensets(point, min_size=1, max_size=7))


def census_queries():
    # Every support of one to four points off the origin, with the origin
    # added, as the census and the sweep query it, at d = 1..6.
    for d in range(1, 7):
        points = [p for p in grid_points(d) if p != (0, 0)]
        for size in range(1, 5):
            for subset in combinations(points, size):
                yield d, frozenset(subset) | {(0, 0)}


class TestInvertibilityExcludes:
    def test_triangle_corners_excluded(self):
        verdict = invertibility_excludes({(0, 0), (0, 5), (5, 0)}, 5)
        assert verdict.excluded
        assert not verdict.transposed
        assert verdict.verify()

    def test_worked_example_excluded(self):
        verdict = invertibility_excludes(WORKED_SUPPORT, 6)
        assert verdict.excluded
        assert not verdict.transposed
        assert len(verdict.blocks) == 6
        assert verdict.determinants == (-4, 1, 1, 1, 1, 1)
        assert verdict.verify()

    def test_opening_support_not_excluded(self):
        verdict = invertibility_excludes(OPENING_SUPPORT, 2)
        assert not verdict.excluded
        assert verdict.verify()

    def test_outcome_supports_never_excluded(self):
        members = [tightness_family(k) for k in range(4)]
        exceptional = [
            {(0, 0), (0, 7), (1, 5), (1, 1), (5, 1), (7, 0)},
            {(0, 0), (0, 7), (1, 3), (3, 3), (3, 1), (7, 0)},
        ]
        for member in members:
            assert not invertibility_excludes(member.support, member.degree).excluded
        for points in exceptional:
            assert not invertibility_excludes(points, 7).excluded

    def test_transpose_saves_a_singular_pairing(self):
        # The column pairing groups (0,0), (0,5), (1,2) into one block whose
        # determinant vanishes, but the reflected support splits into three
        # singleton blocks. No nonzero configuration lives there, and only
        # the transposed run proves it.
        points = {(0, 0), (0, 5), (1, 2)}
        verdict = invertibility_excludes(points, 5)
        assert verdict.excluded
        assert verdict.transposed
        assert verdict.verify()
        assert outcome_space(points, 5) == []

    def test_empty_support(self):
        assert not invertibility_excludes(frozenset(), 3).excluded

    def test_tampered_certificate_fails_verification(self):
        verdict = invertibility_excludes(WORKED_SUPPORT, 6)
        forged = replace(verdict, determinants=(999,) + verdict.determinants[1:])
        assert not forged.verify()

    def test_certificate_without_blocks_fails_verification(self):
        assert not ExclusionVerdict(True, 6).verify()

    def test_certificate_that_stops_short_fails_verification(self):
        # The first block alone leaves columns 2..5 and the point (5, 0) unpaired.
        verdict = invertibility_excludes({(0, 0), (0, 5), (5, 0)}, 5)
        forged = replace(verdict, blocks=verdict.blocks[:1], determinants=verdict.determinants[:1])
        assert verdict.verify()
        assert not forged.verify()

    def test_certificate_with_a_point_off_the_triangle_fails_verification(self):
        # (5, 3) sits in the last block's column but past the degree-5
        # diagonal, so no pairing matrix holds it.
        verdict = invertibility_excludes({(0, 0), (0, 5), (5, 0)}, 5)
        last = verdict.blocks[-1]
        assert last.points == ((5, 0),)
        forged = replace(
            verdict,
            blocks=verdict.blocks[:-1] + (replace(last, points=((5, 3),)),),
            support=frozenset({(0, 0), (0, 5), (5, 3)}),
        )
        assert not forged.verify()

    def test_certificate_is_tied_to_its_support(self):
        verdict = invertibility_excludes(WORKED_SUPPORT, 6)
        assert verdict.support == WORKED_SUPPORT
        for forged in (
            replace(verdict, support=WORKED_SUPPORT | {(1, 1)}),
            replace(verdict, support=WORKED_SUPPORT - {(0, 4)}),
            replace(verdict, transposed=True),
        ):
            assert not forged.verify()

    def test_exhaustive_small_supports_sound(self):
        # Every subset of size at most three in the degree-4 triangle: an
        # exclusion verdict must always mean the linear system has no
        # nonzero solution, and the closed-form block rules are checked
        # against determinants inside the call.
        points = grid_points(4)
        for size in (1, 2, 3):
            for subset in combinations(points, size):
                verdict = invertibility_excludes(frozenset(subset), 4)
                hosted = outcome_space(frozenset(subset), 4)
                if verdict.excluded:
                    assert hosted == []
                    assert verdict.verify()

    @given(supports(6))
    @settings(max_examples=150)
    def test_excluded_implies_no_outcome(self, points):
        verdict = invertibility_excludes(points, 6)
        if verdict.excluded:
            assert outcome_space(points, 6) == []
            assert verdict.verify()

    def test_equals_the_reference_walk_on_small_supports(self):
        # Field for field: the tiling, each block's points in degree
        # order, the determinants and the transposed flag.
        checked = excluded = 0
        for d, support in census_queries():
            verdict = invertibility_excludes(support, d)
            assert verdict == reference_excludes(support, d), (sorted(support), d)
            assert verdict.verify(), (sorted(support), d)
            checked += 1
            excluded += verdict.excluded
        assert (checked, excluded) == (28806, 26551)

    @given(wide_cases())
    @settings(max_examples=300)
    @example((9, frozenset({(0, 0), (0, 3), (0, 7), (1, 2), (2, 5)})))
    @example((5, frozenset({(0, 0), (0, 5), (1, 2)})))
    def test_equals_the_reference_walk_on_wide_supports(self, case):
        d, points = case
        verdict = invertibility_excludes(points, d)
        assert verdict == reference_excludes(points, d)
        assert verdict.verify()


class TestPairingExcludes:
    def test_agrees_with_reference_on_small_supports(self):
        checked = 0
        for d, support in census_queries():
            expected = reference_excludes(support, d).excluded
            assert pairing_excludes(support, d) == expected, (sorted(support), d)
            checked += 1
        assert checked == 28806

    @given(wide_cases())
    @settings(max_examples=300)
    # A five-point block decided by a determinant, and a support only
    # the transposed attempt excludes.
    @example((9, frozenset({(0, 0), (0, 3), (0, 7), (1, 2), (2, 5)})))
    @example((5, frozenset({(0, 0), (0, 5), (1, 2)})))
    def test_agrees_with_reference_on_wide_supports(self, case):
        d, points = case
        assert pairing_excludes(points, d) == reference_excludes(points, d).excluded

    def test_on_d_plus_one_points_excludes_exactly_at_full_rank(self):
        # With the origin, d + 1 points give a square top-edge matrix.
        # A greedy block that cannot close holds more points than the
        # rows from its start down, so at full rank the walk closes, and
        # a closing walk's blocks tile the rows of a block lower
        # triangular matrix. With more points the kernel is nonzero and
        # the test never excludes. The census settles such cells by rank.
        rng = random.Random(39)
        tally = Counter()
        for _ in range(2000):
            d = rng.randint(1, 10)
            points = [p for p in grid_points(d) if p != (0, 0)]
            extra = min(rng.choice([0, 0, 0, 1, 2]), len(points) - d)
            support = [(0, 0), *rng.sample(points, d + extra)]
            table = top_edge_columns(d)
            full = rank(list(zip(*(table[p] for p in support)))) == d + 1
            closes = [
                construct_lambda(frozenset(attempt), d) is not None
                for attempt in (support, [(j, i) for i, j in support])
            ]
            excluded = pairing_excludes(support, d)
            if extra:
                assert not excluded, (support, d)
                tally["over-square"] += 1
                continue
            assert excluded == (full and any(closes)) == full, (support, d)
            assert closes[0] or not full, (support, d)
            tally[excluded] += 1
        assert tally == {True: 792, False: 390, "over-square": 818}

    def test_empty_support(self):
        assert not pairing_excludes(frozenset(), 3)

    def test_rejects_outside_triangle(self):
        with pytest.raises(ValueError):
            pairing_excludes({(2, 2)}, 3)


def greedy_block_shapes(e):
    """Every block of one to three points the greedy composition can make.

    Points are shifted to start at column zero of the degree-e triangle.
    A greedy block of width w holds more than k points in its first k
    columns for every k < w, so two points sit in column zero, and three
    points sit in columns zero and one with at least two in column zero.
    """
    lead = [(0, j) for j in range(e + 1)]
    yield from ([p] for p in lead)
    if e >= 1:
        yield from (list(pair) for pair in combinations(lead, 2))
    if e >= 2:
        yield from (list(triple) for triple in combinations(lead, 3))
        for pair in combinations(lead, 2):
            yield from (list(pair) + [(1, k)] for k in range(e))


def test_closed_form_matches_determinant_on_greedy_blocks():
    for e in range(31):
        for shifted in greedy_block_shapes(e):
            matrix = [
                [binomial(e - i - j, a - i) for i, j in shifted] for a in range(len(shifted))
            ]
            assert block_shape([i for i, _ in shifted]) is not None, (e, shifted)
            invertible = _closed_form(shifted)
            assert invertible is not None, (e, shifted)
            assert invertible == (det(matrix) != 0), (e, shifted)


class TestHexagonCheck:
    def test_confined_family_member(self):
        member = tightness_family(1)
        report = hexagon_check(member, 20, 3, 7, 7)
        assert report.applies
        assert report.restricted == member
        assert report.bound == 3

    def test_support_in_forbidden_middle(self):
        config = ChipConfiguration({(5, 5): 1}, ambient=10)
        report = hexagon_check(config, 10, 2, 3, 3)
        assert not report.applies

    def test_strip_only_configuration(self):
        config = ChipConfiguration({(0, 9): 2, (8, 0): -1}, ambient=9)
        report = hexagon_check(config, 9, 2, 3, 3)
        assert report.applies
        assert report.restricted == ChipConfiguration.zero(2)

    def test_parameter_validation(self):
        w = ChipConfiguration.zero(6)
        with pytest.raises(ValueError):
            hexagon_check(w, 6, 0, 3, 3)
        with pytest.raises(ValueError):
            hexagon_check(w, 6, 2, 1, 3)
        with pytest.raises(ValueError):
            hexagon_check(w, 6, 2, 3, 3)
        with pytest.raises(ValueError):
            hexagon_check(ChipConfiguration({(4, 4): 1}), 6, 2, 2, 2)

    @given(outcomes(2), outcomes(2), outcomes(2))
    @settings(max_examples=60)
    def test_restriction_of_confined_outcomes(self, small, top, right):
        # Assemble an outcome out of three pieces living in the allowed
        # regions: the bottom-left triangle, the top strip, and the right
        # strip. The report must recover exactly the bottom-left piece,
        # and the internal outcome check on it must go through.
        d, d_small, ell = 8, 2, 3
        w = (
            shift(small, 0, 0, d)
            + shift(top, 0, d - ell + 1, d)
            + shift(right, d - ell + 1, 0, d)
        )
        assert is_outcome(w, d)
        report = hexagon_check(w, d, d_small, ell, ell)
        assert report.applies
        assert report.restricted == ChipConfiguration(dict(iter(small)), ambient=d_small)
        assert is_outcome(report.restricted, d_small)


class TestHexagonDeterminant:
    def test_direct_value(self):
        result = hexagon_determinant(6, 2, 2)
        assert result.direct == 50
        assert result.formula_shifted == 50
        assert result.formula_literal == Fraction(35, 2)
        assert result.matching == "shifted"

    def test_degenerate_corner_is_plain_binomial(self):
        assert hexagon_determinant(9, 0, 4).direct == binomial(9, 4)

    def test_nonzero_for_admissible_parameters(self):
        for d in range(1, 21):
            for d_small in range(1, d + 1):
                for ell1 in range(d_small, d - 2 * d_small + 1):
                    result = hexagon_determinant(d, d_small, ell1)
                    assert result.nonzero(), (d, d_small, ell1)
                    assert result.formula_shifted == result.direct, (d, d_small, ell1)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            hexagon_determinant(6, 3, 2)
        with pytest.raises(ValueError):
            hexagon_determinant(6, 2, 3)
