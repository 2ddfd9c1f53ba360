"""Pascal forms, the outcome criterion, and retraction."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipsplit.grid import (
    PERMUTATIONS,
    ChipConfiguration,
    Game,
    act,
    apply_game,
    grid_points,
)
from chipsplit.linalg import rank
from chipsplit.pascal import (
    PascalForm,
    all_forms,
    bottom_row_form,
    is_outcome,
    left_column_form,
    outcome_space,
    outcome_witness,
    retract,
    top_edge_form,
    top_edge_values,
)

OPENING = ChipConfiguration({(0, 0): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1}, ambient=2)


@st.composite
def outcomes(draw, d=5):
    entries = draw(st.dictionaries(st.sampled_from(grid_points(d - 1)), st.integers(-3, 3), max_size=6))
    return apply_game(ChipConfiguration.zero(d), Game(entries))


def test_left_column_form_table_matches_hand_expansion():
    form = left_column_form(3, 7)
    for i in range(5):
        assert form.coefficient(i, 3) == 1
    for i in range(6):
        assert form.coefficient(i, 2) == -i
    assert [form.coefficient(i, 1) for i in range(7)] == [0, 0, 1, 3, 6, 10, 15]
    assert [form.coefficient(i, 0) for i in range(8)] == [0, 0, 0, -1, -4, -10, -20, -35]
    assert form.coefficient(0, 4) == 0
    assert form.coefficient(0, 3) == 1


def test_bottom_row_form_is_the_transpose():
    d = 6
    for k in range(d + 1):
        psi, psibar = left_column_form(k, d), bottom_row_form(k, d)
        for i, j in grid_points(d):
            assert psibar.coefficient(i, j) == psi.coefficient(j, i)


def test_top_edge_form_table():
    form = top_edge_form(3, 4, 7)
    assert form.coefficient(0, 0) == 35
    for j in range(5):
        assert form.coefficient(3, j) == 1
    assert form.coefficient(4, 0) == 0
    assert form.coefficient(3, 4) == 1
    assert form.coefficient(2, 5) == 0
    assert all(form.coefficient(i, j) >= 0 for i, j in grid_points(7))


def test_column_zero_and_row_zero_coincide_with_edge_forms():
    d = 5

    def table(form):
        return [form.coefficient(i, j) for i, j in grid_points(d)]

    assert table(left_column_form(0, d)) == table(top_edge_form(d, 0, d))
    assert table(bottom_row_form(0, d)) == table(top_edge_form(0, d, d))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7))
def test_every_family_satisfies_the_pascal_relation(d):
    for form in all_forms(d):
        for i, j in grid_points(d - 1):
            assert form.coefficient(i, j) == form.coefficient(i + 1, j) + form.coefficient(i, j + 1)


def test_each_family_is_a_basis():
    d = 6
    points = grid_points(d)
    for family_forms in (
        [left_column_form(k, d) for k in range(d + 1)],
        [bottom_row_form(k, d) for k in range(d + 1)],
        [top_edge_form(a, d - a, d) for a in range(d + 1)],
    ):
        rows = [[f.coefficient(i, j) for (i, j) in points] for f in family_forms]
        assert rank(rows) == d + 1


def test_form_boundary_values_pin_the_basis_property():
    d = 6
    # Left-column forms restrict to a delta on the column i = 0.
    for k in range(d + 1):
        form = left_column_form(k, d)
        assert [form.coefficient(0, j) for j in range(d + 1)] == [1 if j == k else 0 for j in range(d + 1)]
    # Top-edge forms restrict to a delta on the diagonal i + j = d.
    for a in range(d + 1):
        form = top_edge_form(a, d - a, d)
        assert [form.coefficient(i, d - i) for i in range(d + 1)] == [1 if i == a else 0 for i in range(d + 1)]


def test_forms_reject_out_of_range_indices():
    with pytest.raises(ValueError):
        left_column_form(5, 4)
    with pytest.raises(ValueError):
        top_edge_form(2, 2, 5)
    with pytest.raises(ValueError):
        left_column_form(-1, 4)


@settings(max_examples=200, deadline=None)
@given(outcomes())
def test_forms_vanish_on_outcomes(w):
    assert is_outcome(w)
    assert all(form.evaluate(w) == 0 for form in all_forms(5))


@settings(max_examples=100, deadline=None)
@given(outcomes())
def test_outcome_criterion_is_stable_under_enlarging_the_triangle(w):
    d = max(w.degree, 0)
    assert is_outcome(w, d)
    assert is_outcome(w.with_ambient(None), d + 2)


def test_single_chip_is_not_an_outcome():
    assert not is_outcome(ChipConfiguration({(1, 0): 1}))
    assert not is_outcome(ChipConfiguration({(0, 0): 1}))
    assert not is_outcome(ChipConfiguration({(0, 0): -1}))
    assert is_outcome(ChipConfiguration.zero())


def test_outcome_check_reads_only_the_occupied_coefficients(monkeypatch):
    # One chip at ambient 200: each of the d + 1 top-edge forms needs one
    # coefficient, not its whole triangle of them.
    calls = 0
    original = PascalForm.coefficient

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return original(self, i, j)

    monkeypatch.setattr(PascalForm, "coefficient", counting)
    config = ChipConfiguration({(0, 0): Fraction(1, 3)}, ambient=200)
    assert not is_outcome(config)
    assert calls <= (200 + 1) * len(config)


def test_rational_outcomes_are_recognized():
    w = OPENING.scale(Fraction(1, 2))
    assert is_outcome(w)


def test_retract_walks_back_the_opening_example():
    predecessor, forced = retract(OPENING)
    assert forced == Game({(0, 1): 1, (1, 0): 1})
    assert predecessor == ChipConfiguration({(0, 0): -1, (1, 0): 1, (0, 1): 1}, ambient=2)
    final, forced2 = retract(predecessor)
    assert forced2 == Game({(0, 0): 1})
    assert not final


def test_retract_refuses_obstructed_tops():
    with pytest.raises(ValueError):
        retract(ChipConfiguration({(1, 0): 1}))
    with pytest.raises(ValueError):
        retract(ChipConfiguration({(0, 0): 5}))


def test_witness_for_the_opening_example():
    assert outcome_witness(OPENING) == Game({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert outcome_witness(ChipConfiguration({(0, 0): -1, (1, 1): 1})) is None


@settings(max_examples=200, deadline=None)
@given(outcomes())
def test_witness_route_agrees_with_form_route(w):
    game = outcome_witness(w)
    assert game is not None
    assert apply_game(ChipConfiguration.zero(max(w.degree, 0)), game) == w.with_ambient(max(w.degree, 0))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(grid_points(4)), st.integers(-3, 3), max_size=5))
def test_witness_is_none_exactly_when_forms_obstruct(entries):
    w = ChipConfiguration(entries)
    assert (outcome_witness(w) is not None) == is_outcome(w)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PERMUTATIONS), outcomes())
def test_symmetry_sends_outcomes_to_outcomes(sigma, w):
    assert is_outcome(act(sigma, w, 5), 5)


def test_outcome_space_of_the_opening_support():
    basis = outcome_space({(0, 0), (2, 0), (1, 1), (0, 2)}, 2)
    assert basis == [OPENING]


def test_outcome_space_dimension_counts():
    # Nothing but the origin supports no outcome at all.
    assert outcome_space({(0, 0)}, 2) == []
    # The one-dimensional example from the smallest fundamental support.
    basis = outcome_space({(0, 0), (1, 0), (0, 1)}, 1)
    assert basis == [ChipConfiguration({(0, 0): -1, (1, 0): 1, (0, 1): 1}, ambient=1)]
    # The full triangle supports a space of dimension |V_d| - (d + 1).
    d = 3
    basis = outcome_space(set(grid_points(d)), d)
    assert len(basis) == len(grid_points(d)) - (d + 1)
    assert all(is_outcome(w, d) for w in basis)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_outcome_space_is_the_kernel_of_the_top_edge_forms(d):
    # outcome_space reads the cached top-edge table; check it against
    # the forms built one at a time, on a spread of supports.
    forms = [top_edge_form(a, d - a, d) for a in range(d + 1)]
    points = sorted(grid_points(d))
    for start in range(len(points)):
        support = {(0, 0), *points[start::3], *points[start::5]}
        basis = outcome_space(support, d)
        rows = [[form.coefficient(i, j) for (i, j) in sorted(support)] for form in forms]
        assert len(basis) == len(support) - rank(rows), (sorted(support), d)
        for w in basis:
            assert w.support <= frozenset(support)
            assert all(form.evaluate(w) == 0 for form in forms), (sorted(support), d)


def test_outcome_space_rejects_points_outside_the_triangle():
    with pytest.raises(ValueError):
        outcome_space({(0, 0), (3, 0)}, 2)


def test_top_edge_values_of_the_opening_example():
    assert top_edge_values(OPENING) == [0, 0, 0]


@st.composite
def configurations(draw):
    """Integer or rational configurations inside a degree-d triangle, d up to 12."""
    d = draw(st.integers(0, 12))
    values = st.integers(-50, 50)
    if draw(st.booleans()):
        values = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    entries = draw(st.dictionaries(st.sampled_from(grid_points(d)), values, max_size=8))
    return ChipConfiguration(entries, ambient=d), d + draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(configurations())
def test_top_edge_values_equal_the_forms(case):
    config, d = case
    values = top_edge_values(config, d)
    expected = [top_edge_form(a, d - a, d).evaluate(config) for a in range(d + 1)]
    assert values == expected
    assert [type(v) for v in values] == [type(v) for v in expected]
    assert all(type(v) is int for v in values if v.denominator == 1)


def test_top_edge_values_reject_a_configuration_past_the_degree():
    with pytest.raises(ValueError):
        top_edge_values(OPENING, 1)
