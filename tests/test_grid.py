"""Configurations, games, rendering, and the triangle symmetry."""

from __future__ import annotations

from fractions import Fraction

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipsplit.criteria import PairingMatrix, hexagon_check, invertibility_excludes, pairing_excludes
from chipsplit.grid import (
    PERMUTATIONS,
    ChipConfiguration,
    Game,
    _sign_factor,
    act,
    act_point,
    act_support,
    apply_game,
    compose,
    config_from_json,
    config_to_json,
    grid_points,
    invert,
    parse,
    render,
)
from chipsplit.hyperfield import MIN_CONTRACTION_DEGREE, contract, hyperfield_excludes
from chipsplit.models import fundamentality
from chipsplit.pascal import is_outcome, left_column_form, outcome_space, top_edge_values


@st.composite
def configs(draw, d=6, integral=True):
    points = grid_points(d)
    values = st.integers(-5, 5) if integral else st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entries = draw(st.dictionaries(st.sampled_from(points), values, max_size=8))
    return ChipConfiguration(entries, ambient=d)


@st.composite
def games(draw, d=6):
    points = grid_points(d - 1)
    entries = draw(st.dictionaries(st.sampled_from(points), st.integers(-4, 4), max_size=6))
    return Game(entries)


def test_grid_point_counts_and_order():
    assert len(grid_points(4)) == 15
    assert grid_points(1) == [(0, 0), (0, 1), (1, 0)]
    assert grid_points(-1) == []


def test_single_split_from_one_chip():
    start = ChipConfiguration({(0, 0): 1}, ambient=3)
    after = apply_game(start, Game({(0, 0): 1}))
    assert after == ChipConfiguration({(1, 0): 1, (0, 1): 1}, ambient=3)


def test_splitting_three_times_reaches_the_opening_example():
    game = Game({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    result = apply_game(ChipConfiguration.zero(2), game)
    assert result == ChipConfiguration({(0, 0): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1}, ambient=2)
    assert result.is_valid()
    assert result.alternating_top_sum() == 0


def test_moves_past_the_ambient_boundary_are_rejected():
    start = ChipConfiguration.zero(2)
    with pytest.raises(ValueError):
        apply_game(start, Game({(1, 1): 1}))


@settings(max_examples=200, deadline=None)
@given(configs(), games(), games())
def test_games_compose_additively(w, g1, g2):
    played_in_turn = apply_game(apply_game(w, g1), g2)
    played_at_once = apply_game(w, g1 + g2)
    assert played_in_turn == played_at_once


@settings(max_examples=200, deadline=None)
@given(configs(), games())
def test_every_game_is_reversible(w, g):
    assert apply_game(apply_game(w, g), -g) == w


def test_degree_and_supports():
    w = ChipConfiguration({(0, 0): -1, (3, 1): 2, (0, 2): Fraction(1, 2)})
    assert w.degree == 4
    assert w.support == {(0, 0), (3, 1), (0, 2)}
    assert w.positive_support == {(3, 1), (0, 2)}
    assert w.negative_support == {(0, 0)}
    assert not w.is_integral()
    assert ChipConfiguration.zero().degree == -1


def test_validity_notions():
    assert ChipConfiguration({(0, 0): -2, (5, 0): 1}).is_valid()
    assert not ChipConfiguration({(1, 0): -1, (5, 0): 1}).is_valid()


def test_point_action_formulas():
    d = 5
    assert act_point("(12)", (2, 1), d) == (1, 2)
    assert act_point("(13)", (2, 1), d) == (2, 1)
    assert act_point("(13)", (5, 0), d) == (0, 0)
    assert act_point("(23)", (2, 1), d) == (2, 2)
    assert act_point("(123)", (1, 0), d) == (4, 1)
    assert act_point("(132)", (1, 0), d) == (0, 4)


def test_permutations_keep_their_order_and_unknown_names_raise():
    assert PERMUTATIONS == ("e", "(12)", "(13)", "(23)", "(123)", "(132)")
    with pytest.raises(ValueError, match="unknown permutation"):
        act_point("(21)", (0, 0), 2)


def _old_sign_factor(sigma, point, d):
    """The sign as a per-permutation table, before it was read off the action."""
    i, j = point
    if sigma in ("e", "(12)"):
        return 1
    if sigma in ("(13)", "(132)"):
        return -1 if (d - j) % 2 else 1
    return -1 if (d - i) % 2 else 1


def test_sign_rule_matches_the_old_per_permutation_table():
    for d in range(12):
        for p in grid_points(d):
            for sigma in PERMUTATIONS:
                assert _sign_factor(sigma, p, d) == _old_sign_factor(sigma, p, d), (sigma, p, d)


# The S3 group law as a hand-written table, (sigma, tau) -> sigma tau,
# which the library kept before it read the law off the point action.
OLD_COMPOSE_TABLE = {
    ("e", "e"): "e",
    ("e", "(12)"): "(12)",
    ("e", "(13)"): "(13)",
    ("e", "(23)"): "(23)",
    ("e", "(123)"): "(123)",
    ("e", "(132)"): "(132)",
    ("(12)", "e"): "(12)",
    ("(12)", "(12)"): "e",
    ("(12)", "(13)"): "(132)",
    ("(12)", "(23)"): "(123)",
    ("(12)", "(123)"): "(23)",
    ("(12)", "(132)"): "(13)",
    ("(13)", "e"): "(13)",
    ("(13)", "(12)"): "(123)",
    ("(13)", "(13)"): "e",
    ("(13)", "(23)"): "(132)",
    ("(13)", "(123)"): "(12)",
    ("(13)", "(132)"): "(23)",
    ("(23)", "e"): "(23)",
    ("(23)", "(12)"): "(132)",
    ("(23)", "(13)"): "(123)",
    ("(23)", "(23)"): "e",
    ("(23)", "(123)"): "(13)",
    ("(23)", "(132)"): "(12)",
    ("(123)", "e"): "(123)",
    ("(123)", "(12)"): "(13)",
    ("(123)", "(13)"): "(23)",
    ("(123)", "(23)"): "(12)",
    ("(123)", "(123)"): "(132)",
    ("(123)", "(132)"): "e",
    ("(132)", "e"): "(132)",
    ("(132)", "(12)"): "(23)",
    ("(132)", "(13)"): "(12)",
    ("(132)", "(23)"): "(13)",
    ("(132)", "(123)"): "e",
    ("(132)", "(132)"): "(123)",
}

OLD_INVERSE_TABLE = {
    "e": "e",
    "(12)": "(12)",
    "(13)": "(13)",
    "(23)": "(23)",
    "(123)": "(132)",
    "(132)": "(123)",
}


def test_derived_group_law_matches_the_old_table():
    assert {
        (sigma, tau): compose(sigma, tau) for sigma in PERMUTATIONS for tau in PERMUTATIONS
    } == OLD_COMPOSE_TABLE
    assert {sigma: invert(sigma) for sigma in PERMUTATIONS} == OLD_INVERSE_TABLE


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERMUTATIONS), st.sampled_from(PERMUTATIONS), st.sampled_from(grid_points(7)))
def test_point_action_respects_composition(sigma, tau, p):
    d = 7
    assert act_point(sigma, act_point(tau, p, d), d) == act_point(compose(sigma, tau), p, d)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PERMUTATIONS))
def test_point_action_permutes_the_grid(sigma):
    d = 6
    points = grid_points(d)
    assert sorted(act_point(sigma, p, d) for p in points) == sorted(points)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PERMUTATIONS), st.sampled_from(PERMUTATIONS), configs())
def test_config_action_respects_composition(sigma, tau, w):
    assert act(sigma, act(tau, w)) == act(compose(sigma, tau), w)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERMUTATIONS), configs())
def test_config_action_is_invertible_and_moves_supports(sigma, w):
    d = 6
    assert act(invert(sigma), act(sigma, w)) == w
    assert act(sigma, w).support == act_support(sigma, w.support, d)


def test_config_action_signs_by_hand():
    # Even ambient degree: reflecting a top-corner chip to the origin keeps its sign.
    w2 = ChipConfiguration({(2, 0): 1}, ambient=2)
    assert act("(13)", w2) == ChipConfiguration({(0, 0): 1}, ambient=2)
    # Odd ambient degree: the same reflection flips it.
    w3 = ChipConfiguration({(3, 0): 1}, ambient=3)
    assert act("(13)", w3) == ChipConfiguration({(0, 0): -1}, ambient=3)
    # Transposition never introduces signs.
    w = ChipConfiguration({(2, 1): 5, (0, 0): -1}, ambient=3)
    assert act("(12)", w) == ChipConfiguration({(1, 2): 5, (0, 0): -1}, ambient=3)


def test_render_matches_hand_drawn_triangle():
    w = ChipConfiguration({(0, 0): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1}, ambient=2)
    assert render(w) == "1\n· 2\n-1 · 1"
    assert render(w, empty=".") == "1\n. 2\n-1 . 1"
    assert render(ChipConfiguration.zero(0)) == "·"


def test_render_can_pad_to_a_bigger_triangle():
    w = ChipConfiguration({(0, 0): 2})
    assert render(w, d=1) == "·\n2 ·"


def test_parse_accepts_both_empty_markers_and_fractions():
    parsed = parse("·\n1/2 .\n-1 . 3")
    assert parsed == ChipConfiguration({(0, 1): Fraction(1, 2), (0, 0): -1, (2, 0): 3}, ambient=2)


def test_parse_rejects_ragged_rows():
    with pytest.raises(ValueError):
        parse("1\n2 3 4")
    with pytest.raises(ValueError):
        parse("")
    with pytest.raises(ValueError):
        parse("1\nx 2")


@pytest.mark.parametrize(
    "text",
    [
        '{"entries": [5]}',
        '{"entries": 5}',
        '{"entries": [[0, 0, "1/0"]]}',
        '{"entries": [[0, null, 1]]}',
        '{"entries": [[0, 0, 1]], "ambient": Infinity}',
        '{"entries": [[3000, 0, 1]]}',
        '{"entries": [[0, 1000000, 1]]}',
        '{"entries": [[0, 0, 1]], "ambient": 1000000}',
        '{"entries": [], "ambient": -2}',
        '{"entries": [[1, 1, "2"], [1, 1, "3"]]}',
        pytest.param('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deep"),
    ],
)
def test_config_from_json_rejects_malformed_input_with_value_error(text):
    with pytest.raises(ValueError):
        config_from_json(text)


def test_parse_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="1/0"):
        parse("1/0\n")


@settings(max_examples=150, deadline=None)
@given(configs(integral=False))
def test_render_parse_round_trip(w):
    assert parse(render(w)) == w


@settings(max_examples=150, deadline=None)
@given(configs(integral=False))
def test_json_round_trip(w):
    assert config_from_json(config_to_json(w)) == w


def test_arithmetic_and_scaling():
    a = ChipConfiguration({(0, 0): 1, (1, 0): 2})
    b = ChipConfiguration({(1, 0): -2, (0, 1): 1})
    assert a + b == ChipConfiguration({(0, 0): 1, (0, 1): 1})
    assert a - a == ChipConfiguration.zero()
    assert a.scale(Fraction(1, 2)) == ChipConfiguration({(0, 0): Fraction(1, 2), (1, 0): 1})
    assert a.scale(0) == ChipConfiguration.zero()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ChipConfiguration({(-1, 2): 1}), "outside the nonnegative quadrant"),
        (lambda: ChipConfiguration({(2, 1): 1}, ambient=2), "exceed ambient degree 2"),
        (lambda: Game({(0, -1): 1}), "outside the grid"),
        (lambda: Game({(0, 1): 1.0}), "multiplicities must be integers"),
        (lambda: act("(12)", ChipConfiguration({(1, 0): 1})), "needs an ambient degree"),
    ],
)
def test_malformed_configurations_games_and_actions_are_refused(build, message):
    with pytest.raises((ValueError, TypeError), match=message):
        build()


# Every reader of the triangle's extent asks grid, so each of them refuses
# a point set outside the degree-2 triangle, or a degree-3 configuration,
# with grid's one message.
OUTSIDE = ((3, 0), (0, 1))
TOO_BIG = ChipConfiguration({(3, 0): 1})
SIGN_TOO_BIG = ChipConfiguration({(MIN_CONTRACTION_DEGREE + 1, 0): 1})


@pytest.mark.parametrize(
    "read",
    [
        lambda: PairingMatrix((0, 1), OUTSIDE, 2),
        lambda: invertibility_excludes(OUTSIDE, 2),
        lambda: pairing_excludes(OUTSIDE, 2),
        lambda: hyperfield_excludes(OUTSIDE, 2),
        lambda: fundamentality(OUTSIDE, 2),
        lambda: outcome_space(set(OUTSIDE), 2),
    ],
    ids=["PairingMatrix", "invertibility_excludes", "pairing_excludes", "hyperfield_excludes", "fundamentality", "outcome_space"],
)
def test_point_sets_outside_the_triangle_raise_one_message(read):
    with pytest.raises(ValueError, match=re.escape("support must lie inside the degree-2 triangle")):
        read()


@pytest.mark.parametrize(
    "read,d",
    [
        (lambda: act("(13)", TOO_BIG, 2), 2),
        (lambda: render(TOO_BIG, 2), 2),
        (lambda: left_column_form(0, 2).evaluate(TOO_BIG), 2),
        (lambda: top_edge_values(TOO_BIG, 2), 2),
        (lambda: is_outcome(TOO_BIG, 2), 2),
        (lambda: hexagon_check(ChipConfiguration({(4, 0): 1}), 3, 1, 1, 1), 3),
        (lambda: contract(SIGN_TOO_BIG, MIN_CONTRACTION_DEGREE), MIN_CONTRACTION_DEGREE),
    ],
    ids=["act", "render", "PascalForm.evaluate", "top_edge_values", "is_outcome", "hexagon_check", "contract"],
)
def test_configurations_too_big_for_the_triangle_raise_one_message(read, d):
    with pytest.raises(ValueError, match=re.escape(f"configuration of degree {d + 1} does not fit in degree {d}")):
        read()
