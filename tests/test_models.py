"""The model layer: verification, bijection, reduction, composites, decomposition."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipsplit import models, pascal
from chipsplit.grid import ChipConfiguration, Game, apply_game, grid_points
from chipsplit.linalg import Poly, kernel_basis
from chipsplit.models import (
    Decomposition,
    EmbeddingStep,
    ParametricModel,
    apply_embedding,
    composite,
    decompose,
    family_summand,
    fundamentality,
    is_fundamental,
    model_from_json,
    model_to_json,
    model_to_outcome,
    outcome_to_model,
    reduce_model,
    tightness_family,
    verify_model,
)
from chipsplit.pascal import is_outcome, top_edge_columns

BINOMIAL = ParametricModel([(1, 2, 0), (2, 1, 1), (1, 0, 2)])
SEGMENT = ParametricModel([(1, 1, 0), (1, 0, 1)])
THIRD = ParametricModel([(1, 0, 1), (1, 1, 1), (1, 2, 0)])


def test_verify_model_examples():
    assert verify_model([(1, 2, 0), (2, 1, 1), (1, 0, 2)])
    assert verify_model([(1, 1, 0), (1, 0, 1)])
    assert not verify_model([(1, 1, 0)])
    assert not verify_model([(Fraction(1, 2), 0, 0)])
    assert not verify_model([])
    assert not verify_model([(-1, 1, 0), (2, 1, 0)])


def test_model_construction_rejects_non_models():
    with pytest.raises(ValueError):
        ParametricModel([(1, 1, 0)])
    with pytest.raises(ValueError):
        ParametricModel([(0, 1, 0), (1, 0, 1)])
    with pytest.raises(ValueError):
        ParametricModel([])


def test_model_basic_properties():
    assert BINOMIAL.simplex_dimension == 2
    assert BINOMIAL.degree == 2
    assert BINOMIAL.support == {(2, 0), (1, 1), (0, 2)}
    assert BINOMIAL.is_reduced()
    assert not ParametricModel([(Fraction(1, 2), 0, 0), (Fraction(1, 2), 1, 0), (Fraction(1, 2), 0, 1)]).is_reduced()
    assert BINOMIAL.as_formula() == "t -> ((1-t)^2, 2*t*(1-t), t^2)"


def test_model_to_outcome_matches_the_opening_triangle():
    w = model_to_outcome(BINOMIAL)
    assert w == ChipConfiguration({(0, 0): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1}, ambient=2)
    assert is_outcome(w)


def test_outcome_to_model_rescales_integral_outcomes():
    w = ChipConfiguration({(0, 0): -2, (0, 3): 2, (1, 1): 6, (3, 0): 2})
    m = outcome_to_model(w)
    assert m == ParametricModel([(1, 0, 3), (3, 1, 1), (1, 3, 0)])


def test_outcome_to_model_rejects_non_models():
    with pytest.raises(ValueError):
        outcome_to_model(ChipConfiguration.zero())
    with pytest.raises(ValueError):
        outcome_to_model(ChipConfiguration({(0, 0): -1, (1, 0): -1, (0, 1): 1, (1, 1): 1}))
    with pytest.raises(ValueError):
        outcome_to_model(ChipConfiguration({(0, 0): -1, (1, 0): 1}))


@st.composite
def reduced_models(draw):
    d = draw(st.integers(2, 4))
    entries = draw(
        st.dictionaries(st.sampled_from(grid_points(d - 1)), st.integers(1, 3), min_size=1, max_size=5)
    )
    w = apply_game(ChipConfiguration.zero(d), Game(entries))
    origin = w[(0, 0)]
    if origin >= 0 or not w.is_valid():
        # Rejection sampling keeps the strategy simple; most games qualify.
        raise AssertionError
    return outcome_to_model(w)


valid_models = reduced_models().filter(lambda m: True)


@settings(max_examples=150, deadline=None, suppress_health_check=[])
@given(st.data())
def test_bijection_round_trips(data):
    try:
        m = data.draw(reduced_models())
    except AssertionError:
        return
    assert outcome_to_model(model_to_outcome(m)) == m
    w = model_to_outcome(m)
    assert w.positive_support == m.support
    assert w.degree == m.degree


def test_reduce_model_strips_constant_coordinates():
    lam = Fraction(1, 3)
    non_reduced = ParametricModel([(lam, 0, 0), ((1 - lam), 1, 0), ((1 - lam), 0, 1)])
    reduced, chain = reduce_model(non_reduced)
    assert reduced == SEGMENT
    assert [step.kind for step in chain] == ["constant-coordinate"]
    assert chain[0].lam == 1 - lam
    rebuilt = reduced
    for step in chain:
        rebuilt = apply_embedding(rebuilt, step)
    assert rebuilt == non_reduced


def test_reduce_model_merges_duplicate_exponents():
    non_reduced = ParametricModel([(Fraction(1, 3), 1, 0), (Fraction(2, 3), 1, 0), (1, 0, 1)])
    reduced, chain = reduce_model(non_reduced)
    assert reduced == SEGMENT
    assert [step.kind for step in chain] == ["split-coordinate"]
    assert chain[0].lam == Fraction(1, 3)
    rebuilt = reduced
    for step in chain:
        rebuilt = apply_embedding(rebuilt, step)
    assert rebuilt == non_reduced


def test_reduce_model_on_reduced_input_is_a_no_op():
    reduced, chain = reduce_model(BINOMIAL)
    assert reduced == BINOMIAL
    assert chain == []


def test_reduce_model_handles_mixed_degeneracies():
    non_reduced = ParametricModel(
        [(Fraction(1, 4), 0, 0), (Fraction(1, 2), 1, 0), (Fraction(1, 4), 1, 0), (Fraction(3, 4), 0, 1)]
    )
    reduced, chain = reduce_model(non_reduced)
    assert reduced.is_reduced()
    rebuilt = reduced
    for step in chain:
        rebuilt = apply_embedding(rebuilt, step)
    assert rebuilt == non_reduced


def test_the_point_model_cannot_reduce():
    with pytest.raises(ValueError):
        reduce_model(ParametricModel([(1, 0, 0)]))


def test_composite_idempotent_on_the_segment_model():
    for mu in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        assert composite(SEGMENT, SEGMENT, mu) == SEGMENT


def test_composite_weights_are_pointwise_affine():
    mixed = composite(BINOMIAL, THIRD, Fraction(1, 2))
    assert mixed.weight(2, 0) == 1
    assert mixed.weight(1, 1) == Fraction(3, 2)
    assert mixed.weight(0, 2) == Fraction(1, 2)
    assert mixed.weight(0, 1) == Fraction(1, 2)
    assert mixed.support == BINOMIAL.support | THIRD.support


def test_composite_rejects_bad_parameters():
    with pytest.raises(ValueError):
        composite(BINOMIAL, THIRD, 0)
    with pytest.raises(ValueError):
        composite(BINOMIAL, THIRD, 1)


def test_fundamentality_of_the_binomial_support():
    dimension, outcome = fundamentality({(2, 0), (1, 1), (0, 2)}, 2)
    assert dimension == 1
    assert outcome == ChipConfiguration({(0, 0): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1}, ambient=2)
    assert outcome_to_model(outcome) == BINOMIAL


def test_fundamentality_eliminates_in_degree_order(monkeypatch):
    # The elimination's cost depends on its column order, so the points
    # go to kernel_basis in (degree, i) order, the origin first, in
    # whatever order the support arrives.
    d = 5
    support = sorted(tightness_family(2).positive_support)
    columns = top_edge_columns(d)
    expected = list(zip(*(columns[p] for p in [(0, 0), (2, 1), (1, 3), (0, 5), (5, 0)])))
    seen = []
    real = models.kernel_basis
    monkeypatch.setattr(models, "kernel_basis", lambda rows: seen.append(rows) or real(rows))
    arrivals = [*itertools.permutations(support), frozenset(support), iter(support[::-1])]
    for arrival in arrivals:
        assert fundamentality(arrival, d) == (1, tightness_family(2))
    assert seen == [expected] * len(arrivals)


def test_fundamentality_counterexamples():
    # The outcome space is one-dimensional but its generator is not valid.
    assert not is_fundamental({(0, 1), (0, 2), (2, 0)}, 2)
    # The generator misses one of the requested positive points.
    assert not is_fundamental({(1, 0), (0, 1), (1, 1)}, 2)
    # No outcome at all on a single off-origin point.
    assert not is_fundamental({(2, 1)}, 3)
    # No point at all, the origin, and points off the triangle.
    assert fundamentality([], 0) == (0, None)
    with pytest.raises(ValueError, match="origin"):
        is_fundamental({(0, 0), (1, 0)}, 1)
    with pytest.raises(ValueError, match="triangle"):
        fundamentality({(1, 0), (0, 3)}, 2)
    with pytest.raises(ValueError, match="triangle"):
        fundamentality({(1, 0), (-1, 2)}, 1)


def test_decompose_fundamental_returns_itself():
    dec = decompose(BINOMIAL)
    assert dec == Decomposition((BINOMIAL,), ())
    assert dec.fold() == BINOMIAL


def test_decompose_the_worked_composite():
    mixed = composite(BINOMIAL, THIRD, Fraction(1, 2))
    dec = decompose(mixed)
    assert len(dec.models) == 2
    assert {m.support for m in dec.models} == {frozenset({(2, 0), (1, 1), (0, 2)}), frozenset({(0, 1), (1, 1), (2, 0)})}
    assert all(is_fundamental(m.support, m.degree) for m in dec.models)
    assert dec.fold() == mixed


def test_decompose_asks_one_kernel_question_per_node(monkeypatch):
    # The empty relation list on the support is the leaf test, so no node
    # also runs the kernel on the support plus the origin.
    calls = []

    def counting(rows):
        calls.append(1)
        return kernel_basis(rows)

    monkeypatch.setattr(pascal, "kernel_basis", counting)
    monkeypatch.setattr(models, "kernel_basis", counting)
    for mixed in (BINOMIAL, composite(SEGMENT, composite(BINOMIAL, THIRD, Fraction(1, 2)), Fraction(1, 3))):
        calls.clear()
        dec = decompose(mixed)
        assert dec.fold() == mixed
        # Distinct leaves of a binary split tree: 2 * leaves - 1 nodes.
        assert len({m.support for m in dec.models}) == len(dec.models)
        assert len(calls) == 2 * len(dec.models) - 1
    assert len(dec.models) == 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decompose_reproduces_random_valid_models(data):
    try:
        m = data.draw(reduced_models())
    except AssertionError:
        return
    dec = decompose(m)
    assert dec.fold() == m
    for leaf in dec.models:
        assert is_fundamental(leaf.support, leaf.degree)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 9).flatmap(
    lambda d: st.tuples(st.just(d), st.sets(st.sampled_from(grid_points(d)[1:]), min_size=1, max_size=8))
))
def test_every_relation_off_the_origin_has_both_signs(case):
    # decompose slides along a relation until an entry dies, so it needs
    # a negative entry; a top-edge column is nonnegative with a 1 in row
    # a = i, so a one-signed relation would have to vanish.
    d, support = case
    for relation in pascal.outcome_space(support, d):
        values = [v for _, v in relation]
        assert min(values) < 0 < max(values)


def test_embedding_step_validation():
    with pytest.raises(ValueError):
        EmbeddingStep("constant-coordinate", (0,), Fraction(1))
    with pytest.raises(ValueError):
        EmbeddingStep("flip", (0,), Fraction(1, 2))
    with pytest.raises(ValueError):
        apply_embedding(SEGMENT, EmbeddingStep("split-coordinate", (0, 1), Fraction(1, 2)))


def test_tightness_family_small_members():
    assert tightness_family(0) == ChipConfiguration({(0, 0): -1, (1, 0): 1, (0, 1): 1}, ambient=1)
    assert tightness_family(1) == ChipConfiguration({(0, 0): -1, (3, 0): 1, (1, 1): 3, (0, 3): 1}, ambient=3)
    k3 = tightness_family(3)
    assert k3.degree == 7
    assert k3.positive_support == {(7, 0), (3, 1), (2, 3), (1, 5), (0, 7)}
    assert k3[(3, 1)] == 7
    assert k3[(2, 3)] == 14
    assert k3[(1, 5)] == 7
    assert k3[(0, 7)] == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 25))
def test_tightness_family_members_are_valid_outcomes(k):
    w = tightness_family(k)
    assert w.is_valid()
    assert is_outcome(w)
    assert w.degree == 2 * k + 1
    assert len(w.positive_support) == k + 2
    assert verify_model(outcome_to_model(w))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(-1, 13))
def test_family_summands_satisfy_the_four_term_recurrence(k, i):
    t = Poly.x()
    one_minus_t = 1 - t

    def f(kk, ii):
        return Poly(family_summand(kk, ii))

    lhs = t * t * f(k - 1, i) - one_minus_t * one_minus_t * f(k, i - 1) - 2 * t * f(k, i) + f(k + 1, i)
    assert not lhs


def test_json_round_trip():
    text = model_to_json(BINOMIAL)
    assert model_from_json(text) == BINOMIAL
    with pytest.raises(ValueError):
        model_from_json("{}")


@pytest.mark.parametrize(
    "text",
    [
        '{"terms": 5}',
        '{"terms": [5]}',
        '{"terms": [[1, 1, 1, 0, 0]]}',
        '{"terms": [[1, 0, 1, 0], [1, 1, 0, 1]]}',
        '{"terms": [[1, 1, 1.5, 0], [1, 1, 0, 1]]}',
        '{"terms": [[1, 1, true, 0], [1, 1, 0, 1]]}',
        '{"terms": [[1, 1, 1, 0], [1, 1, 0, Infinity]]}',
        '{"terms": [[1, 1, 0, 1000000]]}',
        pytest.param('{"terms": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deep"),
    ],
)
def test_model_from_json_rejects_malformed_input_with_value_error(text):
    with pytest.raises(ValueError):
        model_from_json(text)


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats()
    | st.text(max_size=3)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
term_lists = st.lists(
    st.lists(st.integers(-3, 3) | json_leaves, min_size=4, max_size=4), max_size=3
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        json_values,
        json_values.map(lambda v: {"terms": v}),
        term_lists.map(lambda t: {"terms": t}),
    )
)
def test_model_from_json_raises_only_value_error(payload):
    try:
        model = model_from_json(json.dumps(payload))
    except ValueError:
        return
    assert all(type(v) is int for term in payload["terms"] for v in term)
    assert model_from_json(model_to_json(model)) == model
