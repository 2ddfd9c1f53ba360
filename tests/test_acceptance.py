"""Acceptance gate: the headline results, one test per criterion.

Each test checks one published claim end to end and records a pass/fail
line through the ``criterion`` fixture; the lines print as a block at
the end of the run.  Stated time budgets are asserted where the claim
carries one.  Every claim is recomputed from scratch, the wide census
row (six positive entries, degrees up to nine) included; the sweeps and
the pipeline are also compared whole with their committed artifacts.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

from click.testing import CliRunner

from chipsplit.cli import main
from chipsplit.criteria import hexagon_determinant
from chipsplit.enumeration import (
    EnumerationReport,
    check_conjecture,
    enumerate_fundamental,
    sweep_no_valid_outcomes,
    sweep_start,
    sweep_summary,
)
from chipsplit.grid import (
    PERMUTATIONS,
    ChipConfiguration,
    Game,
    act,
    apply_game,
    grid_points,
)
from chipsplit.hyperfield import (
    H,
    MIN_CONTRACTION_DEGREE,
    RING_DEPTH,
    ContractionPoint,
    contracted_forms,
    gamma_set,
    lambda_set,
)
from chipsplit.linalg import det, kernel_basis
from chipsplit.models import (
    composite,
    decompose,
    model_to_outcome,
    outcome_to_model,
    polynomial_coefficients,
    tightness_family,
)
from chipsplit.pascal import all_forms, is_outcome, outcome_witness
from chipsplit.pipeline import pipeline_summary

# The complete classification of outcomes with at most three positive
# entries, primitive integer weights.
SMALL_FIVE = [
    {(0, 0): -1, (0, 1): 1, (1, 0): 1},
    {(0, 0): -1, (0, 1): 1, (1, 1): 1, (2, 0): 1},
    {(0, 0): -1, (1, 0): 1, (0, 2): 1, (1, 1): 1},
    {(0, 0): -1, (0, 2): 1, (1, 1): 2, (2, 0): 1},
    {(0, 0): -1, (0, 3): 1, (1, 1): 3, (3, 0): 1},
]

# Census cell counts (n, d) for two to five positive entries.
TABLE_N4 = {
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
N5_ROW = {5: 602, 6: 254, 7: 88, 8: 24, 9: 2}

# Width-four sign survivors at degrees six and seven.
D6_SETS = {
    ((0, 3), (1, 5), (4, 1), (6, 0)),
    ((0, 5), (1, 1), (3, 3), (6, 0)),
    ((0, 6), (1, 1), (3, 3), (5, 0)),
    ((0, 6), (1, 1), (3, 3), (6, 0)),
    ((0, 6), (1, 4), (3, 0), (5, 1)),
}
D7_SETS = {
    ((0, 7), (1, 1), (3, 3), (7, 0)),
    ((0, 7), (1, 3), (5, 1), (7, 0)),
    ((0, 7), (1, 5), (3, 1), (7, 0)),
}

# The two degree-seven outcomes beyond the regular families.
EXCEPTIONAL_SEVEN = [
    {(0, 0): -2, (0, 7): 2, (1, 5): 7, (1, 1): 7, (5, 1): 7, (7, 0): 2},
    {(0, 0): -1, (0, 7): 1, (1, 3): 7, (3, 3): 7, (3, 1): 7, (7, 0): 1},
]


@cache
def desk_census() -> EnumerationReport:
    return enumerate_fundamental(7, 4)


RESULTS = Path(__file__).resolve().parent.parent / "results"


def serialized(payload) -> str:
    """JSON as the CLI prints it and the committed artifacts store it."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def entry_dicts(outcomes):
    return [dict(w) for w in outcomes]


def test_criterion_01_small_support_classification(criterion):
    with criterion(1, "complete classification with at most 3 positive entries"):
        start = time.perf_counter()
        report = enumerate_fundamental(3, 2)
        elapsed = time.perf_counter() - start
        found = entry_dicts(report.outcomes)
        assert len(found) == 5
        for expected in SMALL_FIVE:
            assert expected in found
        assert elapsed < 1.0
        assert serialized(report.to_json()) == (RESULTS / "census-n2-d3.json").read_text()


def test_criterion_02_census_table(criterion, wide_census):
    with criterion(2, "census table rows for 2..6 positive entries, all recomputed"):
        start = time.perf_counter()
        report = desk_census()
        elapsed = time.perf_counter() - start
        assert report.table == TABLE_N4
        totals = {}
        for (n, _), count in report.table.items():
            totals[n] = totals.get(n, 0) + count
        assert totals == {1: 1, 2: 4, 3: 18, 4: 134}
        assert elapsed < 30 * 60
        assert wide_census.stats["skipped_cells"] == []
        assert {d: c for (n, d), c in wide_census.table.items() if n == 5} == N5_ROW


def test_criterion_03_gamma_cardinalities(criterion):
    with criterion(3, "contraction-point set sizes per parity and support"):
        start = time.perf_counter()
        assert len(gamma_set("even", 5)) == 1283
        assert len(gamma_set("odd", 5)) == 1265
        for parity in ("even", "odd"):
            for size in (1, 2, 3, 4):
                assert len(gamma_set(parity, size)) == 0
        assert time.perf_counter() - start < 15 * 60


def test_criterion_04_support_four_survivors(criterion):
    with criterion(4, "width-4 sign survivors at degrees 6..11, all excluded"):
        start = time.perf_counter()
        certificates = sweep_no_valid_outcomes(4, range(6, 12))
        elapsed = time.perf_counter() - start
        by_degree = {cert.d: cert for cert in certificates}
        assert set(by_degree[6].sign_survivors) == D6_SETS
        assert set(by_degree[7].sign_survivors) == D7_SETS
        for d in range(8, 12):
            assert by_degree[d].sign_survivors == ()
        for cert in certificates:
            assert cert.holds
            assert all(how == "invertibility" for how in cert.resolutions)
        assert elapsed < 5 * 60
        summary = serialized(sweep_summary(4, certificates))
        assert summary == (RESULTS / "sweep-4-d11.json").read_text()


def test_criterion_05_contraction_pipeline(criterion):
    with criterion(5, "2289 contraction cases eliminated with zero survivors"):
        start = time.perf_counter()
        lam = lambda_set()
        assert sum(len(case.positive_support()) == 5 for case in lam) == 2289
        report = pipeline_summary()
        elapsed = time.perf_counter() - start
        total = len(report.verdicts)
        assert total == 2289 + 1
        remaining = total - report.counts["invertibility"]
        assert remaining <= 1107
        remaining -= report.counts["symmetry"]
        assert remaining <= 349
        remaining -= report.counts["hexagon"]
        assert remaining <= 24
        assert report.counts["survivor"] == 0
        assert report.survivors() == ()
        exceptional_verdict = report.verdicts[-1]
        assert exceptional_verdict.case == lam[-1]
        assert len(lam[-1].positive_support()) == 4
        assert exceptional_verdict.eliminated_by == "special"
        assert elapsed < 30 * 60
        # pipeline_summary is cached, so the CLI reuses the run above.
        result = CliRunner().invoke(main, ["pipeline", "--json"])
        assert result.exit_code == 0
        assert result.output == (RESULTS / "pipeline.json").read_text()


def test_criterion_06_support_five_sweep(criterion):
    with criterion(6, "no width-5 valid outcome in degrees 8..41"):
        certificates = sweep_no_valid_outcomes(5, range(8, 42))
        assert [cert.d for cert in certificates] == list(range(8, 42))
        for cert in certificates:
            assert cert.holds
            assert cert.outcomes_found == ()
        summary = serialized(sweep_summary(5, certificates))
        assert summary == (RESULTS / "sweep-5-d41.json").read_text()


def test_criterion_07_hexagon_determinants(criterion):
    with criterion(7, "hexagon determinants nonzero through degree 20"):
        start = time.perf_counter()
        checked = 0
        for d in range(3, 21):
            for d_small in range(1, d // 3 + 1):
                for ell1 in range(d_small, d - 2 * d_small + 1):
                    result = hexagon_determinant(d, d_small, ell1)
                    checked += 1
                    assert result.nonzero()
                    assert result.matching == "shifted"
        assert checked == 441
        oracle = hexagon_determinant(6, 2, 2)
        assert oracle.direct == 50
        assert oracle.formula_literal != oracle.direct
        assert time.perf_counter() - start < 60


def test_criterion_08_identity_and_tightness(criterion):
    with criterion(8, "family members and the telescoping identity for k <= 25"):
        start = time.perf_counter()
        for k in range(26):
            w = tightness_family(k)
            assert is_outcome(w)
            assert w.degree == 2 * k + 1
            assert len(w.positive_support) == k + 2
            assert w.is_integral()
            positives = [(v, i, j) for (i, j), v in w if (i, j) != (0, 0)]
            coefficients = polynomial_coefficients(positives)
            assert coefficients[0] == 1
            assert all(c == 0 for c in coefficients[1:])
        assert time.perf_counter() - start < 10


DEGREE = 6


def _random_config(rng, max_degree, spread=5):
    points = rng.sample(grid_points(max_degree), rng.randint(1, 10))
    return ChipConfiguration(
        {p: rng.randint(-spread, spread) for p in points}
    )


def _random_game(rng, max_degree):
    positions = rng.sample(grid_points(max_degree - 1), rng.randint(1, 8))
    return Game({p: rng.randint(-3, 3) for p in positions})


def _suite_game_reversibility():
    rng = random.Random(101)
    for _ in range(500):
        start = _random_config(rng, DEGREE - 1)
        game = _random_game(rng, DEGREE)
        there = apply_game(start, game)
        assert apply_game(there, -game) == start
        moves = list(game.moves)
        rng.shuffle(moves)
        cut = rng.randint(0, len(moves))
        first, second = Game(moves[:cut]), Game(moves[cut:])
        assert apply_game(apply_game(start, first), second) == there
    return 500


def _suite_pascal_invariance():
    rng = random.Random(102)
    forms = all_forms(DEGREE)
    for _ in range(500):
        config = _random_config(rng, DEGREE - 1)
        move = Game({rng.choice(grid_points(DEGREE - 1)): 1})
        form = rng.choice(forms)
        assert form.evaluate(config) == form.evaluate(apply_game(config, move))
    return 500


def _suite_outcome_equivalence():
    rng = random.Random(103)
    empty = ChipConfiguration({})
    for index in range(500):
        w = apply_game(empty, _random_game(rng, DEGREE))
        if index % 2:
            bump = dict(w)
            point = rng.choice(grid_points(DEGREE))
            bump[point] = bump.get(point, 0) + rng.choice([-2, -1, 1, 2])
            w = ChipConfiguration(bump)
        by_forms = is_outcome(w, DEGREE)
        coefficients = polynomial_coefficients([(v, i, j) for (i, j), v in w])
        by_polynomial = all(c == 0 for c in coefficients)
        witness = outcome_witness(w)
        assert by_forms == by_polynomial == (witness is not None)
        if witness is not None:
            assert apply_game(empty, witness) == w
    return 500


def _suite_symmetry_closure():
    rng = random.Random(104)
    empty = ChipConfiguration({})
    cases = 0
    for _ in range(84):
        w = apply_game(empty, _random_game(rng, DEGREE))
        for sigma in PERMUTATIONS:
            assert is_outcome(act(sigma, w, DEGREE), DEGREE)
            cases += 1
    return cases


def _suite_model_round_trips():
    rng = random.Random(105)
    base = list(desk_census().outcomes)
    for _ in range(500):
        entries = {}
        for w in [rng.choice(base) for _ in range(rng.randint(1, 3))]:
            scale = rng.randint(1, 4)
            for p, v in w:
                entries[p] = entries.get(p, 0) + scale * v
        outcome = ChipConfiguration(entries)
        model = outcome_to_model(outcome)
        recovered = model_to_outcome(model)
        assert recovered[(0, 0)] == -1
        assert outcome_to_model(recovered) == model
        debt = -Fraction(outcome[(0, 0)])
        for p, v in outcome:
            assert Fraction(recovered[p]) * debt == Fraction(v)
    return 500


def _suite_decompose_round_trips():
    rng = random.Random(106)
    models = [outcome_to_model(w) for w in desk_census().outcomes]
    for _ in range(500):
        chain = [rng.choice(models) for _ in range(rng.randint(2, 3))]
        mixed = chain[-1]
        for item in reversed(chain[:-1]):
            a = rng.randint(1, 8)
            mixed = composite(item, mixed, Fraction(a, rng.randint(a + 1, 9)))
        decomposition = decompose(mixed)
        assert decomposition.fold() == mixed
    return 500


def _det_oracle(rows):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        sign = 1
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Fraction(sign)
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total


def _rank_oracle(rows, ncols):
    best = 0
    for r in range(1, min(len(rows), ncols) + 1):
        minors = (
            [[rows[i][j] for j in csel] for i in rsel]
            for rsel in itertools.combinations(range(len(rows)), r)
            for csel in itertools.combinations(range(ncols), r)
        )
        if any(_det_oracle(minor) != 0 for minor in minors):
            best = r
    return best


def _suite_linear_algebra_oracle():
    rng = random.Random(107)
    for _ in range(500):
        n = rng.randint(1, 4)
        square = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(square) == _det_oracle(square)
        m = rng.randint(1, 4)
        rect = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        basis = kernel_basis(rect)
        rank = _rank_oracle(rect, m)
        assert len(basis) == m - rank
        for vector in basis:
            for row in rect:
                assert sum(a * x for a, x in zip(row, vector)) == 0
        if basis:
            assert _rank_oracle(basis, m) == len(basis)
    return 500


def test_criterion_09_property_suites(criterion):
    with criterion(9, "seven randomized property suites, 500+ cases each"):
        suites = [
            _suite_game_reversibility,
            _suite_pascal_invariance,
            _suite_outcome_equivalence,
            _suite_symmetry_closure,
            _suite_model_round_trips,
            _suite_decompose_round_trips,
            _suite_linear_algebra_oracle,
        ]
        for suite in suites:
            assert suite() >= 500


def test_criterion_10_exceptional_outcomes_and_degree_bound(criterion, wide_census):
    with criterion(10, "exceptional degree-7 outcomes and the degree bound"):
        report = desk_census()
        found = entry_dicts(report.outcomes)
        for expected in EXCEPTIONAL_SEVEN:
            assert expected in found
        conjecture = check_conjecture(report)
        assert conjecture.holds
        assert conjecture.equality_counts == {1: 1, 2: 1, 3: 2, 4: 4}
        wide = check_conjecture(wide_census)
        assert wide.holds
        assert wide.equality_counts == {1: 1, 2: 1, 3: 2, 4: 4, 5: 2}


def test_criterion_11_widths_two_to_four_at_every_degree(criterion):
    with criterion(11, "no valid outcome with 2..4 positive entries above degree 2n - 1"):
        # Degrees 2n..11 are swept.  From d = 12 = 3 * RING_DEPTH on, the
        # descent proof in contracted_forms makes the sign image of every
        # descended Pascal form that of its contracted form, so a valid
        # outcome of width <= 4 would contract to a member of Gamma_0..Gamma_4
        # at its degree's parity; all of them are empty.
        assert MIN_CONTRACTION_DEGREE == 3 * RING_DEPTH - 1 == 11
        for n_plus in (2, 3, 4):
            certificates = sweep_no_valid_outcomes(
                n_plus, range(sweep_start(n_plus), MIN_CONTRACTION_DEGREE + 1)
            )
            assert all(cert.holds for cert in certificates)
            survivors = {cert.d: len(cert.sign_survivors) for cert in certificates if cert.sign_survivors}
            assert survivors == ({6: 5, 7: 3} if n_plus == 4 else {})
        origin_only = ContractionPoint.from_record({"x[0,0]": -1})
        for parity in ("even", "odd"):
            for size in (1, 2, 3, 4):
                assert gamma_set(parity, size) == ()
            assert any(form.evaluate(origin_only) != H for form in contracted_forms(parity))
