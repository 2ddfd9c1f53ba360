"""Tests for sign arithmetic, the sign-form exclusion, and the contraction."""

import collections
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipsplit.criteria import invertibility_excludes
from chipsplit.grid import (
    PERMUTATIONS,
    ChipConfiguration,
    Game,
    apply_game,
    compose,
    grid_points,
)
from chipsplit import hyperfield
from chipsplit.hyperfield import (
    H,
    MIN_CONTRACTION_DEGREE,
    NEGATIVE,
    POSITIVE,
    XI_COORDS,
    XI_PRIME_COORDS,
    ZERO,
    ContractedForm,
    ContractionPoint,
    chi,
    contract,
    contracted_forms,
    eval_sign_form,
    gamma_set,
    hyperfield_excludes,
    hyperfield_sum,
    lambda_set,
    parse_coord,
    permute_signs,
    ring_cell,
    s3_on_contraction,
    sign_of,
    sign_survivors,
)
from chipsplit.models import tightness_family
from chipsplit.pascal import all_forms, left_column_form, top_edge_form

# The complete list of positive supports of valid outcomes with at most
# three positive entries, paired with their degrees.
SMALL_CLASSIFICATION = [
    (frozenset({(1, 0), (0, 1)}), 1),
    (frozenset({(0, 1), (1, 1), (2, 0)}), 2),
    (frozenset({(0, 2), (1, 0), (1, 1)}), 2),
    (frozenset({(0, 2), (1, 1), (2, 0)}), 2),
    (frozenset({(0, 3), (1, 1), (3, 0)}), 3),
]

# Support-4 candidates that the sign test cannot rule out.
SIGN_SURVIVORS_D6 = [
    {(0, 3), (1, 5), (4, 1), (6, 0)},
    {(0, 5), (1, 1), (3, 3), (6, 0)},
    {(0, 6), (1, 1), (3, 3), (5, 0)},
    {(0, 6), (1, 1), (3, 3), (6, 0)},
    {(0, 6), (1, 4), (3, 0), (5, 1)},
]
SIGN_SURVIVORS_D7 = [
    {(0, 7), (1, 1), (3, 3), (7, 0)},
    {(0, 7), (1, 3), (5, 1), (7, 0)},
    {(0, 7), (1, 5), (3, 1), (7, 0)},
]

EXCEPTIONAL_SEVEN = [
    {(0, 7), (1, 5), (1, 1), (5, 1), (7, 0)},
    {(0, 7), (1, 3), (3, 3), (3, 1), (7, 0)},
]


def random_outcome(rng, d):
    moves = {}
    for p in rng.sample(grid_points(d - 1), rng.randint(1, 6)):
        moves[p] = rng.randint(-3, 3)
    return apply_game(ChipConfiguration.zero(d), Game(moves))


def random_weakly_valid_signs(rng, d):
    r = hyperfield.RING_DEPTH
    pts = grid_points(d)
    corners = [
        p
        for p in pts
        if (p[0] < r and p[1] < r)
        or (p[0] + p[1] >= d - (r - 1) and (p[0] < r or p[1] < r))
    ]
    entries = {p: 1 for p in rng.sample(pts, rng.randint(0, 12))}
    for p in rng.sample(corners, rng.randint(0, 3)):
        entries[p] = rng.choice((-1, 1))
    return ChipConfiguration(entries, ambient=d)


class TestHyperfieldSum:
    def test_opposite_signs_give_everything(self):
        assert hyperfield_sum([1, -1]) == H

    def test_like_signs_stay_put(self):
        assert hyperfield_sum([1, 1, 1]) == POSITIVE
        assert hyperfield_sum([-1, -1]) == NEGATIVE

    def test_zeros_are_neutral(self):
        assert hyperfield_sum([]) == ZERO
        assert hyperfield_sum([0, 0]) == ZERO
        assert hyperfield_sum([0, 1]) == POSITIVE


class TestEvalSignForm:
    def test_zero_configuration(self):
        s = ChipConfiguration.zero(3)
        assert all(eval_sign_form(f, s) == ZERO for f in all_forms(3))

    def test_unbalanced_bottom_row(self):
        # Only the origin meets the bottom-row form, so the sign is forced.
        s = ChipConfiguration({(0, 0): -1, (1, 1): 1, (0, 2): 1}, ambient=2)
        assert eval_sign_form(left_column_form(0, 2), s) == NEGATIVE

    def test_top_edge_forms_cancel_on_opening_position(self):
        s = sign_of(
            ChipConfiguration(
                {(0, 0): -1, (2, 0): 1, (1, 1): 1, (0, 2): 1}, ambient=2
            )
        )
        for a in range(3):
            assert eval_sign_form(top_edge_form(a, 2 - a, 2), s) == H

    def test_every_form_vanishes_on_outcome_signs(self):
        rng = random.Random(411)
        for _ in range(200):
            w = random_outcome(rng, 5)
            s = sign_of(w)
            for form in all_forms(5):
                assert 0 in eval_sign_form(form, s)


class TestHyperfieldExcludes:
    def test_small_classification_is_not_excluded(self):
        for support, d in SMALL_CLASSIFICATION:
            assert not hyperfield_excludes(support, d).excluded

    def test_degree_mismatch_excludes(self):
        verdict = hyperfield_excludes({(1, 0), (0, 1)}, 3)
        assert verdict.excluded

    def test_sign_survivors_at_degrees_six_and_seven(self):
        # These pass the sign test but fall to the invertibility criterion.
        for d, survivors in ((6, SIGN_SURVIVORS_D6), (7, SIGN_SURVIVORS_D7)):
            for support in survivors:
                assert not hyperfield_excludes(support, d).excluded
                assert invertibility_excludes(support, d).excluded

    def test_known_outcome_families_are_never_excluded(self):
        for k in range(6):
            w = tightness_family(k)
            assert not hyperfield_excludes(w.positive_support, 2 * k + 1).excluded
        for support in EXCEPTIONAL_SEVEN:
            assert not hyperfield_excludes(support, 7).excluded

    @pytest.mark.parametrize("d", [8, 9, 10, 11])
    def test_small_supports_all_excluded_in_sample(self, d):
        rng = random.Random(100 + d)
        points = [p for p in grid_points(d) if p != (0, 0)]
        for _ in range(150):
            support = set(rng.sample(points, rng.randint(1, 4)))
            assert hyperfield_excludes(support, d).excluded

    def test_exhaustive_soundness_through_degree_six(self):
        # Exclusion may never hit a support that genuinely carries a
        # valid outcome; through degree six and three positive entries
        # the classification gives the complete list of those.
        import itertools

        genuine = set(SMALL_CLASSIFICATION)
        for d in range(1, 7):
            points = [p for p in grid_points(d) if p != (0, 0)]
            for size in (1, 2, 3):
                for combo in itertools.combinations(points, size):
                    support = frozenset(combo)
                    if hyperfield_excludes(support, d).excluded:
                        assert (support, d) not in genuine

    def test_rejects_origin_and_stray_points(self):
        with pytest.raises(ValueError):
            hyperfield_excludes({(0, 0), (1, 0)}, 2)
        with pytest.raises(ValueError):
            hyperfield_excludes({(3, 3)}, 4)

    def test_failing_form_is_reported(self):
        verdict = hyperfield_excludes({(1, 0)}, 2)
        assert verdict.excluded and verdict.failing_form is not None


class TestRingCell:
    def test_census_at_degree_fourteen(self):
        kinds = {}
        for p in grid_points(14):
            cell = ring_cell(p, 14)
            kind = parse_coord(cell)[0] if cell else None
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == {
            "x": 16, "r": 16, "t": 16, "alpha": 22, "beta": 22,
            "gamma0": 12, "gamma1": 10, None: 6,
        }

    def test_corner_cells_are_distinct_points(self):
        for d in (11, 12, 13):
            seen = {}
            for p in grid_points(d):
                cell = ring_cell(p, d)
                if cell and cell[0] in ("x", "r", "t"):
                    assert cell not in seen
                    seen[cell] = p
            assert len(seen) == 48

    def test_specific_cells(self):
        assert ring_cell((15, 0), 15) == "t[3,0]"
        assert ring_cell((0, 15), 15) == "r[0,3]"
        assert ring_cell((7, 1), 15) == "beta[1]"
        assert ring_cell((2, 6), 15) == "alpha[2]"
        assert ring_cell((5, 8), 15) == "gamma1[2]"
        assert ring_cell((5, 5), 15) is None

    def test_outside_triangle_raises(self):
        with pytest.raises(ValueError):
            ring_cell((8, 8), 15)


class TestRingDepth:
    """The values RING_DEPTH derives, pinned at the paper's depth 4."""

    def test_depth_four_layout(self):
        assert hyperfield.RING_DEPTH == 4
        assert MIN_CONTRACTION_DEGREE == 11
        assert XI_COORDS == (
        "x[0,0]", "x[0,1]", "x[0,2]", "x[0,3]", "x[1,0]", "x[1,1]", "x[1,2]", "x[1,3]",
        "x[2,0]", "x[2,1]", "x[2,2]", "x[2,3]", "x[3,0]", "x[3,1]", "x[3,2]", "x[3,3]",
        "r[0,0]", "r[0,1]", "r[0,2]", "r[0,3]", "r[1,0]", "r[1,1]", "r[1,2]", "r[1,3]",
        "r[2,0]", "r[2,1]", "r[2,2]", "r[2,3]", "r[3,0]", "r[3,1]", "r[3,2]", "r[3,3]",
        "t[0,0]", "t[0,1]", "t[0,2]", "t[0,3]", "t[1,0]", "t[1,1]", "t[1,2]", "t[1,3]",
        "t[2,0]", "t[2,1]", "t[2,2]", "t[2,3]", "t[3,0]", "t[3,1]", "t[3,2]", "t[3,3]",
        "alpha[0]", "alpha[1]", "alpha[2]", "alpha[3]", "beta[0]", "beta[1]", "beta[2]", "beta[3]",
        "gamma0[0]", "gamma0[1]", "gamma0[2]", "gamma0[3]", "gamma1[0]", "gamma1[1]", "gamma1[2]", "gamma1[3]",
        )
        assert len(XI_PRIME_COORDS) == 60

    def test_depth_four_forms(self):
        for parity in ("even", "odd"):
            assert [f.name for f in contracted_forms(parity)] == [
                "psi[1]", "psi[2]", "psi[3]", "psibar[1]", "psibar[2]", "psibar[3]",
                "phi[1,d-1]", "phi[2,d-2]", "phi[3,d-3]", "phi[d-1,1]", "phi[d-2,2]", "phi[d-3,3]",
                "psi[d-3]", "psi[d-2]", "psi[d-1]", "psi[d]",
                "psibar[d-3]", "psibar[d-2]", "psibar[d-1]", "psibar[d]",
            ]


# Run in a copy of the package with RING_DEPTH = 5; prints what it builds.
DEPTH_FIVE_SCRIPT = """
import json
from chipsplit import hyperfield as h, pipeline as p
lam = h.lambda_set()
report = p.pipeline_summary()
special = [v.case for v in report.verdicts if v.eliminated_by == "special"]
certificates = [p.special_eliminates(case) for case in special]
tiling = {}
for e in (21, 22, 30):
    d, columns = 2 * e + 1, []
    for _, points, _, box in p._final_slice_patterns():
        column = points[-1][0]
        low, high = box if column.terms else (column, column)
        columns += range(low.dc * e + low.c, high.dc * e + high.c + 1)
    gamma_one = [i for i in range(d) if h._merged_cell((i, d - 1 - i), d) == "gamma[1]"]
    tiling[e] = [sorted(columns), gamma_one]
print(json.dumps({
    "module": h.__file__,
    "case_list": {
        "coordinates": [len(h.XI_COORDS), len(h.XI_PRIME_COORDS)],
        "forms": [len(h.contracted_forms(parity)) for parity in ("even", "odd")],
        "gamma": [len(h.gamma_set(parity, 5)) for parity in ("even", "odd")],
        "cases": len(lam),
        "supports": sorted({len(case.positive_support()) for case in lam}),
    },
    "chain": {
        "counts": report.counts,
        "special": [case.record() for case in special],
        "resistant_patterns": [cert["resistant_patterns"] for cert in certificates],
        "slice_patterns": [list(cert["determinants_in_e"]) for cert in certificates],
        "subtraction": sum(p._special_exceptional(case) is not None for case in lam),
    },
    "tiling": tiling,
}))
"""


class TestDepthFive:
    """The case list and the whole eliminator chain at ring depth 5."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("depth5")
        package = tmp_path / "chipsplit"
        shutil.copytree(
            Path(hyperfield.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        module = package / "hyperfield.py"
        text, count = re.subn(r"^RING_DEPTH = 4$", "RING_DEPTH = 5", module.read_text(), flags=re.M)
        assert count == 1
        module.write_text(text)
        run = subprocess.run(
            [sys.executable, "-c", DEPTH_FIVE_SCRIPT],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True,
            text=True,
            check=True,
        )
        built = json.loads(run.stdout)
        assert built.pop("module") == str(module)
        return built

    def test_case_list_builds_at_depth_five(self, built):
        assert built["case_list"] == {
            "coordinates": [95, 90],
            "forms": [26, 26],
            "gamma": [1252, 1341],
            "cases": 2388,
            "supports": [5],
        }

    def test_criterion_12_pipeline_clears_every_case_at_depth_five(self, built, criterion):
        with criterion(12, "the depth-5 chain has no survivor, without hexagons or the subtraction"):
            chain = built["chain"]
            assert chain["counts"] == {
                "invertibility": 2382,
                "symmetry": 5,
                "hexagon": 0,
                "special": 1,
                "survivor": 0,
            }
            assert chain["special"] == [{
                "x[0,0]": -1,
                "r[0,4]": 1,
                "t[4,0]": 1,
                "alpha[1]": 1,
                "beta[1]": 1,
                "gamma[1]": 1,
            }]
            assert chain["resistant_patterns"] == [4]
            assert chain["slice_patterns"] == [[
                "low", "below-strip", "at-strip", "high", "near-top", "nearer-top", "nearerer-top",
            ]]
            assert chain["subtraction"] == 0

    @pytest.mark.parametrize("e", ["21", "22", "30"])
    def test_slice_tiles_gamma_ones_range_at_depth_five(self, built, e):
        columns, gamma_one = built["tiling"][e]
        assert columns == gamma_one


class TestContract:
    def test_tightness_anchor(self):
        theta = contract(sign_of(tightness_family(7)), 15)
        assert theta.record() == {
            "x[0,0]": -1,
            "r[0,3]": 1,
            "r[1,2]": 1,
            "r[2,1]": 1,
            "r[3,0]": 1,
            "t[3,0]": 1,
            "beta[1]": 1,
            "beta[3]": 1,
        }
        assert theta.is_valid() and theta.is_weakly_valid()

    def test_zero_contracts_to_zero(self):
        assert contract(ChipConfiguration.zero(13), 13) == ContractionPoint.from_record({})

    def test_same_relative_layout_gives_same_record(self):
        def layout(d):
            return ChipConfiguration(
                {
                    (0, 0): -1,
                    (0, 5): 1,
                    (1, d - 2): 1,
                    (d - 2, 2): 1,
                    (5, d - 6): 1,
                    (7, 3): 1,
                },
                ambient=d,
            )

        assert contract(layout(14), 14) == contract(layout(16), 16)

    def test_interior_is_invisible(self):
        base = ChipConfiguration({(0, 0): -1, (13, 0): 1}, ambient=13)
        noisy = base + ChipConfiguration({(4, 4): 1, (5, 4): 1}, ambient=13)
        assert contract(base, 13) == contract(noisy, 13)

    def test_singleton_census(self):
        d = 12
        for p in grid_points(d):
            theta = contract(ChipConfiguration({p: 1}, ambient=d), d)
            cell = ring_cell(p, d)
            positives = theta.positive_support()
            if cell is None:
                assert theta == ContractionPoint.from_record({})
            else:
                assert len(positives) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            contract(ChipConfiguration.zero(9), 9)
        with pytest.raises(ValueError):
            contract(ChipConfiguration({(12, 0): 1}, ambient=12), 11)
        with pytest.raises(ValueError):
            contract(ChipConfiguration({(1, 0): 2}, ambient=12), 12)
        with pytest.raises(ValueError):
            # A debt on an edge strip makes the strip sum multivalued.
            contract(ChipConfiguration({(7, 1): -1, (12, 0): 1}, ambient=12), 12)

    @pytest.mark.parametrize(
        "point, d, weakly_valid",
        [
            # A chip in debt deep inside the triangle ruins weak validity.
            ((5, 5), 14, False),
            # But debts in the three depth-four corners are tolerated.
            ((3, 3), 14, True),
            ((2, 9), 11, True),
            ((9, 2), 11, True),
            ((4, 7), 14, False),
        ],
    )
    def test_weak_validity_is_a_precondition(self, point, d, weakly_valid):
        s = ChipConfiguration({point: -1}, ambient=d)
        if weakly_valid:
            assert contract(s, d).record() == {ring_cell(point, d): -1}
        else:
            with pytest.raises(ValueError, match="non-weakly-valid"):
                contract(s, d)

    @pytest.mark.parametrize("d", [11, 12, 13, 14])
    def test_debts_are_accepted_exactly_in_the_three_corners(self, d):
        # The corners of depth four, measured against the degree-d triangle.
        for i, j in grid_points(d):
            corner = (i <= 3 and j <= 3) or (i + j >= d - 3 and (i <= 3 or j <= 3))
            s = ChipConfiguration({(i, j): -1}, ambient=d)
            if corner:
                assert contract(s, d).record() == {ring_cell((i, j), d): -1}
            else:
                with pytest.raises(ValueError, match="non-weakly-valid"):
                    contract(s, d)

    def test_record_round_trip(self):
        theta = contract(sign_of(tightness_family(7)), 15)
        assert ContractionPoint.from_record(theta.record()) == theta

    def test_merged_record_round_trip(self):
        prime = chi(contract(sign_of(tightness_family(7)), 15))
        assert ContractionPoint.from_record(prime.record(), XI_PRIME_COORDS) == prime


class TestContractionPointGuards:
    def test_rejects_unknown_coordinates(self):
        with pytest.raises(ValueError):
            ContractionPoint(XI_COORDS[: len(XI_PRIME_COORDS)], [0] * len(XI_PRIME_COORDS))
        with pytest.raises(ValueError):
            ContractionPoint.from_record({"gamma[0]": 1})

    def test_rejects_a_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            ContractionPoint(XI_COORDS, [0] * len(XI_PRIME_COORDS))
        with pytest.raises(ValueError):
            ContractionPoint(XI_PRIME_COORDS, [0] * len(XI_COORDS))

    def test_rejects_entries_that_are_not_signs(self):
        with pytest.raises(ValueError):
            ContractionPoint.from_record({"alpha[0]": 2})
        with pytest.raises(ValueError):
            ContractionPoint.from_record({"gamma[1]": -2}, XI_PRIME_COORDS)

    def test_operations_check_the_coordinate_layout(self):
        theta = contract(sign_of(tightness_family(7)), 15)
        prime = chi(theta)
        with pytest.raises(ValueError):
            chi(prime)
        with pytest.raises(ValueError):
            s3_on_contraction("(12)", theta)
        with pytest.raises(ValueError):
            contracted_forms("odd")[0].evaluate(prime)


class TestChi:
    def test_merges_parity_strips(self):
        vec = [0] * len(XI_COORDS)
        vec[0] = -1
        vec[XI_COORDS.index("gamma0[2]")] = 1
        prime = chi(ContractionPoint(XI_COORDS, vec))
        assert prime.record() == {"x[0,0]": -1, "gamma[2]": 1}
        for sign in (-1, 1):
            theta = ContractionPoint.from_record({"gamma0[3]": sign, "gamma1[3]": sign})
            assert chi(theta).record() == {"gamma[3]": sign}

    def test_opposite_parity_signs_raise(self):
        vec = [0] * len(XI_COORDS)
        vec[XI_COORDS.index("gamma0[1]")] = 1
        vec[XI_COORDS.index("gamma1[1]")] = -1
        with pytest.raises(ValueError):
            chi(ContractionPoint(XI_COORDS, vec))

    @pytest.mark.parametrize("d", [11, 12, 13, 14])
    def test_agrees_with_the_merged_cell_of_every_ring_point(self, d):
        for p in grid_points(d):
            cell = ring_cell(p, d)
            if cell is not None:
                for sign in (-1, 1):
                    theta = ContractionPoint.from_record({cell: sign})
                    assert chi(theta).record() == {hyperfield._merged_cell(p, d): sign}


class TestContractedForms:
    def test_twenty_forms_each_parity(self):
        for parity in ("even", "odd"):
            forms = contracted_forms(parity)
            assert len(forms) == 20
            assert len({f.name for f in forms}) == 20

    def test_low_forms_agree_across_parities(self):
        even = {f.name: f for f in contracted_forms("even")}
        odd = {f.name: f for f in contracted_forms("odd")}
        for name, form in even.items():
            if "d" not in name.split("[")[1]:
                assert odd[name] == form

    @staticmethod
    def derived(d):
        return tuple(
            ContractedForm(name, hyperfield._contract_form(form, d))
            for name, form in hyperfield._form_specs(d)
        )

    def test_ring_cells_are_read_once_per_reference_degree(self, monkeypatch):
        # Twenty forms at two degrees per parity share one reading of each
        # degree's grid points: 724 calls, where one per form made 14,480.
        calls = collections.Counter()
        real = hyperfield.ring_cell

        def counting(point, d):
            calls[d] += 1
            return real(point, d)

        monkeypatch.setattr(hyperfield, "ring_cell", counting)
        hyperfield._ring_cells.cache_clear()
        for parity in ("even", "odd"):
            assert contracted_forms.__wrapped__(parity) == contracted_forms(parity)
        assert calls == {16: 153, 17: 171, 18: 190, 19: 210}
        hyperfield._ring_cells.cache_clear()

    def test_reference_degree_invariance(self):
        # The descent proof in contracted_forms covers every d >= 12.
        for parity, start in (("even", 12), ("odd", 13)):
            forms = contracted_forms(parity)
            for d in range(start, 61, 2):
                assert self.derived(d) == forms

    def test_degree_eleven_differs_only_on_a_cell_without_points(self):
        # Why MIN_CONTRACTION_DEGREE may stay at 11: the forms derived
        # there differ from the odd ones only on gamma1[3], which holds
        # no grid point at d = 11, so no contraction reads it.
        d = MIN_CONTRACTION_DEGREE
        assert d == 11
        differences = {
            (form.name, XI_COORDS[k])
            for form, reference in zip(self.derived(d), contracted_forms("odd"))
            for k, (c, r) in enumerate(zip(form.coefficients, reference.coefficients))
            if c != r
        }
        assert differences == {("psi[d-3]", "gamma1[3]"), ("psibar[d-3]", "gamma1[3]")}
        assert [p for p in grid_points(d) if ring_cell(p, d) == "gamma1[3]"] == []

    def test_top_edge_contraction_by_hand(self):
        phi3 = next(f for f in contracted_forms("even") if f.name == "phi[3,d-3]")
        expected = {name: 0 for name in XI_COORDS}
        for i in range(4):
            for j in range(4):
                expected[f"x[{i},{j}]"] = 1
                if j <= i:
                    expected[f"r[{i},{j}]"] = 1
        for i in range(4):
            expected[f"alpha[{i}]"] = 1
        assert phi3.coefficients == tuple(expected[name] for name in XI_COORDS)

    def test_column_form_contraction_by_hand(self):
        psi1 = next(f for f in contracted_forms("odd") if f.name == "psi[1]")
        expected = {name: 0 for name in XI_COORDS}
        for i in range(4):
            if i >= 1:
                expected[f"x[{i},0]"] = -1
            expected[f"x[{i},1]"] = 1
            expected[f"t[{i},0]"] = -1
            expected[f"t[{i},1]"] = 1
        expected["beta[0]"] = -1
        expected["beta[1]"] = 1
        assert psi1.coefficients == tuple(expected[name] for name in XI_COORDS)

    def test_evaluation_on_anchor(self):
        theta = contract(sign_of(tightness_family(7)), 15)
        forms = {f.name: f for f in contracted_forms("odd")}
        assert forms["psi[1]"].evaluate(theta) == H
        single = ContractionPoint.from_record({"x[1,0]": 1})
        assert forms["psi[1]"].evaluate(single) == NEGATIVE

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            contracted_forms("both")


def reference_search(point_signs, fixed_signs, size):
    """The search the bitset engine replaced, one form at a time.

    Points go in index order; a node is every point tried below a parent
    with two or more free slots, plus every completion of the last slot.
    A child dies when one slot would remain and some form lacks both
    signs, or when some form lacks a sign no later point can give.
    """
    count, forms = len(point_signs), len(fixed_signs)
    found = []
    nodes = 0

    def signs_of(chosen):
        have = [{v for v in (fixed_signs[f],) if v} for f in range(forms)]
        for k in chosen:
            for f in range(forms):
                if point_signs[k][f]:
                    have[f].add(point_signs[k][f])
        return have

    def descend(chosen, start, slots):
        nonlocal nodes
        if slots == 1:
            for k in range(start, count):
                if all(len(h) == 2 for h in signs_of(chosen + (k,))):
                    nodes += 1
                    found.append(chosen + (k,))
            return
        for k in range(start, count - slots + 1):
            nodes += 1
            have = signs_of(chosen + (k,))
            later = range(k + 1, count)
            dead = False
            for f in range(forms):
                for sign in {-1, 1} - have[f]:
                    if not any(point_signs[m][f] == sign for m in later):
                        dead = True
                if slots == 2 and not have[f]:
                    dead = True
            if not dead:
                descend(chosen + (k,), k + 1, slots - 1)

    descend((), 0, size)
    return found, nodes


@st.composite
def sign_problems(draw):
    """Sign problems of up to 12 points and 70 forms, with supports of 1 to 7.

    Seven points covers the census's six (n = 5) and the next width.

    A form bitset then spans up to three of an int's 30-bit digits.
    Each form copies one of a few random sign columns (fixed sign
    first, then one sign per point). Independent columns over 70 forms
    would leave almost no survivors, while repeated ones keep some
    alive with their forms spread over every digit.
    """
    count = draw(st.integers(1, 12))
    sign = st.sampled_from([-1, 0, 0, 1])
    column = st.lists(sign, min_size=count + 1, max_size=count + 1)
    pool = draw(st.lists(column, min_size=1, max_size=8))
    forms = draw(st.integers(1, 9) | st.integers(10, 70))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=forms, max_size=forms))
    fixed_signs = [pool[c][0] for c in picks]
    point_signs = [[pool[c][k + 1] for c in picks] for k in range(count)]
    size = draw(st.integers(1, 7))
    return point_signs, fixed_signs, size


@st.composite
def mirrored_sign_problems(draw):
    """Sign problems of 6 to 12 points and 2 to 6 forms, closed under a point involution.

    The involution pairs off a random set of points and fixes the rest.
    A base form, with its fixed sign, comes either with its mirror, the
    form that reads at point k what the base form reads at mirror[k], or
    made its own mirror by reading at both points of a pair what it
    reads at the lesser.
    """
    count = draw(st.integers(6, 12))
    points = draw(st.permutations(range(count)))
    pairs = draw(st.integers(0, count // 2))
    mirror = list(range(count))
    for a, b in zip(points[: 2 * pairs : 2], points[1 : 2 * pairs : 2]):
        mirror[a], mirror[b] = b, a
    sign = st.sampled_from([-1, 0, 1])
    form_count = draw(st.integers(2, 6))
    columns, fixed_signs = [], []
    while len(columns) < form_count:
        column = draw(st.lists(sign, min_size=count, max_size=count))
        fixed = draw(sign)
        if len(columns) + 2 <= form_count and draw(st.booleans()):
            columns += [column, [column[mirror[k]] for k in range(count)]]
            fixed_signs += [fixed, fixed]
        else:
            columns.append([column[min(k, mirror[k])] for k in range(count)])
            fixed_signs.append(fixed)
    point_signs = [[column[k] for column in columns] for k in range(count)]
    size = draw(st.integers(1, 5))
    return point_signs, fixed_signs, size, mirror


class TestSignSurvivors:
    @settings(max_examples=300, deadline=None)
    @given(sign_problems())
    def test_agrees_with_the_per_form_search(self, problem):
        point_signs, fixed_signs, size = problem
        found, nodes = sign_survivors(point_signs, fixed_signs, size)
        brute = [
            combo
            for combo in itertools.combinations(range(len(point_signs)), size)
            if all(
                {fixed_signs[f], *(point_signs[k][f] for k in combo)} >= {-1, 1}
                for f in range(len(fixed_signs))
            )
        ]
        assert found == brute
        assert (found, nodes) == reference_search(point_signs, fixed_signs, size)

    def test_contributions_are_read_by_sign(self):
        # Point 0 serves the one form positively, point 1 negatively.
        assert sign_survivors([[5], [-3], [0]], [0], 2) == ([(0, 1)], 3)
        assert sign_survivors([[5], [-3], [0]], [-1], 1) == ([(0,)], 1)

    def test_rejects_empty_supports(self):
        with pytest.raises(ValueError):
            sign_survivors([[1]], [0], 0)


class TestGammaSet:
    def test_support_five_counts(self):
        assert len(gamma_set("even", 5)) == 1283
        assert len(gamma_set("odd", 5)) == 1265

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_small_supports_are_empty(self, size):
        assert gamma_set("even", size) == ()
        assert gamma_set("odd", size) == ()

    def test_members_are_valid_with_support_five(self):
        for parity in ("even", "odd"):
            for theta in gamma_set(parity, 5)[::97]:
                assert theta.is_valid()
                assert theta.is_weakly_valid()
                assert len(theta.positive_support()) == 5

    def test_scalar_evaluator_agrees(self):
        rng = random.Random(2024)
        for parity in ("even", "odd"):
            forms = contracted_forms(parity)
            members = gamma_set(parity, 5)
            vectors = {t.vector for t in members}
            for theta in rng.sample(members, 25):
                assert all(f.evaluate(theta) == H for f in forms)
            free = [name for name in XI_COORDS if name != "x[0,0]"]
            rejected = 0
            while rejected < 100:
                record = {"x[0,0]": -1}
                record.update({name: 1 for name in rng.sample(free, 5)})
                theta = ContractionPoint.from_record(record)
                if theta.vector in vectors:
                    continue
                rejected += 1
                assert any(f.evaluate(theta) != H for f in forms)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_membership_matches_the_form_evaluator(self, parity):
        # Random 5-subsets of the free coordinates are almost never
        # members, so the sample also swaps one coordinate of members
        # for another: those near misses sit on both sides of the line.
        rng = random.Random(f"gamma-{parity}")
        forms = contracted_forms(parity)
        members = {t.vector for t in gamma_set(parity, 5)}
        free = range(1, len(XI_COORDS))
        samples = [frozenset(rng.sample(free, 5)) for _ in range(2000)]
        for vector in rng.sample(sorted(members), 40):
            support = {idx for idx, v in enumerate(vector) if v > 0}
            for _ in range(10):
                out = rng.choice(sorted(support))
                into = rng.choice([idx for idx in free if idx not in support])
                samples.append(frozenset(support - {out} | {into}))
        hits = 0
        for support in samples:
            theta = ContractionPoint(
                XI_COORDS, [-1] + [1 if idx in support else 0 for idx in free]
            )
            in_gamma = theta.vector in members
            hits += in_gamma
            assert in_gamma == all(f.evaluate(theta) == H for f in forms)
        assert 0 < hits < len(samples)

    def test_sorted_and_deterministic(self):
        members = gamma_set("even", 5)
        assert list(members) == sorted(members, key=lambda t: t.vector)

    def test_exceptional_preimage_in_both_parities(self):
        record = {
            "x[0,0]": -1,
            "x[0,3]": 1,
            "x[1,1]": 1,
            "x[3,0]": 1,
            "gamma0[0]": 1,
            "gamma1[0]": 1,
        }
        theta = ContractionPoint.from_record(record)
        for parity in ("even", "odd"):
            members = gamma_set(parity, 5)
            assert theta in members
            doubled = [
                t
                for t in members
                if any(
                    f"gamma0[{k}]" in t.record() and f"gamma1[{k}]" in t.record()
                    for k in range(4)
                )
            ]
            assert doubled == [theta]

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_mirror_listing_matches_the_unmasked_search(self, parity, size):
        # The masked engine lists one support of each mirror pair, those
        # whose mirror starts no earlier; with their mirrors they are the
        # unmasked survivors, tuple for tuple.
        forms = contracted_forms(parity)
        point_signs = [[f.coefficients[idx] for f in forms] for idx in range(1, len(XI_COORDS))]
        origin_signs = [-f.coefficients[0] for f in forms]
        full, _ = sign_survivors(point_signs, origin_signs, size)
        mirror = [image - 1 for image in hyperfield._gamma_mirror(parity)[1:]]
        listed, _ = sign_survivors(point_signs, origin_signs, size, hyperfield.mirror_masks(mirror))
        image = {combo: tuple(sorted(mirror[k] for k in combo)) for combo in full}
        assert listed == [combo for combo in full if image[combo][0] >= combo[0]]
        members = [
            tuple(idx - 1 for idx, v in enumerate(t.vector) if v > 0) for t in gamma_set(parity, size)
        ]
        assert sorted(members) == full

    @settings(max_examples=300, deadline=None)
    @given(mirrored_sign_problems())
    def test_rarest_first_listing_equals_the_unmasked_search(self, problem):
        # The bookkeeping gamma_set runs: the masked listing in rarest-first
        # order, mapped back and closed under the mirror.
        point_signs, fixed_signs, size, mirror = problem
        full, _ = sign_survivors(point_signs, fixed_signs, size)
        assert hyperfield._mirror_closed_survivors(point_signs, fixed_signs, size, mirror) == set(full)

    def test_rarest_first_orders_by_sorted_giver_counts(self):
        # Form 0 has three positive givers, form 1 one of each sign: the
        # keys are [3], [1, 3], [1] and [3], and the tie goes by index.
        point_signs = [[1, 0], [1, -1], [0, 1], [1, 0]]
        assert hyperfield._rarest_first(point_signs) == [2, 1, 0, 3]
        # Coefficients count by sign, as the engine reads them.
        assert hyperfield._rarest_first([[2, 0], [5, -3], [0, 7], [1, 0]]) == [2, 1, 0, 3]

    @pytest.mark.parametrize("parity, nodes", [("even", 15_703), ("odd", 16_191)])
    def test_gamma_search_nodes_at_support_five(self, parity, nodes, monkeypatch):
        # Exact counts of the rarest-first order (281,321 and 281,311 in
        # coordinate order): a slower order fails here, not only in time.
        members = gamma_set(parity, 5)
        counted = []

        def counting(*args):
            found, searched = sign_survivors(*args)
            counted.append(searched)
            return found, searched

        monkeypatch.setattr(hyperfield, "sign_survivors", counting)
        assert hyperfield.gamma_set.__wrapped__(parity, 5) == members
        assert counted == [nodes]

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_mirror_is_the_transpose_of_every_cell(self, parity):
        # The hand rule the derived map must match: gamma0[k] and gamma1[k]
        # swap exactly when d + k is odd.
        d = 0 if parity == "even" else 1

        def hand(name):
            kind, idx = parse_coord(name)
            if kind.startswith("gamma"):
                (k,) = idx
                flip = (d + k) % 2
                return f"gamma{(int(kind[-1]) + flip) % 2}[{k}]"
            kind = {"r": "t", "t": "r", "alpha": "beta", "beta": "alpha"}.get(kind, kind)
            return f"{kind}[{','.join(map(str, idx[::-1]))}]"

        mirror = hyperfield._gamma_mirror(parity)
        assert [XI_COORDS[k] for k in mirror] == [hand(name) for name in XI_COORDS]

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("wrong", ["gamma strips swapped at every k", "alpha[i] sent to beta[i+1]"])
    def test_closure_check_rejects_a_wrong_mirror(self, parity, wrong):
        names = {name: XI_COORDS[k] for name, k in zip(XI_COORDS, hyperfield._gamma_mirror(parity))}
        r = hyperfield.RING_DEPTH
        for k in range(r):
            if wrong.startswith("gamma"):
                names[f"gamma0[{k}]"], names[f"gamma1[{k}]"] = f"gamma1[{k}]", f"gamma0[{k}]"
            else:
                names[f"alpha[{k}]"], names[f"beta[{(k + 1) % r}]"] = f"beta[{(k + 1) % r}]", f"alpha[{k}]"
        perm = tuple(XI_COORDS.index(names[name]) for name in XI_COORDS)
        assert sorted(perm) == list(range(len(XI_COORDS)))
        with pytest.raises(AssertionError, match="is not a contracted form"):
            hyperfield._check_forms_closed(contracted_forms(parity), perm)

    def test_closure_check_rejects_a_map_that_is_no_permutation(self):
        perm = (0,) * len(XI_COORDS)
        with pytest.raises(AssertionError, match="does not permute"):
            hyperfield._check_forms_closed(contracted_forms("even"), perm)

    def test_rejects_unsupported_sizes(self):
        with pytest.raises(ValueError):
            gamma_set("even", 0)
        with pytest.raises(ValueError):
            gamma_set("even", 6)


class TestLambdaSet:
    def test_counts_and_exceptional_support(self):
        lam = lambda_set()
        assert len(lam) == 2290
        # The one merged image of smaller support comes last.
        assert [c for c in lam if len(c.positive_support()) < 5] == [lam[-1]]
        assert lam[-1].positive_support() == (
            "x[0,3]",
            "x[1,1]",
            "x[3,0]",
            "gamma[0]",
        )

    def test_cases_are_valid_support_five(self):
        lam = lambda_set()
        for case in lam[:-1][::53]:
            assert case.is_valid()
            assert len(case.positive_support()) == 5
        assert lam[-1].is_valid()

    def test_cases_are_deduplicated_and_sorted(self):
        lam = lambda_set()
        vectors = [c.vector for c in lam[:-1]]
        assert vectors == sorted(set(vectors))
        assert lam[-1].vector not in vectors

    def test_cases_are_the_merged_images_of_both_parities(self):
        # The list as it was built before it merged bare sign vectors:
        # chi of every member, deduplicated as points, sorted by support.
        images = {chi(theta) for parity in ("even", "odd") for theta in gamma_set(parity, 5)}
        expected = tuple(sorted(images, key=lambda p: (len(p.positive_support()) < 5, p.vector)))
        assert lambda_set.__wrapped__() == expected
        assert all(case.coords is XI_PRIME_COORDS for case in expected)


def hand_image(generator: str, name: str) -> str:
    """The merged coordinate a generator moves a coordinate's value to, by hand.

    (12), the transposition of the axes, transposes every corner block,
    swapping the two top ones, and swaps the edge strips. (13), which
    fixes the bottom edge, reflects the top-left block in its
    antidiagonal, swaps the origin and right corner blocks with their
    rows reversed, and swaps the column strips with the diagonal ones.
    These are the rules the library wrote out before it read the action
    off ``act_point``.
    """
    kind, idx = parse_coord(name)
    if generator == "(12)":
        kind = {"r": "t", "t": "r", "alpha": "beta", "beta": "alpha"}.get(kind, kind)
        idx = idx[::-1]
    elif kind == "r":
        idx = (3 - idx[1], 3 - idx[0])
    else:
        kind = {"x": "t", "t": "x", "alpha": "gamma", "gamma": "alpha"}.get(kind, kind)
        if kind in ("x", "t"):
            idx = (3 - idx[0], idx[1])
    return f"{kind}[{','.join(map(str, idx))}]"


# Each element as a word in the two generators, applied first to last.
HAND_WORDS = {
    "e": (),
    "(12)": ("(12)",),
    "(13)": ("(13)",),
    "(23)": ("(12)", "(13)", "(12)"),
    "(123)": ("(12)", "(13)"),
    "(132)": ("(13)", "(12)"),
}


def hand_permutation(sigma: str) -> tuple[int, ...]:
    """perm[k] is the coordinate whose value the hand word moves to coordinate k."""
    perm = tuple(range(len(XI_PRIME_COORDS)))
    for generator in HAND_WORDS[sigma]:
        step = [0] * len(XI_PRIME_COORDS)
        for source, name in enumerate(XI_PRIME_COORDS):
            step[XI_PRIME_COORDS.index(hand_image(generator, name))] = source
        perm = tuple(perm[k] for k in step)
    return perm


class TestSymmetryAction:
    @pytest.mark.parametrize("d", [11, 12, 22, 23])
    def test_derived_permutations_match_the_hand_rules(self, d):
        for sigma in PERMUTATIONS:
            assert hyperfield._contraction_permutation(sigma, d) == hand_permutation(sigma)

    def test_reference_degree_invariance(self):
        for sigma in PERMUTATIONS:
            table = hyperfield._contraction_permutation(sigma)
            assert hyperfield._contraction_permutation(sigma, 40) == table
            assert hyperfield._contraction_permutation(sigma, 41) == table

    def test_degree_below_the_contraction_raises(self):
        with pytest.raises(ValueError):
            hyperfield._contraction_permutation("(12)", MIN_CONTRACTION_DEGREE - 1)

    def test_unmerged_parity_strips_make_two_images(self, monkeypatch):
        # Without chi's merge, (13) sends each column strip to both parity strips.
        monkeypatch.setattr(hyperfield, "_merged_cell", ring_cell)
        with pytest.raises(AssertionError, match="to both"):
            hyperfield._contraction_permutation.__wrapped__("(13)", 13)

    def test_generators_are_involutions(self):
        for case in lambda_set()[::101]:
            for sigma in ("(12)", "(13)", "(23)"):
                assert s3_on_contraction(sigma, s3_on_contraction(sigma, case)) == case

    def test_group_law_matches_composition(self):
        probe = lambda_set()[123]
        for sig in PERMUTATIONS:
            for tau in PERMUTATIONS:
                assert s3_on_contraction(
                    sig, s3_on_contraction(tau, probe)
                ) == s3_on_contraction(compose(sig, tau), probe)

    def test_compatible_with_grid_action(self):
        rng = random.Random(99)
        for d in (14, 15):
            for _ in range(40):
                s = random_weakly_valid_signs(rng, d)
                base = chi(contract(s, d))
                for sigma in PERMUTATIONS:
                    image = chi(contract(permute_signs(sigma, s, d), d))
                    assert image == s3_on_contraction(sigma, base)

    def test_axis_swap_preserves_the_case_list(self):
        lam = lambda_set()
        vectors = {c.vector for c in lam}
        for case in lam:
            assert s3_on_contraction("(12)", case).vector in vectors
        assert s3_on_contraction("(12)", lam[-1]) == lam[-1]

    def test_corner_exchange_moves_the_origin(self):
        moved = s3_on_contraction("(13)", lambda_set()[-1])
        assert moved.record() == {
            "t[3,0]": -1,
            "t[0,0]": 1,
            "t[2,1]": 1,
            "t[3,3]": 1,
            "alpha[0]": 1,
        }

    def test_unknown_symmetry_raises(self):
        with pytest.raises(ValueError, match="unknown permutation"):
            s3_on_contraction("(14)", lambda_set()[-1])
