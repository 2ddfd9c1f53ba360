"""Exact linear algebra against independent brute-force oracles."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chipsplit.linalg import (
    Poly,
    PrefixKernel,
    _echelon,
    binomial,
    det,
    falling_poly,
    integer_roots_at_or_above,
    kernel_basis,
    poly_det,
    primitive_integer_vector,
    rank,
)
from chipsplit.grid import degree_order, grid_points
from chipsplit.models import tightness_family
from chipsplit.pascal import top_edge_columns

from bareiss_poly import bareiss_poly_det


def det_by_permutation_sum(rows):
    """Leibniz expansion, the slowest correct determinant there is."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += sign * term
    return total


small_int = st.integers(min_value=-9, max_value=9)


def square_matrix(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(square_matrix))
@example([[0, 2, 1], [0, 0, 3], [4, 5, 6]])
@example([[0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 5], [7, 0, 0, 0]])
def test_det_matches_permutation_expansion(rows):
    # The examples swap rows at two and at three elimination steps.
    before = [list(row) for row in rows]
    assert det(rows) == det_by_permutation_sum(rows)
    assert rows == before


def test_det_fixed_values():
    assert det([]) == 1
    assert det([[7]]) == 7
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[6, 4, 1], [4, 6, 4], [1, 4, 6]]) == 50


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(square_matrix))
def test_kernel_vectors_are_killed_by_the_matrix(rows):
    basis = kernel_basis(rows)
    n = len(rows[0])
    assert len(basis) == n - rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
        lead = next(x for x in vec if x != 0)
        assert lead > 0
        assert primitive_integer_vector(vec) in (vec, [-x for x in vec])


def rref_by_fractions(rows):
    """Textbook Gauss-Jordan over Fraction: the RREF and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def kernel_by_fractions(rows):
    """One primitive, leading-positive kernel vector per free column of the RREF."""
    reduced, pivots = rref_by_fractions(rows)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        vec = [Fraction(0)] * len(rows[0])
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        scale = 1
        for x in vec:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [int(x * scale) for x in vec]
        content = reduce(gcd, ints) * (1 if next(x for x in ints if x) > 0 else -1)
        basis.append([x // content for x in ints])
    return basis


def rectangular_matrix(entries, max_rows=6, max_cols=7):
    """Matrices up to max_rows x max_cols, often with repeated or combined rows (rank-deficient)."""

    @st.composite
    def build(draw):
        nrows = draw(st.integers(min_value=1, max_value=max_rows))
        ncols = draw(st.integers(min_value=1, max_value=max_cols))
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
        for _ in range(draw(st.integers(min_value=0, max_value=nrows - 1))):
            a, b, c = (draw(st.integers(min_value=0, max_value=nrows - 1)) for _ in range(3))
            k = draw(st.integers(min_value=-3, max_value=3))
            rows[a] = [k * x + y for x, y in zip(rows[b], rows[c])]
        return rows

    return build()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        rectangular_matrix(small_int),
        rectangular_matrix(st.sampled_from([0, 0, 0, 1, -1, 7, -40, 120])),
    )
)
def test_integer_elimination_matches_fraction_rref(rows):
    before = [list(row) for row in rows]
    _, pivots = rref_by_fractions(rows)
    assert rank(rows) == len(pivots)
    assert kernel_basis(rows) == kernel_by_fractions(rows)
    assert rows == before


def test_kernel_matches_fraction_rref_on_census_kernel_matrices(wide_census_run):
    # The top-edge rows of every tenth support, in sorted order, that
    # the census cells n <= 5, d <= 6 hand to the kernel stage (with
    # the mirrors of the ones it settles), as the stage builds them.
    _, calls, _ = wide_census_run
    supports = sorted((d, tuple(sorted(support))) for support, d, _ in calls if d <= 6)
    assert len(supports) == 6875
    for d, support in supports[::10]:
        columns = top_edge_columns(d)
        points = sorted([(0, 0), *support], key=lambda p: (p[0] + p[1], p[0]))
        rows = [list(row) for row in zip(*(columns[p] for p in points))]
        assert kernel_basis(rows) == kernel_by_fractions(rows), (support, d)


@pytest.mark.parametrize("k", [25, 40])
def test_kernel_matches_fraction_rref_on_tall_top_edge_matrices(k):
    # The support of the degree-(2k + 1) family member, origin included,
    # in (degree, i) order as fundamentality orders it: 2k + 2 rows, k + 3
    # columns and entries up to binomial(2k + 1, k): tall, with large
    # entries, like the degree-499 member's 500 x 252 matrix. Its kernel
    # is the member's line.
    member = tightness_family(k)
    columns = top_edge_columns(2 * k + 1)
    points = sorted((p for p, _ in member), key=degree_order)
    rows = [list(row) for row in zip(*(columns[p] for p in points))]
    basis = kernel_basis(rows)
    assert basis == kernel_by_fractions(rows)
    assert basis == [[-member[p] for p in points]]


def gauss_jordan_kernel(rows):
    """The kernel by fraction-free Gauss-Jordan elimination, and the pivot columns.

    Each pivot step replaces every other row, above and below, by
    (p*row - f*pivot_row) // prev, so every pivot entry ends equal to
    the last pivot D and row r over D is row r of the reduced row
    echelon form. The vector of free column fc holds D at fc and minus
    each pivot row's entry in column fc at that row's pivot column; it
    is made primitive with its first nonzero entry positive.
    """
    m = list(rows)
    width = len(m[0])
    pivots = []
    prev = 1
    for c in range(width):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        p = row[c]
        for i, other in enumerate(m):
            if i != r:
                f = other[c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(other, row)]
        prev = p
        pivots.append(c)
    lead = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [0] * width
        vec[fc] = lead
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        content = gcd(*vec) * (1 if next(x for x in vec if x) > 0 else -1)
        basis.append([x // content for x in vec])
    return basis, pivots


def assert_matches_gauss_jordan(rows):
    basis, pivots = gauss_jordan_kernel(rows)
    assert kernel_basis(rows) == basis, rows
    assert rank(rows) == len(pivots), rows


def test_kernel_matches_gauss_jordan_on_every_census_kernel_matrix(wide_census_run):
    # Every support the census cells n <= 5, d <= 6 hand to the kernel
    # stage, with the mirrors of the ones it settles.
    _, calls, _ = wide_census_run
    count = 0
    for support, d, _ in calls:
        if d <= 6:
            columns = top_edge_columns(d)
            assert_matches_gauss_jordan(list(zip(*(columns[p] for p in [(0, 0), *support]))))
            count += 1
    assert count == 6875


def test_kernel_matches_gauss_jordan_on_top_edge_tables():
    # The top-edge columns of every set of one to three points off the
    # origin at d = 1..7: more rows than columns, often rank-deficient.
    for d in range(1, 8):
        columns = top_edge_columns(d)
        points = [p for p in grid_points(d) if p != (0, 0)]
        for size in (1, 2, 3):
            for combo in combinations(points, size):
                assert_matches_gauss_jordan(list(zip(*(columns[p] for p in combo))))


@st.composite
def awkward_matrix(draw):
    """Rank-deficient matrices up to 7 x 8, 1 x k and k x 1 among them, with zero rows and columns."""
    entries = st.sampled_from([0, 0, 1, -1, 2, -3, 7, -40, 120])
    rows = draw(
        st.one_of(
            rectangular_matrix(entries, max_rows=7, max_cols=8),
            rectangular_matrix(entries, max_rows=1, max_cols=8),
            rectangular_matrix(entries, max_rows=7, max_cols=1),
        )
    )
    for i in draw(st.sets(st.integers(min_value=0, max_value=len(rows) - 1))):
        rows[i] = [0] * len(rows[0])
    for j in draw(st.sets(st.integers(min_value=0, max_value=len(rows[0]) - 1))):
        for row in rows:
            row[j] = 0
    return rows


@st.composite
def column_stream(draw):
    """A pool of integer columns and a sorted list of index sequences into it.

    Some pool columns are combinations of others, so many matrices are
    rank-deficient. The sequences take one or two widths, and sorting
    them gives neighbours of one width that share leading columns, as a
    census listing does.
    """
    height = draw(st.integers(min_value=1, max_value=6))
    entries = st.sampled_from([0, 0, 1, -1, 2, -3, 7, -40])
    pool = draw(st.lists(st.lists(entries, min_size=height, max_size=height), min_size=1, max_size=8))
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a, b = draw(index), draw(index)
        k = draw(st.integers(min_value=-3, max_value=3))
        pool.append([k * x + y for x, y in zip(pool[a], pool[b])])
    index = st.integers(min_value=0, max_value=len(pool) - 1)
    widths = draw(st.lists(st.integers(min_value=1, max_value=height + 2), min_size=1, max_size=2))
    sequence = st.sampled_from(widths).flatmap(lambda w: st.lists(index, min_size=w, max_size=w))
    stream = draw(st.lists(sequence, min_size=1, max_size=12))
    return [tuple(column) for column in pool], sorted(stream)


@settings(max_examples=300, deadline=None)
@given(column_stream())
# Pivots met with a zero entry in the new column (the deferred steps),
# with the stack cut back to two columns and then to one; and a zero
# column, with the width changing from call to call.
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [[0, 1, 2, 3], [0, 1, 3, 2], [0, 3, 1, 2]]))
@example(([(0, 0), (2, 4), (1, 2)], [[0, 1, 2], [1], [1, 2], [2, 0]]))
def test_prefix_kernel_matches_gauss_jordan_on_a_stream(case):
    pool, stream = case
    prefix = PrefixKernel()
    for sequence in stream:
        columns = [pool[i] for i in sequence]
        expected, _ = gauss_jordan_kernel([list(row) for row in zip(*columns)])
        assert prefix.kernel(columns) == expected, (pool, sequence)


@settings(max_examples=500, deadline=None)
@given(awkward_matrix())
@example([[0, 0, 0]])
@example([[0], [0], [5]])
@example([[0, 2, 0, 4], [0, 0, 0, 0], [0, 3, 0, 6]])
def test_kernel_matches_gauss_jordan_on_awkward_matrices(rows):
    assert_matches_gauss_jordan(rows)


def test_kernel_basis_canonical_form():
    # One relation x0 = x1 + x2 leaves a two-dimensional kernel.
    basis = kernel_basis([[1, -1, -1]])
    assert basis == [[1, 1, 0], [1, 0, 1]]
    # Full-rank square matrix has a trivial kernel.
    assert kernel_basis([[1, 0], [0, 1]]) == []
    # Zero rows change nothing, and the zero map keeps every column free.
    assert kernel_basis([[0, 0, 0], [1, -1, -1], [0, 0, 0]]) == basis
    assert kernel_basis([[0, 0]]) == [[1, 0], [0, 1]]


def test_det_and_rank_stay_in_the_integers():
    # A zero leading pivot forces a row swap, and the exact Bareiss
    # divisions must still hand back a plain int.
    value = det([[0, 2, 1], [3, 0, 4], [5, 6, 0]])
    assert type(value) is int and value == 58
    assert type(det([[1, 2], [2, 4]])) is int and det([[1, 2], [2, 4]]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
    assert rank([(1, 0), (0, 1)]) == 2


class CountedInt(int):
    """An int whose products are counted; its arithmetic results stay CountedInts."""

    products = 0

    def __mul__(self, other):
        CountedInt.products += 1
        return CountedInt(int(self) * int(other))

    def __sub__(self, other):
        return CountedInt(int(self) - int(other))

    def __floordiv__(self, other):
        return CountedInt(int(self) // int(other))


def test_elimination_multiplies_only_right_of_each_pivot_column():
    # A wide matrix whose column 1 is twice column 0, so it gets no
    # pivot. Below the pivot row every row is zero left of the pivot
    # column, so each step costs two products per row below and per
    # entry right of that column, and none at or left of it.
    rows = [[2, 4, 1, 3, 5, 7, 1], [1, 2, 3, 0, 2, 1, 4], [3, 6, 2, 5, 1, 1, 2]]
    counted = [[CountedInt(x) for x in row] for row in rows]
    CountedInt.products = 0
    pivots, sign = _echelon(counted)
    height, width = len(rows), len(rows[0])
    assert pivots == [0, 2, 3] and sign == 1
    assert CountedInt.products == sum(2 * (height - 1 - r) * (width - 1 - c) for r, c in enumerate(pivots))
    plain = [list(row) for row in rows]
    assert _echelon(plain) == (pivots, sign)
    assert counted == plain


def test_primitive_integer_vector_fixed_values():
    assert primitive_integer_vector([]) == []
    assert primitive_integer_vector([0, 0, 0]) == [0, 0, 0]
    assert primitive_integer_vector([4, -6, 0]) == [2, -3, 0]
    assert primitive_integer_vector([-4, 6]) == [-2, 3]


def test_binomial_guard():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(small_int, min_size=0, max_size=5),
    st.lists(small_int, min_size=0, max_size=5),
    small_int,
)
def test_poly_ring_ops_agree_with_evaluation(a_coeffs, b_coeffs, x):
    a, b = Poly(a_coeffs), Poly(b_coeffs)
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)
    assert (a - b)(x) == a(x) - b(x)
    assert a * x == x * a == a * Poly.constant(x)


def test_poly_is_unhashable():
    # Poly.constant(1) == 1, so no hash of a Poly could agree with int's.
    with pytest.raises(TypeError):
        hash(Poly.x())


def test_poly_det_matches_scalar_det_after_evaluation():
    x = Poly.x()
    rows = [
        [x + 1, Poly.constant(2), x * x],
        [Poly.constant(0), x - 3, Poly.constant(1)],
        [x, Poly.constant(5), x + 2],
    ]
    p = poly_det(rows)
    for value in (-2, 0, 1, 7, 10):
        scalar_rows = [[entry(value) for entry in row] for row in rows]
        assert p(value) == det(scalar_rows)


# Entries of degree at most 2, zero about half the time, so that pivots
# vanish and the row-swap branch of the Bareiss recurrence runs. Their
# coefficients are small, so that terms cancel, or up to 10^12, so that
# the Kronecker substitution's bound spans many digits.
poly_entry = st.one_of(
    st.just(()),
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12)), max_size=3),
).map(Poly)


@st.composite
def poly_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return [[draw(poly_entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(poly_matrices())
@example([[Poly([]), Poly([1])], [Poly([0, 1]), Poly([2])]])
@example([[Poly([]), Poly([1]), Poly([])], [Poly([]), Poly([]), Poly([1])], [Poly([0, 1]), Poly([]), Poly([])]])
@example(
    [
        [Poly([]), Poly([1]), Poly([]), Poly([])],
        [Poly([]), Poly([]), Poly([0, 1]), Poly([])],
        [Poly([]), Poly([]), Poly([]), Poly([2])],
        [Poly([1, 1]), Poly([]), Poly([]), Poly([])],
    ]
)
def test_poly_det_matches_the_permutation_sum_at_enough_points(rows):
    # The determinant has degree at most 2n, so 2n + 1 points fix it.
    # The last two examples have the zero polynomial at (0, 0) and swap
    # rows at two and at three elimination steps.
    n = len(rows)
    before = [list(row) for row in rows]
    p = poly_det(rows)
    assert rows == before
    assert p.degree <= 2 * n
    assert p == bareiss_poly_det(rows)
    for value in range(-n, n + 1):
        scalar_rows = [[entry(value) for entry in row] for row in rows]
        assert p(value) == det_by_permutation_sum(scalar_rows)


@pytest.mark.parametrize(
    "rows, expected",
    [
        # One coefficient equal to +B or -B, the bound the substitution
        # reads its digit width from: B = 8 sits on a power of two, where
        # one bit less would read it as -8 carried into the next digit.
        ([[Poly([0, 8])]], Poly([0, 8])),
        ([[Poly([-4])]], Poly([-4])),
        ([[Poly([0, 3]), 0], [0, Poly([4])]], Poly([0, 12])),
        ([[Poly([-3]), Poly([])], [Poly([]), Poly([0, 0, 4])]], Poly([0, 0, -12])),
        ([[0, Poly([0, 1, 1])], [Poly([5, 0, 2]), 0]], Poly([0, -5, -5, -2, -2])),
        # The zero polynomial: a zero entry, a zero row, equal rows.
        ([[Poly([])]], Poly([])),
        ([[Poly([1, 2]), Poly([3])], [Poly([]), 0]], Poly([])),
        ([[Poly([0, 1]), Poly([0, 1])], [Poly([0, 1]), Poly([0, 1])]], Poly([])),
        # int entries mixed with Poly entries, and no entries at all.
        ([[2, Poly([0, 1])], [Poly([0, 1]), 3]], Poly([6, 0, -1])),
        ([[1, 2], [3, 4]], Poly([-2])),
        ([[Poly([1, -1]), -7, 0], [2, Poly([0, 0, 1]), 1], [0, 3, Poly([-2])]], None),
        ([], Poly([1])),
    ],
    ids=[
        "plus-B-power-of-two",
        "minus-B",
        "plus-B-diagonal",
        "minus-B-diagonal",
        "antidiagonal",
        "zero-entry",
        "zero-row",
        "equal-rows",
        "ints-mixed-in",
        "ints-only",
        "ints-mixed-in-3x3",
        "empty",
    ],
)
def test_poly_det_edge_cases(rows, expected):
    p = poly_det(rows)
    assert p == bareiss_poly_det(rows)
    if expected is not None:
        assert p == expected


@pytest.mark.parametrize("slope, intercept", [(1, 0), (1, -4), (2, 3), (3, -1)])
def test_falling_poly_is_k_factorial_times_the_binomial(slope, intercept):
    for k in range(6):
        p = falling_poly(slope, intercept, k)
        assert all(type(c) is int for c in p.coeffs), (k, p)
        assert p.degree == k
        for d in range(max(0, -intercept) + k, 25):
            assert p(d) == factorial(k) * binomial(slope * d + intercept, k), (k, d)
    assert not falling_poly(slope, intercept, -1)


def test_integer_root_exclusion():
    x = Poly.x()
    # (d - 50)(d - 3) has the one root >= 42 at 50.
    p = (x - 50) * (x - 3)
    assert integer_roots_at_or_above(p, 42) == [50]
    assert integer_roots_at_or_above(p, 51) == []
    # d^2 + 1 has no integer roots at all.
    assert integer_roots_at_or_above(x * x + 1, -100) == []
    # A pure power of d only vanishes at zero.
    assert integer_roots_at_or_above(x * x, 0) == [0]
    assert integer_roots_at_or_above(x * x, 1) == []


@given(
    st.lists(st.integers(-40, 40), max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any),
    st.integers(-50, 50),
)
def test_integer_roots_match_brute_force(roots, cofactor, lo):
    # The cofactor's roots have modulus at most 6 by Cauchy's bound, so
    # every root of the product lies in [-40, 40].
    x = Poly.x()
    p = Poly(cofactor)
    for r in roots:
        p = p * (x - r)
    expected = [r for r in range(max(lo, -40), 41) if p(r) == 0]
    assert integer_roots_at_or_above(p, lo) == expected


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: det([[1, 2], [3]]), "non-square"),
        (lambda: binomial(-1, 0), "n >= 0"),
        (lambda: integer_roots_at_or_above(Poly([]), 0), "zero polynomial"),
        (lambda: poly_det([[Poly([1]), 2], [3]]), "non-square"),
        # A 2 x 3 matrix always has a kernel, but zip would drop the 3.
        (lambda: kernel_basis([[1, 2, 3], [4, 5]]), "ragged"),
        (lambda: PrefixKernel().kernel([[1, 2], [3], [4, 5]]), "ragged"),
        (lambda: rank([[1, 2, 3], [4, 5]]), "ragged"),
    ],
    ids=[
        "det-non-square",
        "binomial-negative-n",
        "roots-of-zero",
        "poly-det-non-square",
        "kernel-basis-ragged",
        "prefix-kernel-ragged",
        "rank-ragged",
    ],
)
def test_malformed_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
