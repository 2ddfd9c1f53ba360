"""Exact integer linear algebra, plus univariate polynomials.

Everything in this module is deterministic and exact. Matrices are
sequences of integer rows, and dense polynomials have integer
coefficients too. One fraction-free elimination (Bareiss) decides
every fact about a matrix, in two forms. ``_echelon`` eliminates a copy
of the caller's rows for ``det`` and ``rank``, and ``poly_det`` reads a
polynomial determinant off one integer ``det`` by Kronecker
substitution. ``PrefixKernel`` takes the same step one column at a
time and is the one kernel routine: ``kernel_basis`` runs one on a
single matrix, and the census runs one over a stream of matrices that
share their leading columns, keeping each column's elimination while
the next matrix still starts with it. There is
deliberately no float or Fraction anywhere; the certificates produced
by the classification machinery quote these numbers verbatim.
"""

from __future__ import annotations

from math import comb, gcd, isqrt
from typing import Sequence

Row = Sequence[int]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with out-of-range indices collapsing to zero.

    The Pascal-form coefficient tables index binomials by grid positions
    that routinely step outside [0, n]; the convention everywhere in this
    package is binomial(n, k) = 0 whenever k < 0 or k > n. n must be
    nonnegative.
    """
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def det(rows: Sequence[Row]) -> int:
    """Determinant of a square integer matrix: ``_echelon``'s signed last pivot."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    pivots, sign = _echelon(m)
    return sign * m[-1][-1] if len(pivots) == n else 0


def _echelon(m: list[list]) -> tuple[list[int], int]:
    """Fraction-free forward elimination of an integer matrix, in place.

    Returns the pivot columns and the sign of the row swaps; row r is
    then the pivot row of the r-th pivot, and the rows below the last
    pivot are zero. Each step takes pivot p at (r, c), searching the
    rows below only when (r, c) is zero. Below row r, where every entry
    left of c is already zero, it sets each entry a right of c to
    (p*a - f*b) // prev, with f the row's entry at c, b the pivot row's
    entry above a and prev the previous pivot, and then f to 0. Every
    entry stays a minor of the input, so each division is exact, and
    the last pivot of a square matrix is its determinant up to the sign
    (Bareiss, Math. Comp. 1968).
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    height = len(m)
    width = len(m[0]) if m else 0
    for c in range(width):
        r = len(pivots)
        if r == height:
            break
        row = m[r]
        p = row[c]
        if not p:
            pivot = next((i for i in range(r + 1, height) if m[i][c]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], row
            row = m[r]
            p = row[c]
            sign = -sign
        for i in range(r + 1, height):
            other = m[i]
            f = other[c]
            for j in range(c + 1, width):
                other[j] = (p * other[j] - f * row[j]) // prev
            other[c] = 0
        prev = p
        pivots.append(c)
    return pivots, sign


def _check_rows(rows: Sequence[Row]) -> None:
    """Refuse a matrix whose rows differ in length."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix: its rows differ in length")


def rank(rows: Sequence[Row]) -> int:
    """Rank of an integer matrix."""
    _check_rows(rows)
    return len(_echelon([list(row) for row in rows])[0])


def primitive_integer_vector(vec: Sequence[int]) -> list[int]:
    """Divide an integer vector by its content, keeping direction.

    The zero vector maps to itself. Sign is preserved, not normalized;
    callers pick their own sign convention.
    """
    content = gcd(*vec)
    return [x // content for x in vec] if content else list(vec)


def kernel_basis(rows: Sequence[Row]) -> list[list[int]]:
    """Basis of the right kernel of a nonempty integer matrix, as primitive vectors.

    One vector per free column, in column order: the column's vector in
    the reduced row echelon form, made primitive with its first nonzero
    entry positive. A fresh ``PrefixKernel`` computes it on the columns.
    """
    _check_rows(rows)
    return PrefixKernel().kernel(list(zip(*rows)))


def _leading_positive(vec: list[int]) -> list[int]:
    """A nonzero integer vector divided by its content, its first nonzero entry made positive."""
    content = gcd(*vec)
    if next(x for x in vec if x) < 0:
        content = -content
    return [x // content for x in vec]


class PrefixKernel:
    """The kernel of each matrix in a stream, sharing the work on common leading columns.

    ``kernel(columns)`` takes a matrix as its list of integer columns,
    all of one length, and returns a basis of its right kernel: one
    vector per free column, in column order, each the free column's
    vector in the reduced row echelon form made primitive, its first
    nonzero entry positive. The basis is thus canonical for a given
    column order.

    It is ``_echelon``'s Bareiss step applied to the transposed matrix,
    one column at a time. A stack keeps one level per column. Level k
    holds column k reduced against the pivot levels below it, followed
    by the combination of the original columns that the reduced column
    equals: the matrix's columns with an identity matrix appended, both
    reduced alike. A new column v is reduced by each pivot level r in
    order: v becomes (p*v - f*r) // prev, with p the pivot entry of r,
    f the entry of v in r's pivot row and prev the pivot before p. Every
    entry stays a minor of the appended matrix, so each division is
    exact (Bareiss, Math. Comp. 1968). A column that reduces to zero is
    a kernel level, the free column k. Its combination is nonzero at k
    and otherwise only at the pivot columns before k, which are
    independent, so it is a multiple of k's echelon vector. Otherwise
    the reduced column's first nonzero entry is its pivot.

    A call cuts the stack back to the longest run of leading columns
    that the matrix shares with the previous call's, or to nothing if
    the matrices differ in width (their number of columns), then adds
    the rest. Matrices met in lexicographic order of their columns, as
    the census lists its supports, thus pay one column's elimination
    per new listing prefix. One call's columns must share a length, and
    each new column is checked against the first, so a ragged matrix
    raises ValueError. Successive calls may differ in that length, as
    the census's do when its top rows change; a column of another
    length equals no kept column, so such a call keeps nothing.
    """

    def __init__(self):
        self._columns: list[Row] = []
        # Per column: its pivot row, or None for a kernel level, and its
        # reduced column followed by its combination.
        self._levels: list[tuple[int | None, list[int]]] = []

    def kernel(self, columns: Sequence[Row]) -> list[list[int]]:
        keep = 0
        if len(columns) == len(self._columns):
            for old, new in zip(self._columns, columns):
                if old != new:
                    break
                keep += 1
        del self._columns[keep:], self._levels[keep:]
        height = len(columns[0]) if columns else 0
        for column in columns[keep:]:
            if len(column) != height:
                raise ValueError("ragged matrix: its columns differ in length")
            self._levels.append(self._reduce(column, len(columns)))
            self._columns.append(column)
        return [_leading_positive(reduced[-len(columns):]) for row, reduced in self._levels if row is None]

    def _reduce(self, column: Row, width: int) -> tuple[int | None, list[int]]:
        """Column k = len(levels), reduced against every pivot level, then its combination.

        A step whose f is zero only scales v by p / prev. It is
        deferred: the next step that runs divides by the pivot before
        the deferred ones, which telescope, and whatever scale is left
        at the end is applied once.
        """
        k = len(self._levels)
        vec = [*column, *[0] * k, 1, *[0] * (width - k - 1)]
        prev = last = 1
        for row, reduced in self._levels:
            if row is None:
                continue
            last = p = reduced[row]
            f = vec[row]
            if f:
                vec = [(p * a - f * b) // prev for a, b in zip(vec, reduced)]
                prev = p
        if last != prev:
            vec = [a * last // prev for a in vec]
        pivot = next((r for r in range(len(column)) if vec[r]), None)
        return pivot, vec


class Poly:
    """Dense univariate polynomial with integer coefficients.

    Coefficient order is ascending: Poly([1, 2]) is 1 + 2x. Supports just
    enough arithmetic for symbolic determinants in one indeterminate
    (the grid degree d): ring operations, evaluation, and an integer-root
    exclusion test.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> Poly:
        return cls([c])

    @classmethod
    def x(cls) -> Poly:
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        """Whether the polynomial is nonzero, so ``not p`` tests for zero as on an int."""
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            other = Poly.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: Poly | int) -> Poly:
        return self + (-other)

    def __rsub__(self, other: int) -> Poly:
        return Poly.constant(other) + (-self)

    def __mul__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            return Poly([c * other for c in self.coeffs])
        if not self or not other:
            return Poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self) -> str:
        if not self:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def falling_poly(slope: int, intercept: int, k: int) -> Poly:
    """The falling factorial (slope*d + intercept)^(k), an integer polynomial in d.

    That is k! * binomial(slope*d + intercept, k); the zero polynomial
    for k < 0.
    """
    if k < 0:
        return Poly([])
    coeffs = [1]
    for t in range(k):
        # Multiply by slope*d + (intercept - t).
        coeffs = [a * (intercept - t) + slope * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return Poly(coeffs)


def poly_det(rows: Sequence[Sequence[Poly | int]]) -> Poly:
    """Determinant of a square matrix of Polys and ints, by Kronecker substitution.

    Each entry is evaluated at X = 2^K, the integer ``det`` runs on the
    values, and the coefficients are read back as the balanced base-X
    digits of the result (Kronecker 1882; Schonhage, J. Complexity
    1982). Every coefficient of the determinant is at most B in modulus,
    B the product over the rows of each row's summed l1 coefficient
    norms: expanding that product gives every permutation's term, and
    the l1 norm of a product is at most the product of the l1 norms. K
    is the least with 2^(K-1) > B. This is exact because evaluation is a
    ring homomorphism Z[x] -> Z, so the integer determinant is the
    polynomial determinant at X, and every coefficient lies in
    (-X/2, X/2), where balanced base-X digits are unique.
    """
    bound = 1
    for row in rows:
        bound *= sum(sum(map(abs, entry.coeffs)) if isinstance(entry, Poly) else abs(entry) for entry in row)
    shift = bound.bit_length() + 1
    x = 1 << shift
    value = det([[entry(x) if isinstance(entry, Poly) else entry for entry in row] for row in rows])
    coeffs = []
    while value:
        digit = value % x
        if 2 * digit >= x:
            digit -= x
        coeffs.append(digit)
        value = (value - digit) >> shift
    return Poly(coeffs)


def integer_roots_at_or_above(p: Poly, lo: int) -> list[int]:
    """All integer roots r >= lo of a nonzero integer polynomial.

    Divides out the content of the coefficients and strips any power of
    x (whose root 0 only matters if lo <= 0). By the rational root
    theorem every other integer root divides the constant term a_0, and
    by Fujiwara's bound (1916) it has modulus at most B, the least power
    of two with |a_n| (B/2)^k >= |a_{n-k}| for k = 1..n. So the
    candidates are the divisors k <= min(isqrt(|a_0|), B) of a_0 and
    their cofactors up to B, with either sign.
    """
    if not p:
        raise ValueError("the zero polynomial vanishes everywhere")
    ints = primitive_integer_vector(p.coeffs)
    shift = 0
    while ints[0] == 0:
        ints.pop(0)
        shift += 1
    roots = [0] if shift and lo <= 0 else []
    n, const = len(ints) - 1, abs(ints[0])
    bound = 1
    while any(abs(ints[n]) * bound**k < abs(ints[n - k]) * 2**k for k in range(1, n + 1)):
        bound *= 2
    reduced = Poly(ints)
    for k in range(1, min(isqrt(const), bound) + 1):
        if const % k == 0:
            for r in {k, const // k}:
                if r <= bound:
                    roots += [s for s in (r, -r) if s >= lo and reduced(s) == 0]
    return sorted(roots)
