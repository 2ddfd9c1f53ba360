"""Pascal-equation solutions, retraction, and the outcome criterion.

A linear form sum c_p w_p over the degree-d triangle is constant on
outcomes of chipsplitting games exactly when its coefficients satisfy
the Pascal relation c_{i,j} = c_{i+1,j} + c_{i,j+1} away from the top
edge. The solution space has dimension d + 1 and three useful bases:

* left-column forms, the solutions that are a delta on the column i = 0;
* bottom-row forms, their transposes, a delta on the row j = 0;
* top-edge forms, a delta on the top diagonal i + j = d.

A configuration reachable from the empty one is called an outcome, and
the criterion is that every top-edge form vanishes on it. The retraction
walks an outcome back down one degree at a time by undoing the forced
moves along its top diagonal, which yields the reaching game itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .grid import ChipConfiguration, Coord, Game, Value, check_fits, check_inside, degree_order
from .linalg import binomial, kernel_basis


@dataclass(frozen=True)
class PascalForm:
    """One solution of the Pascal equations on the degree-d triangle.

    family is one of "left-column", "bottom-row", "top-edge"; the index
    is the column/row position k for the first two and the top-edge point
    (a, b) for the third.
    """

    family: str
    index: int | tuple[int, int]
    d: int

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("forms need a nonnegative ambient degree")
        if self.family in ("left-column", "bottom-row"):
            k = self.index
            if not isinstance(k, int) or not 0 <= k <= self.d:
                raise ValueError(f"{self.family} index must be an integer in [0, {self.d}], got {k!r}")
        elif self.family == "top-edge":
            if not (isinstance(self.index, tuple) and len(self.index) == 2):
                raise ValueError("top-edge forms are indexed by a point (a, b)")
            a, b = self.index
            if a < 0 or b < 0 or a + b != self.d:
                raise ValueError(f"top-edge index {self.index} must lie on the diagonal a + b = {self.d}")
        else:
            raise ValueError(f"unknown form family {self.family!r}")

    def coefficient(self, i: int, j: int) -> int:
        """The coefficient at grid point (i, j); zero off the triangle."""
        if i < 0 or j < 0 or i + j > self.d:
            return 0
        if self.family == "top-edge":
            a, _ = self.index
            return binomial(self.d - i - j, a - i)
        if self.family == "bottom-row":  # the transpose of the left-column form
            i, j = j, i
        k = self.index
        c = binomial(i, k - j)
        return -c if (k + j) % 2 else c

    def evaluate(self, config: ChipConfiguration) -> Value:
        check_fits(config, self.d)
        total = Fraction(0)
        for (i, j), v in config:
            c = self.coefficient(i, j)
            if c:
                total += c * Fraction(v)
        return int(total) if total.denominator == 1 else total

    def label(self) -> str:
        return f"{self.family}[{self.index}]"


def left_column_form(k: int, d: int) -> PascalForm:
    """The Pascal solution restricting to the delta at (0, k) on the column i = 0."""
    return PascalForm("left-column", k, d)


def bottom_row_form(k: int, d: int) -> PascalForm:
    """The Pascal solution restricting to the delta at (k, 0) on the row j = 0."""
    return PascalForm("bottom-row", k, d)


def top_edge_form(a: int, b: int, d: int) -> PascalForm:
    """The Pascal solution restricting to the delta at (a, b) on the top edge."""
    return PascalForm("top-edge", (a, b), d)


def all_forms(d: int) -> list[PascalForm]:
    """The 3(d + 1) forms of all three families on the degree-d triangle."""
    forms: list[PascalForm] = []
    forms += [left_column_form(k, d) for k in range(d + 1)]
    forms += [bottom_row_form(k, d) for k in range(d + 1)]
    forms += [top_edge_form(a, d - a, d) for a in range(d + 1)]
    return forms


class _TopEdgeTable(dict):
    """The top-edge columns of one degree, each built on its first lookup.

    The column of (i, j) holds binomial(d - i - j, a - i) for a = 0 .. d:
    row d - i - j of Pascal's triangle, shifted down by i. A point off
    the triangle raises KeyError.
    """

    def __init__(self, d: int):
        super().__init__()
        self.d = d

    def __missing__(self, point: Coord) -> tuple[int, ...]:
        i, j = point
        m = self.d - i - j
        if i < 0 or j < 0 or m < 0:
            raise KeyError(point)
        column = self[point] = (0,) * i + tuple(binomial(m, k) for k in range(m + 1)) + (0,) * j
        return column


# One table is kept, and five readers share it: the pairing test,
# ``models.fundamentality``, the census's ``enumeration._rank_settler``,
# ``outcome_space`` and ``top_edge_values`` (so ``is_outcome``).  Each
# reads the columns of the points it is given, so a column is built
# only when first read: a degree-499 outcome reads 252 of the table's
# 125,250 columns.  The sweep walks one degree at a time, so it starts
# each table once; the census walks cells support size first, so it
# starts a table at every cell, and ``decompose`` starts one each time
# its degree falls.
@lru_cache(maxsize=1)
def top_edge_columns(d: int) -> dict[Coord, tuple[int, ...]]:
    """Each point's coefficients in the top-edge forms of degree d, built on demand."""
    return _TopEdgeTable(d)


def top_edge_values(config: ChipConfiguration, d: int | None = None) -> list[Value]:
    """Evaluate all top-edge forms of the degree-d triangle, a = 0 .. d.

    Adds each entry times its point's column of ``top_edge_columns(d)``,
    whose nonzero coefficients are those of a = i .. d - j; int and
    Fraction entries take the same path, and an integral total is an int.
    """
    if d is None:
        d = config.ambient if config.ambient is not None else max(config.degree, 0)
    check_fits(config, d)
    columns = top_edge_columns(d)
    totals: list[Value] = [0] * (d + 1)
    for (i, j), v in config:
        for a, c in enumerate(columns[(i, j)][i : d - j + 1], i):
            totals[a] += c * v
    return [int(t) if t.denominator == 1 else t for t in totals]


def retract(config: ChipConfiguration) -> tuple[ChipConfiguration, Game]:
    """Undo the forced moves along the top diagonal of an integer configuration.

    For a configuration of degree e >= 1 whose top diagonal has vanishing
    alternating sum, there is exactly one game supported on the diagonal
    of degree e - 1 whose effect reproduces the top diagonal; the result
    is the configuration with that effect removed (degree < e) together
    with the forced game. Raises when the alternating sum obstructs.
    """
    e = config.degree
    if e < 1:
        raise ValueError("retraction needs a configuration of degree at least 1")
    if not config.is_integral():
        raise ValueError("retraction is defined for integer configurations")
    if config.alternating_top_sum() != 0:
        raise ValueError("top diagonal has nonzero alternating sum, no retraction exists")
    multiplicities = []
    previous = 0
    for k in range(e):
        m = config[(k, e - k)] - previous
        multiplicities.append(m)
        previous = m
    forced = Game({(k, e - 1 - k): m for k, m in enumerate(multiplicities)})
    predecessor = config - forced.total_effect()
    if predecessor.degree >= e:
        raise AssertionError("retraction failed to lower the degree")
    return predecessor, forced


def is_outcome(config: ChipConfiguration, d: int | None = None) -> bool:
    """Whether the configuration is reachable from the empty one.

    Tests the vanishing of every top-edge form at the ambient level d,
    which defaults to the configuration's own degree. Works for rational
    configurations too (reachability by a rational combination of moves).
    A nonzero configuration that does not fit in degree d raises.
    """
    if not config:
        return True
    if d is None:
        d = config.ambient if config.ambient is not None else config.degree
    return all(v == 0 for v in top_edge_values(config, d))


def outcome_witness(config: ChipConfiguration) -> Game | None:
    """A game reaching the configuration from nothing, or None.

    This is the retraction route: peel the top diagonal down degree by
    degree and collect the forced moves. It is an independent check of
    the top-edge-form criterion and only applies to integer
    configurations.
    """
    if not config.is_integral():
        raise ValueError("witness games exist for integer configurations only")
    game = Game()
    current = config
    while current.degree >= 1:
        if current.alternating_top_sum() != 0:
            return None
        current, forced = retract(current)
        game = game + forced
    if current:
        return None
    return game


def outcome_space(support: frozenset[Coord] | set[Coord], d: int) -> list[ChipConfiguration]:
    """Basis of the space of rational outcomes supported inside a point set.

    Solves the top-edge vanishing conditions restricted to the given
    support. Basis vectors are primitive integer configurations; each is
    normalized so its entry at the origin (when present in the support)
    is nonpositive, and by a positive leading entry otherwise.
    """
    points = sorted(support, key=degree_order)
    check_inside(points, d)
    if not points:
        return []
    columns = top_edge_columns(d)
    rows = list(zip(*(columns[p] for p in points)))
    basis = []
    for vec in kernel_basis(rows):
        entries = {p: v for p, v in zip(points, vec) if v != 0}
        config = ChipConfiguration(entries, ambient=d)
        origin = config[(0, 0)]
        if origin > 0:
            config = -config
        basis.append(config)
    return basis
