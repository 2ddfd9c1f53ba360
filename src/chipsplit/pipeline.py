"""Elimination pipeline for the support-five contraction cases.

Each merged contraction record leaves a five-point positive support
pattern on the grid: corner coordinates pin exact points, strip
coordinates leave one point somewhere along an edge or top diagonal.
The pipeline shows that for every ambient degree d >= 42 none of these
patterns carries a valid outcome, by running each case through four
eliminators and reporting which one fires:

* invertibility: the greedy column pairing from the exclusion criterion,
  carried out symbolically. Strip positions become bounded integer
  variables; scenarios enumerate how their columns can sit relative to
  the fixed corner clusters, and every scenario must end with invertible
  pairing blocks. The walk that cuts a cluster into blocks
  (``criteria.greedy_blocks``) and the closed-form block shapes
  (``criteria.block_shape``) are the ones the census and the sweep use;
  this module adds the sign of the two-and-one guard over all admissible
  values, and for larger blocks an exact determinant that is an
  integer polynomial in one symbol once each row is scaled, checked to
  have no admissible integer root. These blocks and the special stage's
  slice share one symbolic toolkit: exact bounds of a linear ``Sym``
  over a box (``_extremes``), pairing entries as falling factorials
  (``_entry``, cached, since a full run asks 4,206 times for 207
  distinct), the row scaling (``_scaled_row``) and one determinant
  routine (``_pairing_det``). Its grids, 217 in a full run, go to
  ``linalg.poly_det``, which reads each polynomial determinant off one
  integer determinant by Kronecker substitution (0.047 s of Bareiss
  elimination on polynomial entries became 0.008 s, raw, on a 2-vCPU
  Xeon, with identical polynomials). A block verdict is a pure
  function of the region's first row, the block's start column and
  width, and its points, and is cached under that key, because a full
  run asks for 38,858 verdicts on only 620 distinct blocks; the block's
  rows are built only on a miss. A moved point's placement and column
  kind depend only on the point, its variable's column expression and
  the choice, so they are cached across attempts (a full run asks
  6,695 times for 267 distinct); the fixed points are classified once
  per attempt. A scenario fails exactly when one of its regions does, and a
  region's failures depend only on the points in it, so an attempt is
  decided region by region, never by the scenarios they combine into.
  A region's content list is a pure function of the region, its fixed
  points, the carriers placed in it and, for the low and top windows,
  the carrier count, so each region is decided once under that key: a
  full run's 3,782 attempts ask 14,321 times for 2,242 distinct
  regions, whose 14,856 contents each run the greedy walk. A full run
  does not run the stage on a case whose (12) image it has already
  eliminated (``pipeline_summary``); run on every case alone, the stage
  makes 7,041 attempts.
  The points of ``cell_possibilities`` and ``_placed_carrier`` are
  shared objects, so most cache probes compare them by identity.
* symmetry: the same argument after moving the support by a triangle
  symmetry. The image pattern includes the permuted origin, and a
  successful pairing there excludes any outcome on the original support
  positions as well, because the criterion is blind to entry signs.
  An attempt also tries the transposed patterns, those of the (12)sigma
  image, so the stage tries one image per coset of (12): (13), (23).
* hexagon: if for every admissible strip position some hexagon instance
  contains the whole support, a compatible valid outcome would have
  degree far below d, contradicting its top-degree points. The four
  instances are (d', ell1, ell2) hexagons of ``criteria.in_hexagon``:
  small (6, 7, 7), thirds (t, t, t), wide_i (6, 7, d - t + 1) and
  wide_j (6, d - t + 1, 7), with t = d // 3. The wide ones are
  admissible (d' + ell1 + ell2 <= d) from d = 42 on, the pipeline's
  floor. Coverage is exact, on the bit masks of instances that contain
  each strip position, and decided at d = 42: ``hexagon_eliminates``
  proves the masks are the same at every d >= 42.
* special: arguments for what survives, certified case by case: a
  subtraction for the one case of smaller support, and for the last
  support-five case a slice whose patterns tile gamma[1]'s range, r + 2
  of them at ring depth r.

Verdicts carry enough detail to re-check the certificate, and the
module-level report aggregates counts per stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cache, reduce
from math import factorial
from operator import and_, itemgetter
from typing import NamedTuple

from .criteria import block_shape, greedy_blocks, in_hexagon
from .linalg import Poly, falling_poly, integer_roots_at_or_above, poly_det
from .hyperfield import (
    RING_DEPTH,
    ContractionPoint,
    _contraction_permutation,
    lambda_set,
    parse_coord,
    s3_on_contraction,
)
from .models import tightness_family
from .pascal import is_outcome

# Where the hexagon stage's wide instances become admissible; not a ring depth.
D_FLOOR = 42


# ---------------------------------------------------------------------------
# Linear expressions in the ambient degree and the strip variables.


def _merge(terms):
    out = {}
    for name, coeff in terms:
        out[name] = out.get(name, 0) + coeff
    return tuple(sorted((n, c) for n, c in out.items() if c))


class Sym(NamedTuple):
    """Integer value of the form dc*d + c + sum of coeff*var.

    In the pairing attempts, variables stand for strip positions and
    float-group bases, which all range over the strip box; the special
    slice puts its own symbol e in the degree slot. A Sym is a plain
    tuple underneath, so the block-verdict cache hashes and compares its
    keys in C; ``+`` and ``-`` are the symbolic operations, not tuple
    concatenation.
    """

    dc: int = 0
    c: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def const(n: int) -> Sym:
        return Sym(0, n)

    @staticmethod
    def dee(offset: int = 0) -> Sym:
        return Sym(1, offset)

    @staticmethod
    def var(name: str) -> Sym:
        return Sym(0, 0, ((name, 1),))

    def __add__(self, other: Sym) -> Sym:
        # Terms are kept merged, so a side without terms needs no merge.
        if self.terms and other.terms:
            terms = _merge(self.terms + other.terms)
        else:
            terms = self.terms or other.terms
        return Sym(self.dc + other.dc, self.c + other.c, terms)

    def __sub__(self, other: Sym) -> Sym:
        return self + other.scaled(-1)

    def scaled(self, k: int) -> Sym:
        # Scaling by a nonzero k keeps merged terms sorted and nonzero.
        if not k:
            return Sym()
        return Sym(k * self.dc, k * self.c, tuple((n, k * c) for n, c in self.terms))

    def shifted(self, n: int) -> Sym:
        return Sym(self.dc, self.c + n, self.terms)

    @property
    def is_const(self) -> bool:
        return self.dc == 0 and not self.terms

    def subst(self, mapping: dict[str, Sym]) -> Sym:
        out = Sym(self.dc, self.c)
        for name, coeff in self.terms:
            if name in mapping:
                out = out + mapping[name].scaled(coeff)
            else:
                out = out + Sym(0, 0, ((name, coeff),))
        return out


def _extremes(expr: Sym, floor: int, box: tuple[Sym, Sym]) -> tuple[int | None, int | None]:
    """Exact (min, max) of the expression over symbol >= floor and every variable in the box.

    The symbol is the one a Sym counts in ``dc``; the box's two ends are
    Syms in that symbol alone, with the low end at most the high one at
    every admissible symbol value. Substituting each variable's minimising
    (maximising) end leaves a linear form in the symbol, whose minimum
    (maximum) sits at the floor or is unbounded, reported as None. This
    is exact because the expression is linear and its variables range
    independently.
    """
    low_slope = high_slope = expr.dc
    low = high = expr.c
    for _, coeff in expr.terms:
        low_end, high_end = box if coeff > 0 else box[::-1]
        low_slope += coeff * low_end.dc
        low += coeff * low_end.c
        high_slope += coeff * high_end.dc
        high += coeff * high_end.c
    return (
        low_slope * floor + low if low_slope >= 0 else None,
        high_slope * floor + high if high_slope <= 0 else None,
    )


# Every strip position and float base ranges over [r, d - (2r - 1)], r = RING_DEPTH.
_STRIP_BOX = (Sym.const(RING_DEPTH), Sym.dee(-(2 * RING_DEPTH - 1)))


def _sign_for_all(expr: Sym, floor: int, box: tuple[Sym, Sym]) -> int | None:
    """Sign of the expression over symbol >= floor and every variable in the box.

    Returns -1, 0, or +1 when the sign is constant on the whole domain
    and None when it can change, from the exact ``_extremes`` there.
    """
    lo, hi = _extremes(expr, floor, box)
    if lo == hi == 0:
        return 0
    if lo is not None and lo > 0:
        return 1
    if hi is not None and hi < 0:
        return -1
    return None


# ---------------------------------------------------------------------------
# Possibility lists: where a support point compatible with a coordinate
# can sit on the degree-d triangle.


class SymPoint(NamedTuple):
    i: Sym
    j: Sym

    def transposed(self) -> SymPoint:
        return SymPoint(self.j, self.i)

    def subst(self, mapping: dict[str, Sym]) -> SymPoint:
        return SymPoint(self.i.subst(mapping), self.j.subst(mapping))

    def variables(self) -> set[str]:
        return {name for name, _ in self.i.terms + self.j.terms}


@cache
def cell_possibilities(name: str) -> tuple[SymPoint, ...]:
    """Candidate grid positions for a support point seen in this cell.

    Corner cells pin one point. Strip cells offer a generic position,
    whose variable is named after the cell, plus the near-top positions
    above the strip box. Cached, so that the attempts share one object
    per point and the caches below mostly compare points by identity;
    only the transposed points of a flipped attempt are built afresh.
    """
    kind, idx = parse_coord(name)
    var = Sym.var("m_" + name)
    near_top = range(RING_DEPTH, 2 * RING_DEPTH - 1)
    if kind == "x":
        i, j = idx
        return (SymPoint(Sym.const(i), Sym.const(j)),)
    if kind == "r":
        i, j = idx
        return (SymPoint(Sym.const(i), Sym.dee(-(RING_DEPTH - 1 + i - j))),)
    if kind == "t":
        i, j = idx
        return (SymPoint(Sym.dee(-(RING_DEPTH - 1 + j - i)), Sym.const(j)),)
    if kind == "alpha":
        (i,) = idx
        out = [SymPoint(Sym.const(i), var)]
        out += [SymPoint(Sym.const(i), Sym.dee(-e)) for e in near_top[i:]]
        return tuple(out)
    if kind == "beta":
        (j,) = idx
        out = [SymPoint(var, Sym.const(j))]
        out += [SymPoint(Sym.dee(-e), Sym.const(j)) for e in near_top[j:]]
        return tuple(out)
    if kind == "gamma":
        (k,) = idx
        out = [SymPoint(var, Sym.dee(-k) - var)]
        out += [SymPoint(Sym.dee(-e), Sym.const(e - k)) for e in near_top[k:]]
        return tuple(out)
    raise ValueError(f"unknown cell {name!r}")


# ---------------------------------------------------------------------------
# The symbolic greedy pairing.


def _column_variables(points: list[SymPoint]) -> list[tuple[str, Sym]]:
    """Variables appearing in column expressions, with those expressions."""
    out = []
    seen = set()
    for p in points:
        for name, coeff in p.i.terms:
            if name not in seen:
                if abs(coeff) != 1:
                    raise AssertionError(f"unexpected column coefficient for {name}")
                seen.add(name)
                out.append((name, p.i))
    return out


def _partitions(items: list[int]):
    """Every set partition of items, each once: the first item joins each
    block of a partition of the rest in turn, then stands alone."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        for k in range(len(partition)):
            yield partition[:k] + [[first] + partition[k]] + partition[k + 1 :]
        yield [[first]] + partition


def _group_offsets(size: int):
    """Every offset chain of a float group of the given size.

    The lowest member sits at 0, in any place of the group, and
    neighbours are at most 5 apart once sorted.
    """
    for chain in itertools.product(range(5 * (size - 1) + 1), repeat=size):
        ordered = sorted(chain)
        if ordered[0] == 0 and all(b - a <= 5 for a, b in zip(ordered, ordered[1:])):
            yield chain


@cache
def _structures(n_vars: int) -> tuple:
    """Every way to assign the column variables to regions.

    A placement scenario attaches each variable to the low cluster at an
    explicit column, one of the 5n from the strip box's low end, to the top
    cluster at an explicit distance from d, one of the 5n from the box's top
    end, or lets it float; floating variables are grouped into chains with
    explicit internal offsets (``_group_offsets``, any member lowest) and an
    unconstrained common base, the lowest member's column. Chains of
    interaction steps of length at most five bound the explicit ranges, so
    the scenarios cover every concrete configuration. A structure is what a
    scenario leaves once its explicit columns and offsets are dropped: the
    variables that go low, those that go top, and the float groups in
    ``_partitions`` order, group g on base B{g}, the first row of its
    region. Both generators take any number of variables; a full run has at
    most two.
    """
    out = []
    for combo in itertools.product(("low", "top", "float"), repeat=n_vars):
        low, top, floats = (
            tuple(v for v, c in enumerate(combo) if c == kind) for kind in ("low", "top", "float")
        )
        out += [(low, top, tuple(map(tuple, groups))) for groups in _partitions(list(floats))]
    return tuple(out)


# Room to spare over 2r - 2 + 5n, the farthest top column a scenario places; not read off r.
_TOP_WINDOW = 24
# The first row of the low region and of the top window.
_LOW_ROW = Sym.const(0)
_TOP_ROW = Sym.dee(-_TOP_WINDOW)
# The column stop and first row of the low region and the top window. A
# float region B{g} has no stop, and its first row is its base,
# Sym.var(B{g}).
_REGION_ROWS = {
    "low": (None, _LOW_ROW),
    "top": (_TOP_WINDOW + 1, _TOP_ROW),
}


def _classify_column(col: Sym):
    if col.is_const:
        # No low column lies past the top window's first row at the floor.
        if not 0 <= col.c <= D_FLOOR - _TOP_WINDOW:
            raise AssertionError(f"unexpected explicit column {col}")
        return ("low", col.c)
    if col.dc == 1 and not col.terms:
        o = -col.c
        if not 0 <= o <= _TOP_WINDOW:
            raise AssertionError(f"unexpected top column offset {o}")
        return ("top", _TOP_WINDOW - o)
    if col.dc == 0 and len(col.terms) == 1 and col.terms[0][1] == 1:
        base = col.terms[0][0]
        if not 0 <= col.c <= 30:
            raise AssertionError(f"unexpected float offset {col.c}")
        return ("float", base, col.c)
    raise AssertionError(f"column expression out of scope: {col}")


@dataclass(frozen=True)
class ScenarioFailure:
    reason: str
    detail: str
    expr: Sym | None = None


@cache
def _entry(upper: Sym, k: Sym, floor: int, box: tuple[Sym, Sym]) -> tuple[int, Poly] | None:
    """One pairing entry binomial(upper, k) as (kappa, the entry times kappa!).

    upper is a point's complementary degree, nonnegative wherever the
    point exists, and the signs are ``_sign_for_all`` over symbol >= floor
    and the box. The entry is (0, zero polynomial) when k is negative or
    exceeds upper everywhere. Otherwise kappa is k, or upper - k by
    symmetry, whichever is a constant, and the entry times kappa! is the
    falling factorial ``falling_poly(upper.dc, upper.c, kappa)``, an
    integer polynomial in the symbol; upper's variable terms are the
    caller's to read (the block verdict's d - base + c is u + c in the
    symbol u = d - base). None marks an entry that is essentially
    exponential in the symbol or the variables. The entry is a pure
    function of the arguments, so it is cached.
    """
    if _sign_for_all(k, floor, box) == -1:
        return 0, Poly([])
    if upper.is_const and upper.c < 0:
        raise AssertionError("pairing entry above the triangle")
    over = k - upper
    if _sign_for_all(over, floor, box) == 1:
        return 0, Poly([])
    if k.is_const:
        kappa = k.c
    elif over.is_const:
        kappa = -over.c
    else:
        return None
    return kappa, falling_poly(upper.dc, upper.c, kappa)


def _scaled_row(entries: list[tuple[int, Poly] | None]) -> list[Poly | None]:
    """One pairing row of ``_entry`` results, scaled by K!, K its largest lower index.

    Each entry becomes an integer polynomial, and a nonzero row factor
    changes neither whether the determinant vanishes identically nor its
    roots. Unevaluated (None) entries stay None, so a row with no
    evaluated entry reaches ``_expand``'s refusal unchanged.
    """
    top = max((entry[0] for entry in entries if entry is not None), default=0)
    return [
        None if entry is None else entry[1] * (factorial(top) // factorial(entry[0]))
        for entry in entries
    ]


def _expand(grid: list[list[Poly | None]]) -> Poly:
    """Determinant of a grid that may hold unevaluated entries.

    Expands along columns whose entries are all known, preferring the
    sparsest, until the unevaluated entries' rows are gone and a plain
    polynomial determinant finishes the job; a grid with no unevaluated
    entry goes straight to ``poly_det``. Every pairing block and slice
    pattern reaches that point; anything else is a logic error, not a
    case to handle.
    """
    n = len(grid)
    if all(entry is not None for row in grid for entry in row):
        return poly_det(grid)
    best: tuple[int, int] | None = None
    for c in range(n):
        column = [grid[r][c] for r in range(n)]
        if any(entry is None for entry in column):
            continue
        nonzeros = sum(1 for entry in column if entry)
        if best is None or nonzeros < best[0]:
            best = (nonzeros, c)
    if best is None:
        raise AssertionError("pairing determinant expansion has no evaluated column")
    _, c = best
    det = Poly([])
    for r in range(n):
        entry = grid[r][c]
        if not entry:
            continue
        minor = [
            [grid[rr][cc] for cc in range(n) if cc != c]
            for rr in range(n)
            if rr != r
        ]
        term = entry * _expand(minor)
        det = det + (term if (r + c) % 2 == 0 else -term)
    return det


def _pairing_det(
    rows: list[Sym], points: list[tuple[Sym, Sym]], floor: int, box: tuple[Sym, Sym]
) -> Poly:
    """The pairing determinant, with each row scaled by ``_scaled_row``.

    Each point is (column, upper argument); the entry of row a at a point
    is binomial(upper, a - column), read by ``_entry`` over symbol >= floor
    and the box.
    """
    grid = [
        _scaled_row([_entry(upper, row - i, floor, box) for i, upper in points])
        for row in rows
    ]
    return _expand(grid)


@cache
def _block_verdict(
    base_row: Sym, c_lo: int, width: int, pts: tuple[SymPoint, ...]
) -> ScenarioFailure | None:
    """Certify one pairing block invertible for every admissible value.

    The block's rows are base_row shifted by c_lo, ..., c_lo + width - 1.
    A verdict is a pure function of (base_row, c_lo, width, pts), and
    base_row and c_lo fix the rows, so the cache key is exactly the
    block; the rows themselves are built only on a miss.
    """
    lead = base_row.shifted(c_lo)
    shifted = []
    for p in pts:
        rel = p.i - lead
        if not rel.is_const:
            raise AssertionError("block mixes columns from different clusters")
        shifted.append((rel.c, p))
    shifted.sort(key=lambda t: t[0])
    cols = [c for c, _ in shifted]
    shape = block_shape(cols)
    if shape == "unit":
        return None
    if shape == "two-and-one":
        j1 = shifted[0][1].j
        j2 = shifted[1][1].j
        j3 = shifted[2][1].j
        guard = j1 + j2 - j3.scaled(2) - Sym.const(1)
        sign = _sign_for_all(guard, D_FLOOR, _STRIP_BOX)
        if sign == 0:
            return ScenarioFailure("singular", "degenerate two-and-one block", guard)
        if sign is None:
            return ScenarioFailure("ambiguous", "two-and-one block guard can vanish", guard)
        return None
    if len(cols) <= 2:
        raise AssertionError(f"impossible {len(cols)}-point column pattern {cols}")
    # General block: exact determinant as a polynomial in one symbol. The
    # greedy walk puts every column in [c_lo, c_lo + width - 1], so every
    # point meets row width - 1 with k >= 0, and the symbol a non-constant
    # upper argument names is read once per point: d, or u = d - base.
    symbol = None
    points = []
    for _, p in shifted:
        upper = Sym.dee() - (p.i + p.j)
        if not upper.is_const:
            if upper.dc != 1 or len(upper.terms) > 1 or any(c != -1 for _, c in upper.terms):
                return ScenarioFailure("ambiguous", "entry mixes the degree with a base")
            key = Sym(1, 0, upper.terms)
            if symbol not in (None, key):
                return ScenarioFailure("ambiguous", "block mixes two symbols")
            symbol = key
        points.append((p.i, upper))
    rows = [lead.shifted(w) for w in range(width)]
    det = _pairing_det(rows, points, D_FLOOR, _STRIP_BOX)
    if not det:
        return ScenarioFailure("singular", "identically singular block")
    if symbol is None:
        return None
    # The symbol's least value on the domain: D_FLOOR for d, 7 for u.
    roots = integer_roots_at_or_above(det, _extremes(symbol, D_FLOOR, _STRIP_BOX)[0])
    if roots:
        name = "u" if symbol.terms else "d"
        return ScenarioFailure("ambiguous", f"block determinant vanishes at {name} in {roots}")
    return None


@cache
def _placed_carrier(
    point: SymPoint, name: str, colexpr: Sym, choice: tuple
) -> tuple[SymPoint, tuple] | None:
    """A carrier of one column variable under one choice, with its column kind.

    Solves the placed column expression for the variable and returns
    the point with that value substituted, together with
    ``_classify_column`` of its column. Returns None when the placement
    forces the variable outside the strip box, which makes every scenario
    with this choice vacuous. Attempts share their carriers, so a full
    run solves only a few hundred.
    """
    if choice[0] == "low":
        col = Sym.const(choice[1])
    elif choice[0] == "top":
        col = Sym.dee(-choice[1])
    else:
        col = Sym.var(f"B{choice[1]}").shifted(choice[2])
    coeff = dict(colexpr.terms)[name]
    rest = colexpr - Sym(0, 0, ((name, coeff),))
    value = (col - rest).scaled(coeff)
    # Vacuous when the variable lies below, or above, the box everywhere.
    if _sign_for_all(value - _STRIP_BOX[0], D_FLOOR, _STRIP_BOX) == -1:
        return None
    if _sign_for_all(_STRIP_BOX[1] - value, D_FLOOR, _STRIP_BOX) == -1:
        return None
    placed = point.subst({name: value})
    return placed, _classify_column(placed.i)


def _region_failures(
    entries: list[tuple[int, SymPoint, int]], limit: int | None, base_row: Sym
) -> list[ScenarioFailure]:
    """The greedy pairing of one region, from its (index, point, column) entries.

    Returns the failure of every block that fails, or the one
    infeasible failure when the columns admit no blocks. Each column
    lists its points in ascending point index, so a block's points
    reach ``_block_verdict`` in the same order whichever of them moved.
    """
    columns: dict[int, list[SymPoint]] = {}
    for _, p, col in sorted(entries):
        columns.setdefault(col, []).append(p)
    blocks = greedy_blocks(columns, limit)
    if blocks is None:
        return [ScenarioFailure("infeasible", "no balanced column composition")]
    failures = []
    for c_lo, width, members in blocks:
        failure = _block_verdict(base_row, c_lo, width, tuple(members))
        if failure is not None:
            failures.append(failure)
    return failures


@cache
def _region_decision(
    region: str, fixed: tuple[tuple[int, SymPoint, int], ...], carriers: tuple, n: int | None
) -> tuple[tuple[ScenarioFailure, ...], ...]:
    """The failures of every content one region takes, in placement order.

    region is "low", "top" or a float base B{g}; fixed holds its fixed
    (index, point, column) entries, carriers the (index, point, name,
    column expression) of the moved points placed in it, and n the
    attempt's carrier count, which sets the 5n-wide low and top windows
    (None for a float group). A region's content list reads nothing
    else, so attempts share one decision per region. The empty tuple
    marks a region with no content.
    """

    def entry(carrier, choice):
        """The region entry of one carrier under one choice, None if vacuous."""
        k, p, name, colexpr = carrier
        slot = _placed_carrier(p, name, colexpr, choice)
        return None if slot is None else (k, slot[0], slot[1][-1])

    if n is None:
        g = int(region[1:])
        chains = (
            tuple(entry(carrier, ("float", g, off)) for carrier, off in zip(carriers, offs))
            for offs in _group_offsets(len(carriers))
        )
        contents = [chain for chain in chains if None not in chain]
    else:
        start = _STRIP_BOX[0].c if region == "low" else -_STRIP_BOX[1].c
        placements = [
            [e for c in range(start, start + 5 * n) if (e := entry(carrier, (region, c))) is not None]
            for carrier in carriers
        ]
        contents = list(itertools.product(*placements))
    limit, base_row = _REGION_ROWS.get(region) or (None, Sym.var(region))
    return tuple(
        tuple(_region_failures(list(fixed) + list(content), limit, base_row)) for content in contents
    )


def _attempt_regions(points: list[SymPoint]):
    """The pairing failures of every region content a scenario realises.

    A placement scenario fails exactly when one of its regions fails,
    and a region's failures depend only on the fixed points and the
    moved points placed in it. Each column variable is carried by one
    point, so within a structure of ``_structures`` the regions choose
    their contents independently, and ``_region_decision`` decides each
    region's whole content list at once. When some region has no
    content, every scenario of the structure is vacuous; otherwise each
    content is realised by a non-vacuous scenario. So this yields one
    failure tuple per (structure, region content), with the low region,
    each float base in name order, then the top window, and never walks
    the scenarios themselves.

    The points that carry no column variable sit in the same column in
    every scenario, so they are classified once per attempt. The walk is
    lazy by structure: a caller that stops reading decides no region of
    a later structure.
    """
    if any(len(p.variables()) > 1 for p in points):
        raise AssertionError("a support point carries more than one variable")
    carriers = []
    for name, colexpr in _column_variables(points):
        carried = [k for k, p in enumerate(points) if name in p.variables()]
        if len(carried) != 1:
            raise AssertionError(f"{name} is carried by {len(carried)} support points")
        carriers.append((carried[0], points[carried[0]], name, colexpr))
    moving = {k for k, *_ in carriers}
    fixed: dict[str, list] = {"low": [], "top": []}
    for k, p in enumerate(points):
        if k not in moving:
            kind = _classify_column(p.i)
            fixed[kind[0]].append((k, p, kind[1]))
    low, top = tuple(fixed["low"]), tuple(fixed["top"])
    n = len(carriers)
    for low_vars, top_vars, groups in _structures(n):
        regions = [_region_decision("low", low, tuple(carriers[v] for v in low_vars), n)]
        regions += [
            _region_decision(f"B{g}", (), tuple(carriers[v] for v in group), None)
            for g, group in enumerate(groups)
        ]
        regions.append(_region_decision("top", top, tuple(carriers[v] for v in top_vars), n))
        if all(regions):
            for decided in regions:
                yield from decided


def _attempt_excluded(points: list[SymPoint]) -> bool:
    """True when every placement scenario certifies exclusion.

    That is when every region content some scenario realises passes, so
    the walk stops at the first failing one.
    """
    return not any(_attempt_regions(points))


def _attempt_guards(points: list[SymPoint]) -> set[Sym] | None:
    """Expressions whose vanishing is the only way this attempt can fail.

    Collects the guard expression of each failing block over every
    region content a placement scenario realises, which is the union
    over the scenarios themselves. Blocks of the two-and-one shape are
    invertible at a parameter point exactly when their guard is nonzero
    there, so when every failure carries a guard, the set of parameters
    the attempt does not exclude lies inside the union of the guards'
    zero sets. Returns None when some failure has no guard to blame, and
    an empty set when the attempt certifies exclusion outright.
    """
    guards: set[Sym] = set()
    for failures in _attempt_regions(points):
        for failure in failures:
            if failure.expr is None:
                return None
            guards.add(failure.expr)
    return guards


def _resistant_patterns(case: ContractionPoint):
    """Yield (points, flipped) for each position pattern neither pairing attempt excludes.

    flipped, the transpose, is a pattern of the case's (12) image, built
    only when the pattern itself is not excluded.
    """
    for combo in itertools.product(*(cell_possibilities(name) for name in case.record())):
        points = list(combo)
        if _attempt_excluded(points):
            continue
        flipped = [p.transposed() for p in points]
        if not _attempt_excluded(flipped):
            yield points, flipped


def invertibility_eliminates(case: ContractionPoint) -> bool:
    """Symbolic pairing exclusion over every relative position pattern."""
    return next(_resistant_patterns(case), None) is None


# One image per coset {sigma, (12)sigma} but the identity's, whose (12) image
# the invertibility stage covers (see ``pipeline_summary``).
_SYMMETRY_IMAGES = ("(13)", "(23)")


def symmetry_eliminates(case: ContractionPoint) -> str | None:
    """Try the pairing argument on the (13) image, then on the (23) image.

    ``_resistant_patterns`` pairs each pattern of the sigma image with its
    transpose, a pattern of the (12)sigma image, so the two ask one question:
    (12) repeats the invertibility stage, (132) repeats (13), (123) repeats (23).
    """
    for sigma in _SYMMETRY_IMAGES:
        image = s3_on_contraction(sigma, case)
        if invertibility_eliminates(image):
            return sigma
    return None


# ---------------------------------------------------------------------------
# Hexagon coverage.


# Fixed instances, proved against the depth-4 strips in ``hexagon_eliminates``; not read off r.
def _hexagon_instances(d: int) -> tuple[tuple[int, int, int], ...]:
    """The hexagons (d', ell1, ell2) small, thirds, wide_i, wide_j in mask-bit order."""
    t = d // 3
    return ((6, 7, 7), (t, t, t), (6, 7, d - t + 1), (6, d - t + 1, 7))


@cache
def _strip_masks(kind: str, idx: int) -> frozenset[int]:
    """The masks of instances containing each generic position m of one strip.

    Position m of alpha[idx], beta[idx] or gamma[idx] is the grid point
    (idx, m), (m, idx) or (m, d - idx - m), here at d = D_FLOOR, m in the
    strip box. Corner cells and explicit near-top strip positions are
    inside every instance, so only generic strip variables constrain.
    """
    d = D_FLOOR
    instances = _hexagon_instances(d)
    masks = set()
    for m in range(_STRIP_BOX[0].c, d + _STRIP_BOX[1].c + 1):
        point = {"alpha": (idx, m), "beta": (m, idx), "gamma": (m, d - idx - m)}[kind]
        masks.add(sum(1 << bit for bit, inst in enumerate(instances) if in_hexagon(point, d, *inst)))
    return frozenset(masks)


def hexagon_eliminates(case: ContractionPoint) -> bool:
    """Exact coverage check of the strip-variable box by hexagon instances.

    A compatible valid outcome has degree exactly d, but once one
    instance contains the entire support its degree is at most the
    instance's small triangle, far below d. A strip position matters
    only through its mask, so the box is covered exactly when every
    choice of one occurring mask per strip has a nonzero AND.

    The masks read at D_FLOOR decide every d >= D_FLOOR. With t = d // 3
    >= 14, idx <= 3 and m in [4, d - 7], ``in_hexagon`` reduces to:
    alpha (idx, m) is in small and wide_i iff m <= 6 - idx, in thirds iff
    m <= t - idx or m > d - t, in wide_j iff m <= 6 - idx or m >= t (beta
    swaps wide_i and wide_j); gamma (m, d - idx - m) is in small iff
    m <= 6 - idx, in thirds iff m < t - idx or m > d - t, in wide_i iff
    m <= 6 - idx or m >= t, in wide_j iff m <= d - idx - t. The mask thus
    changes only past 6 - idx < t - idx - 1 <= {t - idx, t - 1} <
    d - idx - t <= d - t < d - 7, an order that holds at every d, and the
    gaps between them hold 3 - idx, |1 - idx| or idx positions, or at
    least t - 7 > 0. So a strip's set of masks depends on its kind and
    idx alone.

    Each instance lies inside the hexagon that fills d (d' + ell1 + ell2
    = d, growing ell2, or ell1 for wide_j), as ``in_hexagon`` admits more
    points as a strip widens. So at every d >= D_FLOOR, also when 3 does
    not divide d, thirds rests on ``hexagon_determinant(d, t, t)`` and the
    rest on ``hexagon_determinant(d, 6, 7)``: wide_j fills to
    (6, d - 13, 7), the same matrix with rows and columns reversed.
    """
    strips = [
        parse_coord(name)
        for name in case.record()
        if name.startswith(("alpha", "beta", "gamma"))
    ]
    # A support-five case has at most three strip points; a width, not the ring depth.
    if len(strips) > 3:
        raise AssertionError("more strip coordinates than a support-five case allows")
    mask_sets = [_strip_masks(kind, idx) for kind, (idx,) in strips]
    every = (1 << len(_hexagon_instances(D_FLOOR))) - 1
    return all(reduce(and_, masks, every) for masks in itertools.product(*mask_sets))


# ---------------------------------------------------------------------------
# Special arguments and the public pipeline.


def _special_exceptional(case: ContractionPoint) -> dict | None:
    """Subtraction argument for the merged record of smaller support.

    Its compatible supports carry positives at (0, 3), (1, 1), (3, 0)
    plus two top-diagonal points. Subtracting the right multiple of the
    degree-three outcome u = -1 at the origin, 1 at (0, 3) and (3, 0),
    3 at (1, 1) either kills a corner positive while keeping validity,
    leaving a valid outcome with at most four positives at degree d
    (none exist), or exhausts the origin debt first, leaving a nonzero
    outcome with no negative entry at all (impossible). Either way no
    valid outcome matches the case.
    """
    expected = ("x[0,3]", "x[1,1]", "x[3,0]", "gamma[0]")
    if case.positive_support() != expected:
        return None
    u = tightness_family(1)
    if not is_outcome(u):
        raise AssertionError("the subtraction witness stopped being an outcome")
    return {
        "argument": "subtract the degree-three outcome until a corner positive or the origin debt vanishes",
        "witness": {f"({i},{j})": str(v) for (i, j), v in u},
        "leftover": "a valid outcome with at most four positives, or a nonnegative nonzero outcome",
    }


# The last support-five case resists the pairing argument only where its
# low-column guard vanishes: both inner strip points must sit at height
# (d - 1) / 2, so d is odd, say d = 2e + 1 with e >= 21 on the degree
# range the pipeline covers. On that slice the support is pinned down to
# six explicit points, one of them gamma[1]'s at a free column g, and the
# slice's patterns, which tile g's range and so follow the ring depth,
# each have a nonsingular pairing matrix for every e >= 21. The slice is
# written in Sym with e as the symbol (the ``dc`` slot) and g as the
# only variable, in a box whose ends are Syms in e.

_E_MIN = D_FLOOR // 2  # the least e with 2e + 1 >= D_FLOOR


def _final_slice_patterns() -> list[tuple[str, list[tuple[Sym, Sym]], list[Sym], tuple[Sym, Sym]]]:
    """Support patterns of the final case on the odd-diagonal slice.

    Fixed points: the origin debt, the two far corners and the two inner
    strip points at height e; gamma[1]'s positive sits on the top diagonal
    at column g. The r + 2 patterns tile g's range, the strip box
    [r, d - (2r - 1)] cut at e - 1 and e, then each near-top position of
    ``cell_possibilities("gamma[1]")`` (near-top, nearer-top, ...), with
    degrees 0, 1, r - 1, e, g + 1 (e - 1 on "below-strip") and d.
    """

    def on_slice(expr):  # a Sym in d, read at d = 2e + 1 as a Sym in e
        return Sym(2 * expr.dc, expr.c + expr.dc, expr.terms)

    e, g, d = Sym(1), Sym.var("g"), on_slice(Sym.dee())
    # (column, d - degree) of the origin, corners (0, d), (d, 0) and strip points (1, e), (e, 1).
    fixed = [(Sym(), d), (Sym(), Sym()), (d, Sym()), (Sym.const(1), e), (e, e)]
    base_rows = [Sym(), Sym.const(1), Sym.const(RING_DEPTH - 1), e]
    no_g = (Sym(), Sym())
    low, high = map(on_slice, _STRIP_BOX)
    near_top = sorted(on_slice(p.i) for p in cell_possibilities("gamma[1]")[1:])

    def pattern(name, g_form, extra_row, box=no_g):
        return (name, fixed + [(g_form, Sym.const(1))], base_rows + [extra_row, d], box)

    return [
        pattern("low", g, g.shifted(1), (low, e.shifted(-2))),
        pattern("below-strip", e.shifted(-1), e.shifted(-1)),
        pattern("at-strip", e, e.shifted(1)),
        pattern("high", g, g.shifted(1), (e.shifted(1), high)),
    ] + [pattern("near" + "er" * k + "-top", i, i.shifted(1)) for k, i in enumerate(near_top)]


# The far corners (0, d) and (d, 0) are r[0,r-1] and t[r-1,0] at ring depth r.
_FINAL_RECORD = {
    "x[0,0]": -1,
    f"r[0,{RING_DEPTH - 1}]": 1,
    f"t[{RING_DEPTH - 1},0]": 1,
    "alpha[1]": 1,
    "beta[1]": 1,
    "gamma[1]": 1,
}

# Each attempt's guard d - 1 - 2m pins its inner strip point m to the middle height.
_GUARD_KEYS = tuple(
    Sym.dee(-1) - Sym.var(f"m_{name}").scaled(2)
    for name in _FINAL_RECORD
    if name.startswith(("alpha", "beta"))
)


def _special_final(case: ContractionPoint) -> dict | None:
    """Slice argument for the case the pairing eliminators leave behind.

    First audits the pairing failures: for every position pattern, each
    of the two attempts either certifies exclusion or fails only through
    guards pinning the strip heights to (d - 1) / 2. Any compatible
    valid outcome therefore lives on the odd-diagonal slice, and the
    explicit slice determinants rule that out for every e >= _E_MIN.
    """
    if case.record() != _FINAL_RECORD:
        return None
    resistant = 0
    for points, flipped in _resistant_patterns(case):
        resistant += 1
        for pts, expected in ((points, _GUARD_KEYS[0]), (flipped, _GUARD_KEYS[1])):
            guards = _attempt_guards(pts)
            if guards is None or any(g != expected for g in guards):
                return None
    if resistant == 0:
        return None
    determinants = {}
    for name, points, rows, box in _final_slice_patterns():
        det = _pairing_det(rows, points, _E_MIN, box)
        if not det or integer_roots_at_or_above(det, _E_MIN):
            return None
        determinants[name] = [str(c) for c in det.coeffs]
    return {
        "argument": "strip heights are pinned to the middle, and the odd-diagonal slice has invertible pairings",
        "resistant_patterns": resistant,
        "slice": "d = 2e + 1 with both inner strip points at height e",
        "determinants_in_e": determinants,
    }


def special_eliminates(case: ContractionPoint) -> dict | None:
    return _special_exceptional(case) or _special_final(case)


# The eliminators in the order ``relset_pipeline`` runs them.
STAGES = ("invertibility", "symmetry", "hexagon", "special")


@dataclass(frozen=True)
class CaseVerdict:
    """How one contraction case was ruled out, if it was.

    sigma names the S3 element whose image the pairing succeeds on, for
    a symmetry verdict only; it stays out of the JSON form, whose detail
    already quotes it.
    """

    case: ContractionPoint
    eliminated_by: str | None
    detail: str = ""
    sigma: str | None = None

    def to_json(self) -> dict:
        return {
            "case": self.case.record(),
            "eliminated_by": self.eliminated_by,
            "detail": self.detail,
        }


def relset_pipeline(case: ContractionPoint) -> CaseVerdict:
    """Run the eliminator chain on one merged contraction case."""
    survivor = "no special argument applies"
    if len(case.positive_support()) == 5:
        if invertibility_eliminates(case):
            return CaseVerdict(case, "invertibility", "all pairing scenarios invertible")
        sigma = symmetry_eliminates(case)
        if sigma is not None:
            return CaseVerdict(case, "symmetry", f"pairing succeeds on the {sigma} image", sigma)
        if hexagon_eliminates(case):
            return CaseVerdict(case, "hexagon", "hexagon instances cover the strip box")
        survivor = "survived every eliminator"
    certificate = special_eliminates(case)
    if certificate is not None:
        return CaseVerdict(case, "special", certificate["argument"])
    return CaseVerdict(case, None, survivor)


@dataclass(frozen=True)
class PipelineReport:
    verdicts: tuple[CaseVerdict, ...]
    counts: dict[str, int] = field(default_factory=dict)

    def survivors(self) -> tuple[CaseVerdict, ...]:
        return tuple(v for v in self.verdicts if v.eliminated_by is None)

    def to_json(self) -> dict:
        return {
            "counts": dict(self.counts),
            "cases": [v.to_json() for v in self.verdicts],
        }


@cache
def pipeline_summary() -> PipelineReport:
    """Run every contraction case through the pipeline and tally stages.

    A case whose (12) image the invertibility stage has already
    eliminated gets that verdict without running the stage again.
    ``_resistant_patterns`` asks each position pattern of a case together
    with its transpose, and the transposes are the patterns of the
    case's (12) image, so one certificate covers both cases. Every other
    case runs ``relset_pipeline``. The lookup lives for one call, so a
    cold run stays cold.
    """
    verdicts = []
    counts = dict.fromkeys(STAGES + ("survivor",), 0)
    mirror = itemgetter(*_contraction_permutation("(12)"))
    eliminated = {}
    for case in lambda_set():
        image = eliminated.get(mirror(case.vector))
        verdict = relset_pipeline(case) if image is None else replace(image, case=case)
        if verdict.eliminated_by == "invertibility":
            eliminated[case.vector] = verdict
        verdicts.append(verdict)
        counts[verdict.eliminated_by or "survivor"] += 1
    return PipelineReport(tuple(verdicts), counts)
