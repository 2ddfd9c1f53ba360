"""The invertibility and hexagon criteria for excluding outcome supports.

Both criteria rule out candidate supports for nonzero outcomes. The
invertibility criterion pairs a support S with a set E of top-edge
positions: if the matrix of binomials binom(d - deg(p), a - i) over
a in E, p = (i, j) in S is invertible, the top-edge equations admit no
nonzero solution supported in S. The divide step picks E greedily so
the matrix becomes block lower triangular; the conquer step knows a few
closed-form invertible block shapes and otherwise asks ``linalg.rank``
whether the block has full rank.

The invertibility criterion is one walk with two outputs. The walk
(``greedy_blocks``) splits the support, and failing that its transpose,
into blocks, and one table of closed-form block shapes (``block_shape``)
decides the small ones; the symbolic contraction pipeline uses both
too. ``pairing_excludes`` answers yes or no on plain integers, reading
each block's pairing matrix off the degree's table of top-edge columns
(``pascal.top_edge_columns``), which ``models.fundamentality`` reads
too; the census and the sweeps call it. ``invertibility_excludes``
reads a certificate off the same blocks, with each block's determinant,
and ``ExclusionVerdict.verify`` checks it again through freshly built
pairing matrices.

The hexagon criterion bounds the degree of a valid outcome whose
support avoids a hexagonal middle region of the triangle: what is left
in the bottom-left corner must itself be an outcome, and validity then
forces the whole configuration into that corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Collection

from .grid import ChipConfiguration, Coord, check_fits, check_inside, degree_order, is_inside
from .linalg import binomial, det, rank
from .pascal import is_outcome, top_edge_columns


@dataclass(frozen=True)
class PairingMatrix:
    """The matrix binom(d - deg(i,j), a - i) over rows a in E, columns (i,j) in S."""

    degrees: tuple[int, ...]
    points: tuple[Coord, ...]
    d: int
    entries: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        if not self.degrees or len(self.degrees) != len(self.points):
            raise ValueError("E and S must be nonempty sets of the same size")
        if any(not 0 <= a <= self.d for a in self.degrees):
            raise ValueError(f"row indices must lie in [0, {self.d}]")
        check_inside(self.points, self.d)
        rows = tuple(
            tuple(binomial(self.d - i - j, a - i) for (i, j) in self.points) for a in self.degrees
        )
        object.__setattr__(self, "entries", rows)

    def determinant(self) -> int:
        return det(self.entries)


def pairing_matrix(degrees: set[int] | tuple[int, ...], points: set[Coord] | tuple[Coord, ...], d: int) -> PairingMatrix:
    """Build the pairing matrix with rows and columns in canonical sorted order."""
    return PairingMatrix(
        tuple(sorted(degrees)),
        tuple(sorted(points, key=degree_order)),
        d,
    )


@dataclass(frozen=True)
class LambdaBlock:
    """One column block of the divide step.

    Columns c_lo <= i < c_hi of the triangle, the support points falling
    in them, and the paired top-edge row indices (empty when the block
    holds no points).
    """

    c_lo: int
    c_hi: int
    points: tuple[Coord, ...]
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class ExclusionVerdict:
    """Outcome of an invertibility attempt, with a re-checkable certificate.

    excluded means no nonzero outcome has support inside the queried
    set, support. The certificate lists every block of the column
    composition with its paired rows, points and determinant (1 for a
    block without points); transposed records whether the argument ran
    on the reflected support.
    """

    excluded: bool
    d: int
    transposed: bool = False
    blocks: tuple[LambdaBlock, ...] = ()
    determinants: tuple[int, ...] = ()
    support: frozenset[Coord] = frozenset()

    def verify(self) -> bool:
        """Re-check the certificate as a proof that the support is excluded.

        The blocks must tile the columns 0..d in order, each nonempty
        block pairing its rows c_lo..c_hi - 1 with as many points in its
        own columns, and together hold the support (transposed if so
        recorded), all inside the degree-d triangle. The pairing matrix is
        then block lower triangular, so it is invertible once every freshly
        built block determinant is the nonzero one listed.
        """
        if not self.excluded:
            return True
        edges = [0] + [block.c_hi for block in self.blocks]
        if edges[-1] != self.d + 1 or len(self.determinants) != len(self.blocks):
            return False
        points = [p for block in self.blocks for p in block.points]
        support = {(j, i) for i, j in self.support} if self.transposed else self.support
        if len(points) != len(support) or set(points) != support or not is_inside(points, self.d):
            return False
        for block, lo, expected in zip(self.blocks, edges, self.determinants):
            columns = range(block.c_lo, block.c_hi)
            if block.c_lo != lo or not columns:
                return False
            if block.degrees != (tuple(columns) if block.points else ()):
                return False
            if not block.points:
                continue
            if len(block.points) != len(columns) or any(i not in columns for i, _ in block.points):
                return False
            if expected == 0 or PairingMatrix(block.degrees, block.points, self.d).determinant() != expected:
                return False
        return True


def greedy_blocks(columns: dict[int, list], stop: int | None) -> list[tuple[int, int, list]] | None:
    """The nonempty blocks of the greedy column composition.

    columns maps each nonempty column to its members. A block starts at
    the next nonempty column and closes at the first width that equals
    its point count; the count only changes at nonempty columns, so the
    walk visits only those. Returns (start, width, members) triples, or
    None when the last block cannot close by the column stop (None means
    no right edge). Its test oracle is the column-by-column walk in
    ``tests/reference_walk.py``.
    """
    blocks = []
    start, members = 0, []
    for x in sorted(columns):
        if members and start + len(members) <= x:
            blocks.append((start, len(members), members))
            members = []
        if not members:
            start = x
        members = members + columns[x]
    if members:
        blocks.append((start, len(members), members))
    if stop is not None and blocks and blocks[-1][0] + blocks[-1][1] > stop:
        return None
    return blocks


def block_shape(cols: list[int]) -> str | None:
    """The closed form of a greedy block, by its columns shifted to start at zero.

    One to three points in the lead column ("unit") always give an
    invertible block, a Vandermonde in the heights. Two lead-column
    points at heights j1, j2 and one in the next column at height j3
    ("two-and-one") give an invertible block exactly when j1 + j2
    differs from 2 * j3 + 1. The greedy walk makes no other block of at
    most three points, because a lone lead-column point closes a block
    of width one; larger blocks need a determinant.
    """
    if cols in ([0], [0, 0], [0, 0, 0]):
        return "unit"
    if cols == [0, 0, 1]:
        return "two-and-one"
    return None


def _closed_form(shifted: list[Coord]) -> bool | None:
    """Decide a block by its closed form; None means no form applies.

    shifted holds the block's points moved to start at column zero, in
    sorted order.
    """
    shape = block_shape([i for i, _ in shifted])
    if shape == "unit":
        return True
    if shape == "two-and-one":
        (_, i), (_, j), (_, k) = shifted
        return i + j != 2 * k + 1
    return None


def _block_invertible(block: list[Coord], c: int, columns: dict[Coord, tuple[int, ...]]) -> bool:
    """Whether a greedy block starting at column c is invertible.

    Its pairing matrix pairs rows c .. c + w - 1 with its w points, so it
    is the transpose of those rows of the points' top-edge columns.
    """
    invertible = _closed_form(sorted((i - c, j) for i, j in block))
    if invertible is None:
        width = len(block)
        invertible = rank([columns[p][c:c + width] for p in block]) == width
    return invertible


def _block_determinant(block: list[Coord], c: int, columns: dict[Coord, tuple[int, ...]]) -> int:
    """The determinant of the matrix ``_block_invertible`` reads, checked against the closed form."""
    value = det([columns[p][c:c + len(block)] for p in block])
    closed = _closed_form(sorted((i - c, j) for i, j in block))
    if closed is not None and closed != (value != 0):
        raise AssertionError(f"closed form disagrees with determinant on {block} at column {c}")
    return value


def _closing_walks(points: Collection[Coord], d: int):
    """The greedy walks of the support, then of its transpose, that close by column d.

    Yields (transposed, blocks), blocks as ``greedy_blocks`` returns
    them; the points keep their given order within each block.
    """
    check_inside(points, d)
    for transposed, attempt in ((False, points), (True, ((j, i) for i, j in points))):
        columns: dict[int, list[Coord]] = {}
        for p in attempt:
            columns.setdefault(p[0], []).append(p)
        blocks = greedy_blocks(columns, d + 1)
        if blocks:
            yield transposed, blocks


def pairing_excludes(points: Collection[Coord], d: int) -> bool:
    """The verdict of ``invertibility_excludes(points, d).excluded``, without a certificate.

    Decides each block of a closing walk on plain integers: a closed form
    where one applies and otherwise the rank of the entries read off
    ``top_edge_columns(d)``. The points may come in any order: within a
    block they only permute the matrix's rows.
    """
    table = top_edge_columns(d)
    return any(
        all(_block_invertible(block, c, table) for c, _, block in blocks)
        for _, blocks in _closing_walks(points, d)
    )


def invertibility_excludes(points: Collection[Coord], d: int) -> ExclusionVerdict:
    """Try to certify that no nonzero outcome is supported inside the set.

    Takes the first closing walk whose blocks all have a nonzero
    determinant, which is the walk ``pairing_excludes`` accepts. Its
    certificate tiles the columns 0..d: each greedy block pairs its
    points, in degree order, with its rows c .. c + w - 1, and each
    column no block covers is an empty block of determinant 1.
    Inconclusive verdicts carry no claim: the support may or may not host
    an outcome.
    """
    support = frozenset(points)
    table = top_edge_columns(d)
    for transposed, blocks in _closing_walks(points, d):
        starts = {c: block for c, _, block in blocks}
        tiles, determinants, c = [], [], 0
        while c <= d:
            block = sorted(starts.get(c, ()), key=degree_order)
            value = _block_determinant(block, c, table) if block else 1
            if value == 0:
                break
            width = len(block) or 1
            tiles.append(LambdaBlock(c, c + width, tuple(block), tuple(range(c, c + len(block)))))
            determinants.append(value)
            c += width
        else:
            return ExclusionVerdict(True, d, transposed, tuple(tiles), tuple(determinants), support)
    return ExclusionVerdict(False, d, support=support)


@dataclass(frozen=True)
class HexagonReport:
    applies: bool
    restricted: ChipConfiguration
    bound: int


def in_hexagon(point: Coord, d: int, d_small: int, ell1: int, ell2: int) -> bool:
    """Whether a point avoids the hexagonal middle that ``hexagon_check`` describes."""
    i, j = point
    return i + j <= d_small or j > d - ell1 or i > d - ell2


def hexagon_check(config: ChipConfiguration, d: int, d_small: int, ell1: int, ell2: int) -> HexagonReport:
    """Apply the hexagon criterion to a configuration on the degree-d triangle.

    The criterion applies when the support avoids the hexagonal middle:
    every point lies in the bottom-left triangle of degree d_small, the
    top strip j > d - ell1, or the right strip i > d - ell2. For an
    outcome the bottom-left restriction is then itself an outcome, and a
    valid outcome must be entirely inside the bottom-left triangle, so
    its degree is at most d_small.
    """
    if not (ell1 >= d_small >= 1 and ell2 >= d_small and d_small + ell1 + ell2 <= d):
        raise ValueError("need ell1, ell2 >= d' >= 1 and d' + ell1 + ell2 <= d")
    check_fits(config, d)
    applies = all(in_hexagon(p, d, d_small, ell1, ell2) for p in config.support)
    restricted = ChipConfiguration(
        {(i, j): v for (i, j), v in config if i + j <= d_small}, ambient=d_small
    )
    if applies and is_outcome(config, d):
        if not is_outcome(restricted, d_small):
            raise AssertionError("hexagon restriction of an outcome failed to be an outcome")
        if config.is_valid() and config.degree > d_small:
            raise AssertionError("valid outcome escaped the hexagon bound")
    return HexagonReport(applies, restricted, d_small)


def _superfactorial(n: int) -> int:
    """Product of m! for m = 0 .. n-1, the shifted convention."""
    out = 1
    for m in range(n):
        out *= factorial(m)
    return out


@dataclass(frozen=True)
class HexagonDeterminant:
    """The binomial determinant underlying the hexagon criterion.

    direct is the determinant of (binom(d - d', ell1 + k - a)) for
    k, a = 0 .. d'. The closed-form product is reported under both
    superfactorial conventions because they disagree; matching names the
    one that reproduces the direct value (the criterion itself only ever
    uses the direct value).
    """

    direct: int
    formula_shifted: Fraction
    formula_literal: Fraction
    matching: str

    def nonzero(self) -> bool:
        return self.direct != 0


def hexagon_determinant(d: int, d_small: int, ell1: int) -> HexagonDeterminant:
    """The determinant of the hexagon (d', ell1, ell2) that fills d, ell2 = d - d' - ell1.

    The shifted product is MacMahon's box formula for the plane partitions
    in an ell1 x ell2 x (d' + 1) box (MacMahon 1916; Krattenthaler, Sém.
    Lothar. Combin. 42, 1999), a ratio of factorials and never zero; the
    direct value counts them as lattice paths (Gessel and Viennot, Adv.
    Math. 58, 1985).
    """
    ell2 = d - d_small - ell1
    if not (ell1 >= d_small >= 0 and ell2 >= d_small):
        raise ValueError("need ell1 >= d' >= 0 and d - d' - ell1 >= d'")
    size = d_small + 1
    rows = [[binomial(d - d_small, ell1 + k - a) for a in range(size)] for k in range(size)]
    direct = det(rows)

    def closed_form(h) -> Fraction:
        numerator = h(ell1) * h(d - d_small - ell1) * h(d_small + 1) * h(d + 1)
        denominator = h(d - d_small) * h(d_small + ell1 + 1) * h(d - ell1 + 1)
        return Fraction(numerator, denominator)

    shifted = closed_form(_superfactorial)
    # The literal convention, the product of m! for m = 1 .. n, is the shifted one at n + 1.
    literal = closed_form(lambda n: _superfactorial(n + 1))
    if shifted == direct and literal != direct:
        matching = "shifted"
    elif literal == direct and shifted != direct:
        matching = "literal"
    elif shifted == literal == direct:
        matching = "both"
    else:
        matching = "neither"
    return HexagonDeterminant(direct, shifted, literal, matching)
