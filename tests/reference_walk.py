"""The column-by-column pairing walk, kept as an oracle.

``criteria.invertibility_excludes`` reads its certificate off the
blocks of ``criteria.greedy_blocks``, the walk whose verdict
``pairing_excludes`` gives. This is the walk it replaced: it scans every
column of the triangle, builds each block's pairing matrix and takes
its determinant, so the tests can diff the two verdicts field for field.
"""

from __future__ import annotations

from chipsplit.criteria import ExclusionVerdict, LambdaBlock, PairingMatrix, _closed_form
from chipsplit.grid import Coord, check_inside, degree_order


def construct_lambda(points: set[Coord] | frozenset[Coord], d: int) -> list[LambdaBlock] | None:
    """Greedy column composition pairing each support point with a top-edge row.

    Scans columns left to right, each time taking the fewest columns
    whose point count is zero or equals the column count; the matching
    rows are the consecutive top-edge positions of those columns. Returns
    None when no such composition exists, which happens exactly when the
    tail count #{(i, j) in S : i >= d - k} exceeds k + 1 for some k. An
    empty support gets the single all-of-it block by convention.
    """
    check_inside(points, d)
    if not points:
        return [LambdaBlock(0, d + 1, (), ())]
    by_column: dict[int, list[Coord]] = {}
    for p in points:
        by_column.setdefault(p[0], []).append(p)
    blocks = []
    c = 0
    while c <= d:
        width = None
        count = 0
        for lam in range(1, d + 2 - c):
            count += len(by_column.get(c + lam - 1, ()))
            if count == 0 or count == lam:
                width = lam
                break
        if width is None:
            return None
        chunk = sorted(
            (p for i in range(c, c + width) for p in by_column.get(i, ())),
            key=degree_order,
        )
        degrees = tuple(range(c, c + width)) if chunk else ()
        blocks.append(LambdaBlock(c, c + width, tuple(chunk), degrees))
        c += width
    return blocks


def _blocks_invertible(blocks: list[LambdaBlock], d: int) -> tuple[bool, list[int]]:
    determinants = []
    for block in blocks:
        if not block.points:
            determinants.append(1)
            continue
        closed = _closed_form(sorted((i - block.c_lo, j) for i, j in block.points))
        matrix = PairingMatrix(block.degrees, block.points, d)
        value = matrix.determinant()
        if closed is not None and closed != (value != 0):
            raise AssertionError(f"closed form disagrees with determinant on {block}")
        determinants.append(value)
        if value == 0:
            return False, determinants
    return True, determinants


def invertibility_excludes(points: set[Coord] | frozenset[Coord], d: int) -> ExclusionVerdict:
    """Try to certify that no nonzero outcome is supported inside the set.

    Runs the greedy divide construction on the support and, failing that,
    on its transpose; a successful run with all block determinants
    nonzero is a proof of exclusion. Inconclusive verdicts carry no
    claim: the support may or may not host an outcome.
    """
    if not points:
        return ExclusionVerdict(False, d)
    for transposed in (False, True):
        attempt = frozenset((j, i) for i, j in points) if transposed else frozenset(points)
        blocks = construct_lambda(attempt, d)
        if blocks is None:
            continue
        ok, determinants = _blocks_invertible(blocks, d)
        if ok:
            return ExclusionVerdict(
                True,
                d,
                transposed=transposed,
                blocks=tuple(blocks),
                determinants=tuple(determinants),
                support=frozenset(points),
            )
    return ExclusionVerdict(False, d, support=frozenset(points))
