"""Census of fundamental outcomes and empty-degree sweeps.

Two exhaustive computations back the classification results, and both
run per (positive-support size, degree) on one listing of every support
whose sign forms all cancel.  The sweep's ``_settle_degree`` settles
every survivor with one settling step, ``_resolve_survivor``, and
returns a ``SweepCertificate`` that lists each with its label.  The
census's ``_census_cell`` only tallies, so the engine lists it one
member of each mirror pair (i, j) -> (j, i) of survivors, plus both
members of each pair whose top-diagonal points have i_min + i_max = d;
it counts a member for both and lists a found outcome with its mirror.
The survivors are mirror-closed because the sign forms are closed
under transposition.

The listing starts from the bitset engine ``hyperfield.sign_survivors``.
It places support points in descending degree order, keeping as its
whole state two bitsets of the Pascal forms that still lack a positive
and a negative contribution, and abandons a branch as soon as some form
can no longer cancel.  Its node count (every point tried below a parent
with two or more free slots, plus every completion of the last slot)
is part of each sweep certificate.  A sweep stores a support as its
sorted point tuple, and the list of them is sorted.

The sweep certifies that a whole degree hosts no valid outcome with a
prescribed number of positive entries at all.  The census walks cell by
cell in (positive-support size, degree) and tallies each cell's
settled survivors into its stages.  The candidates of a cell are the
supports the anchor lemma allows: two points on the top diagonal and
one on each axis away from the origin.  They are counted in closed
form, and every candidate that is not a sign survivor fails the sign test.
No anchor filter runs on the survivors, because every sign survivor is
anchored.  The axis anchors follow from the sign forms: the top-edge
form at a = d is nonzero only on the row j = 0, and the origin
contributes a negative sign to it, so some point (i, 0) with i >= 1
must contribute a positive one; the form at a = 0 gives the column the
same way.  The two top points follow from the left-column form
psi[d]: it is nonzero only on the top diagonal, with sign (-1)^i at
(i, d - i), and zero at the origin, so a survivor holds a top point
with even i and one with odd i.  The test suite also pins that on all
168,331 sign survivors of the cells n <= 5, d <= 9.

``_resolve_survivor`` settles a survivor by the invertibility test and
then ``models.fundamentality``, the exact kernel criterion that the
``fundamental`` and ``decompose`` commands use too; both read one
table of top-edge coefficients per degree, ``pascal.top_edge_columns``.
A census cell whose support plus origin holds at least d + 1 points,
as many as the top-edge rows, settles by rank instead
(``_rank_settler``): the invertibility test there excludes exactly the
supports of full rank.  A top point's column is the unit vector of its
row, so the settler drops the top points and their rows, and one
``linalg.PrefixKernel`` reads each support's kernel off the columns of
the origin and the lower points on the rows left, sharing the columns
its listing prefix shares with the support before it.  One call's
columns share a length, the number of rows its top set leaves;
successive calls differ in it when the top set changes, and a call of
another length or another width keeps nothing of the one before.
Each top entry is read back from its own row.  The other census cells,
and every sweep degree, have fewer columns than rows and settle through
``_resolve_survivor``, where the invertibility test excludes most
survivors before any kernel is needed.
``classify_candidate`` decides one support with the certificate path
and is the census's reference.
``sweep_summary`` digests a sweep's certificates per degree, the format
of the committed ``results/sweep-*.json`` artifacts.

Both computations are deterministic: results are sorted canonically,
so reports serialize byte-identically run over run, also when the
sweep spreads its degrees over a process pool.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Collection

from .criteria import invertibility_excludes, pairing_excludes
from .grid import ChipConfiguration, Coord, config_from_record, config_record, grid_points
from .hyperfield import hyperfield_excludes, mirror_masks, sign_survivors
from .linalg import PrefixKernel
from .models import fundamental_generator, fundamentality
from .pascal import all_forms, top_edge_columns

# Stages of the candidate decision chain, in the order they run.
PRUNE_SIGNS = "signs"
PRUNE_INVERTIBILITY = "invertibility"
REJECT_KERNEL = "kernel"
FOUND = "fundamental"


def canonical_key(config: ChipConfiguration):
    """Deterministic sort key: degree, positive-support size, entries."""
    entries = tuple(sorted((i, j, v) for (i, j), v in config))
    return (config.degree, len(config.positive_support), entries)


def _sign_tables(d: int):
    """Support points and their sign-form contributions at degree d.

    Points come in descending degree order, which is the order the
    engine places them in.  Returns the points, each point's row over
    ``all_forms(d)``, and the origin's row.  The rows hold the Pascal
    coefficients themselves (the origin's negated, for its chip debt),
    not their signs: integers that ``sign_survivors`` reads only by
    their sign.
    """
    points = sorted(
        (p for p in grid_points(d) if p != (0, 0)),
        key=lambda p: (-(p[0] + p[1]), p[0]),
    )
    forms = all_forms(d)
    point_signs = [[form.coefficient(i, j) for form in forms] for i, j in points]
    # The origin holds the chip debt, so its contribution sign flips.
    origin_signs = [-form.coefficient(0, 0) for form in forms]
    return points, point_signs, origin_signs


def candidate_count(n: int, d: int) -> int:
    """Number of anchored candidate supports in the census cell (n, d).

    A candidate is a set of n + 1 points of the degree-d triangle, the
    origin excluded, with at least two points on the top diagonal and a
    point on each axis away from the origin.  Counted by
    inclusion-exclusion over the two axis anchors, for each number t of
    top points: the top diagonal holds d + 1 points, two of them on the
    axes, and the points below it hold d - 1 more on each axis.
    """
    if n < 1 or d < 1:
        return 0
    size = n + 1
    lower = d * (d + 1) // 2 - 1
    return sum(
        math.comb(d + 1, t) * math.comb(lower, size - t)
        - 2 * math.comb(d, t) * math.comb(lower - (d - 1), size - t)
        + math.comb(d - 1, t) * math.comb(lower - 2 * (d - 1), size - t)
        for t in range(2, size + 1)
    )


def _resolve_survivor(support: Collection[Coord], d: int):
    """Settle one sign survivor: certify exclusion or surface an outcome.

    The settling step of ``_settle_degree``, and of the census cells
    whose support plus origin has fewer than d + 1 points (the others
    settle by rank, ``_rank_settler``): the pairing test, then
    ``models.fundamentality``, whose kernel dimension names the
    resolution.  The support may come in any point order, and
    the resolution and outcome do not depend on it: a pairing block's
    points only permute its rows, which flips at most the determinant's
    sign, and ``fundamentality`` sorts its points before it eliminates.
    Nor do they change under the mirror (i, j) -> (j, i), which mirrors
    a found outcome with the support: ``pairing_excludes`` tries a
    support and its transpose alike, and the top-edge conditions, read off
    F_P(x) = sum of w_p x^i (1 + x)^(d - i - j) over the points
    p = (i, j), satisfy x^d F_P(1/x) = F of the mirrored support.
    That is why the census settles only one of each mirror pair: the
    sign forms are closed under transposition, so the mirror of a
    survivor is a survivor, and it settles the same way.
    """
    if pairing_excludes(((0, 0), *support), d):
        return PRUNE_INVERTIBILITY, None
    return _kernel_resolution(*fundamentality(support, d))


def _kernel_resolution(dimension: int, outcome: ChipConfiguration | None):
    """The resolution that a kernel's dimension and fundamental generator name."""
    if dimension == 0:
        return "empty-kernel", None
    if dimension == 1:
        return (REJECT_KERNEL, None) if outcome is None else ("outcome", outcome)
    # A kernel of dimension two or more would need a sign-cone argument
    # this sweep does not carry; report it honestly instead of guessing.
    return "unresolved", None


def classify_candidate(support: frozenset[Coord], d: int):
    """Decide one candidate support: prune cheaply, then test exactly.

    Returns a (stage, outcome) pair.  The stage names what settled the
    candidate; outcome is the primitive generator of the support's
    one-dimensional outcome space when the verdict is ``fundamental``
    and None otherwise.  Both prunes are sound: each certifies that no
    valid outcome has exactly this positive support at this degree.
    The census reaches the same verdicts by searching the sign
    survivors first; this one-support form is its reference, and runs
    the certificate-producing ``invertibility_excludes`` where the
    census runs the bare ``pairing_excludes``.
    """
    if hyperfield_excludes(support, d).excluded:
        return PRUNE_SIGNS, None
    support = frozenset(support)
    if invertibility_excludes(support | {(0, 0)}, d).excluded:
        return PRUNE_INVERTIBILITY, None
    generator = fundamentality(support, d)[1]
    return (REJECT_KERNEL, None) if generator is None else (FOUND, generator)


# ---------------------------------------------------------------------------
# The census.


def _mirror_representatives(d: int, size: int):
    """The sign survivors with i_min + i_max <= d, over their top-diagonal points.

    Runs ``hyperfield.sign_survivors`` with the ``hyperfield.mirror_masks``
    of the mirror (i, j) -> (j, i), which list a support exactly when
    its mirror's least engine index is at least its own.  The engine
    places the top diagonal first, (k, d - k) at index k, so a support
    with a top point starts at (i_min, d - i_min) and its mirror at
    (d - i_max, i_max): it is listed exactly when i_min + i_max <= d,
    and every sign survivor has top points (see the module docstring).
    The mirror maps i_min + i_max to 2d - (i_min + i_max), so a listed
    support with i_min + i_max < d has its mirror outside the list,
    while a tie (i_min + i_max = d) has its mirror in it.  Returns the
    points in engine order and the listed engine index tuples.
    """
    points, point_signs, origin_signs = _sign_tables(d)
    index = {p: k for k, p in enumerate(points)}
    mirror = [index[j, i] for i, j in points]
    survivors, _ = sign_survivors(point_signs, origin_signs, size, mirror_masks(mirror))
    return points, survivors


def _census_representatives(points, listed, d: int):
    """The listed supports that the census settles, each with its weight.

    Yields (combo, support, weight): the engine index tuple, its points
    and the number of survivors it stands for, in listing order.  A
    listed support with i_min + i_max < d has its mirror outside the
    list, so it stands for two with no lookup.  A tie (i_min + i_max = d)
    is listed with its mirror; its points come sorted, it stands for one
    if it is its own mirror, and it is skipped if its sorted mirror is
    smaller.  Every listed support starts on the top diagonal, engine
    indices 0..d, since every sign survivor has top points (see the
    module docstring).
    """
    for combo in listed:
        support = [points[m] for m in combo]
        first = combo[0]
        if first > d:
            raise AssertionError(f"the listed survivor {support} has no top point")
        if d - first in combo:
            support.sort()
            mirror = sorted([(j, i) for i, j in support])
            if mirror < support:
                continue
            weight = 1 if mirror == support else 2
        else:
            weight = 2
        yield combo, support, weight


def _rank_settler(points, d: int):
    """Settle supports of at least d points by the rank of their top-edge matrix.

    Returns a function of an engine index tuple that gives the same
    resolution and outcome as ``_resolve_survivor`` for supports that,
    with the origin, hold at least d + 1 points, the top-edge rows'
    count.  The matrix's columns are the origin's and then the points'
    in engine order.

    The pairing test never runs, because it excludes exactly when the
    matrix has full rank.  With more columns than rows the kernel is
    nonzero, so neither holds.  With as many, a point (i, j)'s column
    is zero above row i, so a greedy block that cannot close holds more
    points than there are rows from its start down: a matrix of full
    rank has a closing walk.  The blocks of a closing walk tile the rows
    0..d and their points have no entry above their first row, so the
    matrix is block lower triangular, of full rank exactly when every
    block is invertible.  The transposed support's columns are the same
    columns with their rows reversed, so its walk cannot exclude a
    matrix that is not of full rank.  Any other support settles by its
    kernel, as in ``_resolve_survivor``.

    The kernel is read off a smaller matrix, by block elimination on the
    top points' unit columns: a Schur complement (F. Zhang, ed., The
    Schur Complement and Its Applications, Springer 2005).  The column
    of a top point (k, d - k) is the unit vector of row k.  So row k of
    a kernel vector's equations says that the top point's entry is minus
    the row's dot product with the other entries, and the rows of no top
    point see no top column.  Dropping the top entries thus maps the
    kernel of the whole matrix one to one onto the kernel of the matrix
    left on the other rows, over the origin and the lower points, and
    each top entry is read back from its row.  The dimension, and with
    it the resolution, does not change.  Nor does the generator of a
    one-dimensional kernel.  The reduced generator is primitive, so the
    whole vector is too, for its top entries are integer combinations of
    the reduced ones.  The reduced generator's first nonzero entry is
    positive.  If a lower entry is not negative, no sign makes an
    outcome of the whole vector, and the top entries are not read.
    Otherwise that entry is the origin's, the whole vector's first, so
    the whole vector has the sign ``fundamental_generator`` expects.
    An index tuple comes in ascending order, and the engine places the
    top points first, so the top set is a prefix of the tuple.  The
    reduced columns are built, and the unit columns checked, once per
    top set, and one ``linalg.PrefixKernel`` serves every call, so a
    cell fed in listing order eliminates one column per new listing
    prefix.
    """
    table = top_edge_columns(d)
    prefix = PrefixKernel()
    reduced = {}

    def columns_off(top):
        """The origin's and the lower points' columns, without the top points' rows."""
        for k in top:
            if table[points[k]] != tuple(int(a == k) for a in range(d + 1)):
                raise AssertionError(f"the column of {points[k]} is not the unit vector of row {k}")
        rows = [a for a in range(d + 1) if a not in top]
        return [tuple(table[p][a] for a in rows) for p in ((0, 0), *points[d + 1:])]

    def settle(combo):
        split = bisect_right(combo, d)
        top, lower = combo[:split], combo[split:]
        columns = reduced.get(top)
        if columns is None:
            columns = reduced[top] = columns_off(top)
        basis = prefix.kernel([columns[0], *(columns[m - d] for m in lower)])
        if not basis:
            return PRUNE_INVERTIBILITY, None
        if len(basis) > 1:
            return _kernel_resolution(len(basis), None)
        vec = basis[0]
        if any(v >= 0 for v in vec[1:]):
            return REJECT_KERNEL, None
        others = [(0, 0), *(points[m] for m in lower)]
        tops = [-sum(table[p][k] * v for p, v in zip(others, vec)) for k in top]
        outcome = fundamental_generator([(0, 0), *(points[m] for m in combo)], [vec[0], *tops, *vec[1:]], d)
        return _kernel_resolution(1, outcome)

    return settle


def _census_cell(n: int, d: int, candidates: int):
    """Census of one cell: its fundamental outcomes and its stage counters.

    Settles one of each mirror pair (i, j) -> (j, i) of the sign
    survivors for n + 1 positives at degree d.  The survivors are
    mirror-closed because the sign forms are closed under
    transposition: read at the mirrored points, the left-column and
    bottom-row forms of index k swap and the top-edge form at (a, b)
    becomes the one at (b, a).  ``_mirror_representatives`` lists the
    survivors whose top points have i_min + i_max <= d, and
    ``_census_representatives`` weighs them; a found outcome of weight
    two is listed with its mirror.  Where the support plus the origin
    holds at least d + 1 points (n + 2 >= d + 1), ``_rank_settler``
    settles the listing in order; elsewhere ``_resolve_survivor`` settles
    each support alone.  A candidate that is neither listed nor the
    mirror of a listed support fails the sign test, and the census
    counts all of the kernel labels as ``kernel``.  ``_settle_degree``,
    which settles every survivor, is its test oracle, and the tests
    check the listing's mirror closure against ``sign_survivor_search``
    and the rank settler against ``_resolve_survivor``.
    """
    points, listed = _mirror_representatives(d, n + 1)
    by_rank = _rank_settler(points, d) if n + 2 >= d + 1 else None
    tally = Counter()
    found = []
    for combo, support, weight in _census_representatives(points, listed, d):
        resolution, outcome = by_rank(combo) if by_rank else _resolve_survivor(support, d)
        tally[resolution] += weight
        if outcome is not None:
            found.append(outcome)
            if weight == 2:
                found.append(ChipConfiguration({(j, i): v for (i, j), v in outcome}, ambient=d))
    settled = sum(tally.values())
    counters = {
        "candidates": candidates,
        PRUNE_SIGNS: candidates - settled,
        PRUNE_INVERTIBILITY: tally[PRUNE_INVERTIBILITY],
        REJECT_KERNEL: settled - tally[PRUNE_INVERTIBILITY] - tally["outcome"],
        FOUND: tally["outcome"],
    }
    return found, counters


@dataclass(frozen=True)
class EnumerationReport:
    """Result of a census run.

    table maps (positive-support size minus one, degree) to the number
    of fundamental outcomes in that cell; empty cells are absent.  The
    outcomes are the fundamental outcomes themselves: primitive integer
    configurations with a negative origin, pairwise distinct and in
    canonical order.  stats holds deterministic counters only, so equal
    censuses serialize to equal bytes.
    """

    table: dict[tuple[int, int], int]
    outcomes: tuple[ChipConfiguration, ...]
    stats: dict

    def __post_init__(self):
        tally: dict[tuple[int, int], int] = {}
        previous = None
        for outcome in self.outcomes:
            key = canonical_key(outcome)
            if previous is not None and key <= previous:
                raise ValueError("outcomes must be strictly sorted")
            previous = key
            if not outcome.is_integral():
                raise ValueError("census outcomes must be integral")
            values = [int(v) for _, v in outcome]
            if math.gcd(*(abs(v) for v in values)) != 1:
                raise ValueError("census outcomes must be primitive")
            if outcome[(0, 0)] >= 0 or not outcome.is_valid():
                raise ValueError("census outcomes must be valid with a chip debt at the origin")
            cell = (len(outcome.positive_support) - 1, outcome.degree)
            tally[cell] = tally.get(cell, 0) + 1
        if tally != self.table:
            raise ValueError("table counts disagree with the outcome list")

    def to_json(self) -> dict:
        return {
            "table": [[n, d, count] for (n, d), count in sorted(self.table.items())],
            "outcomes": [config_record(w) for w in self.outcomes],
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, payload: dict) -> EnumerationReport:
        table = {(n, d): count for n, d, count in payload["table"]}
        outcomes = tuple(config_from_record(entry) for entry in payload["outcomes"])
        return cls(table, outcomes, dict(payload["stats"]))


def enumerate_fundamental(d_max: int, n_max: int) -> EnumerationReport:
    """Enumerate all fundamental outcomes with degree and support bounded.

    Every cell with positive-support size up to n_max and degree up to
    d_max that has a candidate is scanned; the bound below the diagonal
    (support exceeding degree) is not assumed, it re-emerges as empty
    cells.  Every such cell runs, so stats["skipped_cells"] is always
    empty; the key stays so that reports keep one format.  A cell needs
    n + 1 distinct points off the origin, and the degree-d_max triangle
    has d_max (d_max + 3) / 2 of them, so larger n are not visited;
    stats["n_max"] still reports the bound asked for.
    """
    if d_max < 1 or n_max < 1:
        raise ValueError("the census needs d_max >= 1 and n_max >= 1")
    table: dict[tuple[int, int], int] = {}
    outcomes: list[ChipConfiguration] = []
    cells = []
    n_top = min(n_max, d_max * (d_max + 3) // 2 - 1)
    for n in range(1, n_top + 1):
        for d in range(1, d_max + 1):
            candidates = candidate_count(n, d)
            if candidates == 0:
                continue
            found, counters = _census_cell(n, d, candidates)
            cells.append([n, d, counters])
            if found:
                table[(n, d)] = len(found)
                outcomes.extend(found)
    outcomes.sort(key=canonical_key)
    totals = {key: sum(counters[key] for _, _, counters in cells) for key in cells[0][2]}
    stats = {
        "d_max": d_max,
        "n_max": n_max,
        "totals": totals,
        "cells": cells,
        "skipped_cells": [],
    }
    return EnumerationReport(table, tuple(outcomes), stats)


# ---------------------------------------------------------------------------
# Conjecture check.


@dataclass(frozen=True)
class ConjectureReport:
    """Degree-bound check over a census.

    holds is True when every outcome satisfies both d <= 2n - 1 (the
    open bound) and n <= d (a theorem, re-verified rather than trusted).
    equality_counts tallies the outcomes attaining d = 2n - 1, per n.
    """

    holds: bool
    degree_violations: tuple[ChipConfiguration, ...]
    support_violations: tuple[ChipConfiguration, ...]
    equality_counts: dict[int, int]


def check_conjecture(report: EnumerationReport) -> ConjectureReport:
    degree_bad = []
    support_bad = []
    equality: dict[int, int] = {}
    for outcome in report.outcomes:
        n = len(outcome.positive_support) - 1
        d = outcome.degree
        if d > 2 * n - 1:
            degree_bad.append(outcome)
        if n > d:
            support_bad.append(outcome)
        if d == 2 * n - 1:
            equality[n] = equality.get(n, 0) + 1
    return ConjectureReport(
        not degree_bad and not support_bad,
        tuple(degree_bad),
        tuple(support_bad),
        equality,
    )


# ---------------------------------------------------------------------------
# Empty-degree sweeps.


def sign_survivor_search(d: int, size: int):
    """All positive supports of the given size that every sign form allows.

    Equivalent to filtering all supports through the sign-form test, but
    incremental: ``hyperfield.sign_survivors`` places points in
    descending degree order, tracking as two bitsets the Pascal forms
    that still lack a positive and a negative contribution, and
    abandons a branch as soon as some form cannot reach both signs with
    the slots and points still available.  That is sound because a
    valid outcome of degree exactly d makes every form's sign image the
    full hyperfield.  Returns the survivor list and the number of search
    nodes: every point tried below a parent with two or more free slots,
    plus every completion of the last slot.  Each survivor is the tuple
    of its points in sorted order, and the list is sorted.  The engine's
    index tuples are replaced in place, so only one list is ever held.
    """
    points, point_signs, origin_signs = _sign_tables(d)
    survivors, nodes = sign_survivors(point_signs, origin_signs, size)
    for k, combo in enumerate(survivors):
        survivors[k] = tuple(sorted([points[m] for m in combo]))
    survivors.sort()
    return survivors, nodes


@dataclass(frozen=True)
class SweepCertificate:
    """Evidence that one degree hosts no valid outcome of a given width.

    sign_survivors lists the supports the sign forms could not rule out,
    each as its sorted point tuple and in sorted order, as
    ``sign_survivor_search`` returns them; resolutions how each one fell
    ("invertibility", "empty-kernel" or "kernel", with "unresolved"
    marking a survivor the follow-up could not settle), and
    outcomes_found any genuine valid outcomes uncovered, in survivor
    order.
    Either an unresolved survivor or a found outcome voids the claim, so
    holds is False in both cases.
    """

    n_plus: int
    d: int
    nodes: int
    sign_survivors: tuple[tuple[Coord, ...], ...]
    resolutions: tuple[str, ...]
    outcomes_found: tuple[ChipConfiguration, ...]

    @property
    def holds(self) -> bool:
        return not self.outcomes_found and "unresolved" not in self.resolutions

    def to_json(self) -> dict:
        return {
            "n_plus": self.n_plus,
            "d": self.d,
            "nodes": self.nodes,
            "sign_survivors": [[list(p) for p in s] for s in self.sign_survivors],
            "resolutions": list(self.resolutions),
            "outcomes_found": [config_record(w) for w in self.outcomes_found],
        }

    @classmethod
    def from_json(cls, payload: dict) -> SweepCertificate:
        return cls(
            payload["n_plus"],
            payload["d"],
            payload["nodes"],
            tuple(
                tuple((i, j) for i, j in entry) for entry in payload["sign_survivors"]
            ),
            tuple(payload["resolutions"]),
            tuple(config_from_record(entry) for entry in payload["outcomes_found"]),
        )


def _settle_degree(task) -> SweepCertificate:
    """The certificate of one (positive-support size, degree) pair.

    Lists the sign survivors and settles each with ``_resolve_survivor``,
    so the certificate labels every survivor; the census, which needs
    only the tally, settles one of each mirror pair instead.  Takes one
    tuple so that a process pool can map it.
    """
    n_plus, d = task
    survivors, nodes = sign_survivor_search(d, n_plus)
    resolutions = []
    outcomes = []
    for support in survivors:
        resolution, outcome = _resolve_survivor(support, d)
        resolutions.append(resolution)
        if outcome is not None:
            outcomes.append(outcome)
    return SweepCertificate(
        n_plus, d, nodes, tuple(survivors), tuple(resolutions), tuple(outcomes)
    )


def sweep_start(n_plus: int) -> int:
    """The first degree a sweep of n_plus = n + 1 positive entries covers.

    One past the degree bound d <= 2n - 1, which the census attains.
    """
    return 2 * n_plus - 2


def sweep_no_valid_outcomes(
    n_plus: int,
    degrees,
    *,
    jobs: int | None = None,
) -> tuple[SweepCertificate, ...]:
    """Certify degree by degree that no valid outcome has n_plus positive entries.

    Valid, not just fundamental: the search covers every possible
    positive support, so a certificate rules the whole degree out.  A
    genuine outcome, should one exist, lands in the certificate's
    outcomes_found rather than raising: the caller decides what a
    refutation means.  jobs parallelizes across degrees.
    """
    if n_plus < 2:
        raise ValueError("a sweep needs at least two positive entries")
    ds = sorted({int(d) for d in degrees})
    if not ds:
        return ()
    if ds[0] < 1:
        raise ValueError("sweep degrees must be positive")
    tasks = [(n_plus, d) for d in ds]
    if jobs and jobs > 1 and len(tasks) > 1:
        # Imported here: multiprocessing is about 10 ms of every CLI start.
        from concurrent.futures import ProcessPoolExecutor

        # A pool starts all its workers up front; more than one per degree idles.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return tuple(pool.map(_settle_degree, tasks))
    return tuple(_settle_degree(task) for task in tasks)


def sweep_summary(n_plus: int, certificates) -> dict:
    """The per-degree digest of a sweep, the format of ``results/sweep-*.json``.

    Keeps each degree's node count, survivor count, resolution tally and
    verdict, and drops the survivor lists themselves.
    """
    summaries = [
        {
            "degree": cert.d,
            "nodes": cert.nodes,
            "sign_survivors": len(cert.sign_survivors),
            "resolutions": dict(sorted(Counter(cert.resolutions).items())),
            "holds": cert.holds,
        }
        for cert in certificates
    ]
    return {
        "support": n_plus,
        "degrees": [certificates[0].d, certificates[-1].d],
        "holds": all(cert.holds for cert in certificates),
        "summaries": summaries,
    }
