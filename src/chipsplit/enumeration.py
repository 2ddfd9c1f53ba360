"""Census of fundamental outcomes and empty-degree sweeps.

Two exhaustive computations back the classification results.  The
census walks, cell by cell in (positive-support size, degree), over all
candidate positive supports that the anchor lemma allows, prunes with
the sign-form and invertibility tests, and decides every survivor with
the exact kernel criterion for fundamentality.  The sweep certifies
that a whole degree hosts no valid outcome with a prescribed number of
positive entries at all: the bitset engine ``hyperfield.sign_survivors``
places support points in descending degree order, keeping as its whole
state two bitsets of the Pascal forms that still lack a positive and a
negative contribution, and abandons a branch as soon as some form can
no longer cancel.  Its node count (every point tried below a parent
with two or more free slots, plus every completion of the last slot)
is part of each sweep certificate.  The rare sign survivors are then
finished with the invertibility criterion or the kernel itself.

Both computations are deterministic, including under a process pool:
work is sharded by candidate ordinal and the merged results are sorted
canonically, so reports serialize byte-identically run over run.  Census
cells can be cached on disk (see ``cache_root``) and resumed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .criteria import invertibility_excludes
from .grid import ChipConfiguration, Coord, config_from_json, config_to_json, grid_points
from .hyperfield import hyperfield_excludes, sign_survivors
from .models import fundamentality
from .pascal import all_forms, outcome_space

# Census cells and sweep degrees beyond these sizes run for hours and
# stay behind the long_run flag.
LONG_RUN_CELL_BOUND = 4_000_000
SWEEP_DESK_CAP = {4: 11, 5: 20}

# Minimum candidate volume before a process pool pays for itself.
_PARALLEL_THRESHOLD = 20_000
_SHARD_TARGET = 25_000

# Stages of the candidate decision chain, in the order they run.
PRUNE_SIGNS = "signs"
PRUNE_INVERTIBILITY = "invertibility"
REJECT_KERNEL = "kernel"
FOUND = "fundamental"
_STAGES = (PRUNE_SIGNS, PRUNE_INVERTIBILITY, REJECT_KERNEL, FOUND)

CACHE_VERSION = 1


def canonical_key(config: ChipConfiguration):
    """Deterministic sort key: degree, positive-support size, entries."""
    entries = tuple(sorted((i, j, v) for (i, j), v in config))
    return (config.degree, len(config.positive_support), entries)


def _axis_anchored(points) -> bool:
    has_row = any(j == 0 and i >= 1 for i, j in points)
    has_column = any(i == 0 and j >= 1 for i, j in points)
    return has_row and has_column


def _lower_pool(d: int) -> list[Coord]:
    return sorted(p for p in grid_points(d - 1) if p != (0, 0))


def anchored_candidates(n: int, d: int):
    """Candidate positive supports for the census cell (n, d).

    Yields frozensets of n + 1 points of maximal degree exactly d
    satisfying the anchors every valid outcome obeys: at least two
    points on the top diagonal and a strictly positive point on each
    axis.  The origin never appears; it is the forced negative entry.
    """
    if n < 1 or d < 1:
        return
    size = n + 1
    top = [(i, d - i) for i in range(d + 1)]
    lower = _lower_pool(d)
    for t in range(2, min(size, d + 1) + 1):
        for tops in itertools.combinations(top, t):
            for rest in itertools.combinations(lower, size - t):
                support = tops + rest
                if _axis_anchored(support):
                    yield frozenset(support)


def candidate_bound(n: int, d: int) -> int:
    """Upper bound on the cell's anchored candidates (axis filter ignored)."""
    if n < 1 or d < 1:
        return 0
    size = n + 1
    lower = d * (d + 1) // 2 - 1
    return sum(
        math.comb(d + 1, t) * math.comb(lower, size - t)
        for t in range(2, min(size, d + 1) + 1)
    )


def classify_candidate(support: frozenset[Coord], d: int):
    """Decide one candidate support: prune cheaply, then test exactly.

    Returns a (stage, outcome) pair.  The stage names what settled the
    candidate; outcome is the primitive generator of the support's
    one-dimensional outcome space when the verdict is ``fundamental``
    and None otherwise.  Both prunes are sound: each certifies that no
    valid outcome has exactly this positive support at this degree.
    """
    if hyperfield_excludes(support, d).excluded:
        return PRUNE_SIGNS, None
    if invertibility_excludes(frozenset(support) | {(0, 0)}, d).excluded:
        return PRUNE_INVERTIBILITY, None
    fundamental, _, generator = fundamentality(support, d)
    if fundamental:
        return FOUND, generator
    return REJECT_KERNEL, None


def _new_counters() -> dict[str, int]:
    counters = {"candidates": 0}
    for stage in _STAGES:
        counters[stage] = 0
    return counters


def _enumerate_cell(n: int, d: int):
    counters = _new_counters()
    found = []
    for support in anchored_candidates(n, d):
        counters["candidates"] += 1
        stage, outcome = classify_candidate(support, d)
        counters[stage] += 1
        if outcome is not None:
            found.append(outcome)
    found.sort(key=canonical_key)
    return tuple(found), counters


def _cell_shard(task):
    """Worker for one (tops, shard) slice of a census cell.

    Lower-point combinations are enumerated in a fixed order and sliced
    by ordinal, so the union over shards is exactly the cell and the
    shards are pairwise disjoint whatever the pool's scheduling does.
    """
    n, d, tops, offset, stride = task
    rest_size = n + 1 - len(tops)
    lower = _lower_pool(d)
    counters = _new_counters()
    found = []
    for ordinal, rest in enumerate(itertools.combinations(lower, rest_size)):
        if (ordinal - offset) % stride:
            continue
        support = tops + rest
        if not _axis_anchored(support):
            continue
        counters["candidates"] += 1
        stage, outcome = classify_candidate(frozenset(support), d)
        counters[stage] += 1
        if outcome is not None:
            found.append(config_to_json(outcome))
    return found, counters


def _cell_tasks(n: int, d: int):
    size = n + 1
    lower_count = d * (d + 1) // 2 - 1
    top = [(i, d - i) for i in range(d + 1)]
    tasks = []
    for t in range(2, min(size, d + 1) + 1):
        per_tops = math.comb(lower_count, size - t)
        if per_tops == 0:
            continue
        shards = max(1, min(32, -(-per_tops // _SHARD_TARGET)))
        for tops in itertools.combinations(top, t):
            for offset in range(shards):
                tasks.append((n, d, tops, offset, shards))
    return tasks


def _enumerate_cell_parallel(n: int, d: int, jobs: int):
    counters = _new_counters()
    found = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for shard_found, shard_counters in pool.map(
            _cell_shard, _cell_tasks(n, d), chunksize=4
        ):
            for key, value in shard_counters.items():
                counters[key] += value
            found.extend(config_from_json(text) for text in shard_found)
    found.sort(key=canonical_key)
    return tuple(found), counters


# ---------------------------------------------------------------------------
# Cell cache.


def cache_root() -> Path:
    """Cache directory: $CHIPSPLIT_CACHE_DIR, or ~/.cache/chipsplit."""
    env = os.environ.get("CHIPSPLIT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "chipsplit"


def _cell_cache_path(n: int, d: int) -> Path:
    tag = hashlib.sha256(
        f"census-v{CACHE_VERSION}:n={n}:d={d}".encode()
    ).hexdigest()[:12]
    return cache_root() / f"census-n{n}-d{d}-{tag}.json"


def _cell_results(n: int, d: int, *, jobs: int | None, resume: bool):
    path = _cell_cache_path(n, d) if resume else None
    if path is not None and path.exists():
        payload = json.loads(path.read_text())
        found = tuple(
            config_from_json(json.dumps(entry)) for entry in payload["outcomes"]
        )
        return found, dict(payload["counters"])
    if jobs and jobs > 1 and candidate_bound(n, d) >= _PARALLEL_THRESHOLD:
        found, counters = _enumerate_cell_parallel(n, d, jobs)
    else:
        found, counters = _enumerate_cell(n, d)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_VERSION,
            "n": n,
            "d": d,
            "counters": counters,
            "outcomes": [json.loads(config_to_json(w)) for w in found],
        }
        scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        scratch.write_text(json.dumps(payload))
        os.replace(scratch, path)
    return found, counters


# ---------------------------------------------------------------------------
# The census.


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
            "outcomes": [json.loads(config_to_json(w)) for w in self.outcomes],
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, payload: dict) -> EnumerationReport:
        table = {(n, d): count for n, d, count in payload["table"]}
        outcomes = tuple(
            config_from_json(json.dumps(entry)) for entry in payload["outcomes"]
        )
        return cls(table, outcomes, dict(payload["stats"]))


def enumerate_fundamental(
    d_max: int,
    n_max: int,
    *,
    long_run: bool = False,
    jobs: int | None = None,
    resume: bool = False,
) -> EnumerationReport:
    """Enumerate all fundamental outcomes with degree and support bounded.

    Every cell with positive-support size up to n_max and degree up to
    d_max is scanned; the bound below the diagonal (support exceeding
    degree) is not assumed, it re-emerges as empty cells.  Cells whose
    candidate volume exceeds LONG_RUN_CELL_BOUND are skipped unless
    long_run is set and are listed in stats["skipped_cells"]; with the
    flag they run, but expect hours.  resume reads and writes per-cell
    cache files under ``cache_root``.
    """
    if d_max < 1 or n_max < 1:
        raise ValueError("the census needs d_max >= 1 and n_max >= 1")
    table: dict[tuple[int, int], int] = {}
    outcomes: list[ChipConfiguration] = []
    cells = []
    skipped = []
    totals = _new_counters()
    for n in range(1, n_max + 1):
        for d in range(1, d_max + 1):
            bound = candidate_bound(n, d)
            if bound == 0:
                continue
            if bound > LONG_RUN_CELL_BOUND:
                if not long_run:
                    skipped.append([n, d])
                    continue
                warnings.warn(
                    f"census cell (n={n}, d={d}) scans about {bound:,} candidates; "
                    "expect an hours-scale run",
                    RuntimeWarning,
                    stacklevel=2,
                )
            found, counters = _cell_results(n, d, jobs=jobs, resume=resume)
            for key, value in counters.items():
                totals[key] += value
            cells.append([n, d, counters])
            if found:
                table[(n, d)] = len(found)
                outcomes.extend(found)
    outcomes.sort(key=canonical_key)
    stats = {
        "d_max": d_max,
        "n_max": n_max,
        "totals": totals,
        "cells": cells,
        "skipped_cells": skipped,
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
    full hyperfield.  Returns the survivor list (canonically sorted) and
    the number of search nodes: every point tried below a parent with
    two or more free slots, plus every completion of the last slot.
    """
    points = sorted(
        (p for p in grid_points(d) if p != (0, 0)),
        key=lambda p: (-(p[0] + p[1]), p[0]),
    )
    forms = all_forms(d)
    point_signs = [[form.coefficient(i, j) for form in forms] for i, j in points]
    # The origin holds the chip debt, so its contribution sign flips.
    origin_signs = [-form.coefficient(0, 0) for form in forms]
    found, nodes = sign_survivors(point_signs, origin_signs, size)
    survivors = [frozenset(points[k] for k in combo) for combo in found]
    survivors.sort(key=lambda s: tuple(sorted(s)))
    return survivors, nodes


def _resolve_survivor(support: frozenset[Coord], d: int):
    """Finish one sign survivor: certify exclusion or surface an outcome."""
    if invertibility_excludes(support | {(0, 0)}, d).excluded:
        return "invertibility", None
    basis = outcome_space(support | {(0, 0)}, d)
    if not basis:
        return "empty-kernel", None
    if len(basis) == 1:
        generator = basis[0]
        if (
            generator[(0, 0)] < 0
            and generator.is_valid()
            and generator.positive_support == support
        ):
            return "outcome", generator
        return "kernel", None
    # A kernel of dimension two or more would need a sign-cone argument
    # this sweep does not carry; report it honestly instead of guessing.
    return "unresolved", None


@dataclass(frozen=True)
class SweepCertificate:
    """Evidence that one degree hosts no valid outcome of a given width.

    sign_survivors lists the supports the sign forms could not rule out,
    resolutions how each one fell ("invertibility", "empty-kernel" or
    "kernel", with "unresolved" marking a survivor the follow-up could
    not settle), and outcomes_found any genuine valid outcomes uncovered.
    Either an unresolved survivor or a found outcome voids the claim, so
    holds is False in both cases.
    """

    n_plus: int
    d: int
    nodes: int
    sign_survivors: tuple[frozenset[Coord], ...]
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
            "sign_survivors": [
                [list(p) for p in sorted(s)] for s in self.sign_survivors
            ],
            "resolutions": list(self.resolutions),
            "outcomes_found": [
                json.loads(config_to_json(w)) for w in self.outcomes_found
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> SweepCertificate:
        return cls(
            payload["n_plus"],
            payload["d"],
            payload["nodes"],
            tuple(
                frozenset((i, j) for i, j in entry)
                for entry in payload["sign_survivors"]
            ),
            tuple(payload["resolutions"]),
            tuple(
                config_from_json(json.dumps(entry))
                for entry in payload["outcomes_found"]
            ),
        )


def _sweep_one(task) -> dict:
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
    ).to_json()


def sweep_no_valid_outcomes(
    n_plus: int,
    degrees,
    *,
    long_run: bool = False,
    jobs: int | None = None,
) -> tuple[SweepCertificate, ...]:
    """Certify degree by degree that no valid outcome has n_plus positive entries.

    Valid, not just fundamental: the search covers every possible
    positive support, so a certificate rules the whole degree out.
    Degrees beyond SWEEP_DESK_CAP[n_plus] require long_run=True.  A
    genuine outcome, should one exist, lands in the certificate's
    outcomes_found rather than raising: the caller decides what a
    refutation means.  jobs parallelizes across degrees.
    """
    if n_plus not in SWEEP_DESK_CAP:
        raise ValueError("sweeps support positive-support sizes 4 and 5")
    ds = sorted({int(d) for d in degrees})
    if not ds:
        return ()
    if ds[0] < 1:
        raise ValueError("sweep degrees must be positive")
    cap = SWEEP_DESK_CAP[n_plus]
    beyond = [d for d in ds if d > cap]
    if beyond and not long_run:
        raise ValueError(
            f"degrees {beyond} lie beyond the desk range for width {n_plus}; "
            "pass long_run=True to sweep them"
        )
    if beyond:
        warnings.warn(
            f"sweeping degrees up to {ds[-1]} at width {n_plus}; degrees past "
            f"{cap} take seconds each (about 4 s at degree 41 on one core)",
            RuntimeWarning,
            stacklevel=2,
        )
    tasks = [(n_plus, d) for d in ds]
    if jobs and jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            payloads = list(pool.map(_sweep_one, tasks))
    else:
        payloads = [_sweep_one(task) for task in tasks]
    return tuple(SweepCertificate.from_json(payload) for payload in payloads)
