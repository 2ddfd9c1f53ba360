"""Shared pytest wiring: the acceptance summary block and the wide census.

The acceptance tests record one line per criterion; the terminal-summary
hook prints them as a block at the end of the run so a plain ``pytest -v``
shows the verdicts without digging through captured output.
"""

import time
from contextlib import contextmanager

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def wide_census_run():
    """The census through six positive entries and degree nine, run once.

    Returns the report and, as (support, d, verdict) triples, every
    listed survivor that the pairing test does not exclude, with its
    verdict from ``fundamentality``: the supports that reach the kernel
    stage of ``_resolve_survivor``, also in the cells the census settles
    by rank, in the point order the listing gives them.  The census
    lists one of each mirror pair of sign survivors, so each support's
    mirror is recorded too: the triples cover every survivor that
    reaches the stage.
    """
    from chipsplit import enumeration
    from chipsplit.criteria import pairing_excludes
    from chipsplit.models import fundamentality

    listed = []
    representatives = enumeration._census_representatives

    def recording(points, combos, d):
        for entry in representatives(points, combos, d):
            listed.append((tuple(entry[1]), d))
            yield entry

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_census_representatives", recording)
        report = enumeration.enumerate_fundamental(9, 5)
    calls = []
    for support, d in listed:
        if pairing_excludes(((0, 0), *support), d):
            continue
        calls.append((support, d, fundamentality(support, d)))
        mirror = tuple(sorted((j, i) for i, j in support))
        if mirror != tuple(sorted(support)):
            calls.append((mirror, d, fundamentality(mirror, d)))
    return report, calls


@pytest.fixture(scope="session")
def wide_census(wide_census_run):
    """The census through six positive entries and degree nine."""
    return wide_census_run[0]


@pytest.fixture
def criterion():
    """Context manager recording a pass/fail line for one criterion."""

    @contextmanager
    def run(number, description):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            elapsed = time.perf_counter() - start
            ACCEPTANCE_LINES.append(
                f"criterion {number:2d}: FAIL  {description}  ({elapsed:.2f} s)"
            )
            raise
        elapsed = time.perf_counter() - start
        ACCEPTANCE_LINES.append(
            f"criterion {number:2d}: PASS  {description}  ({elapsed:.2f} s)"
        )

    return run


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
