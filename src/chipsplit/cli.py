"""Command-line front end.

Every subcommand wraps one library entry point and keeps its output
exact: chip counts and mixture weights print as integers or p/q
fractions, never floats.  Exit status follows the usual triple: 0 when
the requested check or computation succeeds, 1 when a verification
fails (a configuration that is not an outcome, a sweep that found a
counterexample), 2 for usage errors including unreadable or malformed
input files.

Configuration files are accepted in either format: the rendered
triangle (rows top down, ``·`` or ``.`` for empty points) or the JSON
object emitted by ``chipsplit parse``.

The committed census, sweep and pipeline artifacts are the standard
output of ``enumerate --json``, ``sweep --summary`` and ``pipeline
--json``; their JSON is indented and key-sorted, so equal results
print equal bytes.

Every ``--json`` and ``--summary`` report goes through one writer,
``_echo_json``. Its bytes are exactly those of ``json.dumps`` with
``indent=2`` and ``sort_keys=True``, plus a newline, but it renders with
the C string escaper and writes to standard output piece by piece, and
it rejects any float.  ``sweep --json`` streams per certificate and
``pipeline --json`` per case: each one's JSON is built and rendered only
when it is written, so the report never sits in memory whole.
"""

from __future__ import annotations

import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click

from . import __version__
from .criteria import hexagon_determinant
from .enumeration import (
    SweepCertificate,
    check_conjecture,
    enumerate_fundamental,
    sweep_no_valid_outcomes,
    sweep_start,
    sweep_summary,
)
from .grid import MAX_INPUT_DEGREE, ChipConfiguration, config_from_json, config_record, config_to_json
from .grid import parse as parse_triangle
from .grid import render as render_triangle
from .hyperfield import gamma_set
from .models import decompose, is_fundamental, model_record, outcome_to_model, tightness_family
from .pascal import is_outcome, top_edge_values
from .pipeline import STAGES, CaseVerdict, pipeline_summary


def _input_error(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_configuration(path: str) -> ChipConfiguration:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _input_error(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _input_error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    try:
        if text.lstrip().startswith("{"):
            return config_from_json(text)
        return parse_triangle(text)
    except ValueError as exc:
        _input_error(f"{path}: {exc}")


# How each JSON leaf renders, by exact type: bool is kept apart from
# int, and a float, a Fraction or any other type has no entry.
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _key(key) -> str:
    if type(key) is not str:
        raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _render(value, pad: str = "\n") -> str:
    """value as ``json.dumps`` renders it with ``indent=2`` and ``sort_keys=True``.

    pad is the newline and indentation of the line value starts on.
    Raises TypeError on any leaf outside ``_LEAVES``, so no float can
    reach a report.
    """
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_key(k) + ": " + _render(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in value]) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _echo_json(payload):
    """Write payload to standard output as ``_render`` renders it, plus a newline.

    A top-level object is written one member at a time, and a list,
    tuple or map among its values one element at a time, so a map
    renders each element only when it is written. The bytes are those
    ``json.dumps`` gives with ``indent=2`` and ``sort_keys=True``, plus
    a newline.
    """
    out = sys.stdout
    if not isinstance(payload, dict) or not payload:
        out.write(_render(payload) + "\n")
        out.flush()
        return
    opening = "{\n  "
    for key, value in sorted(payload.items()):
        out.write(opening + _key(key) + ": ")
        opening = ",\n  "
        if not isinstance(value, (list, tuple, map)):
            out.write(_render(value, "\n  "))
            continue
        separator = "[\n    "
        for element in value:
            out.write(separator + _render(element, "\n    "))
            separator = ",\n    "
        out.write("[]" if separator == "[\n    " else "\n  ]")
    out.write("\n}\n")
    out.flush()


@click.group()
@click.version_option(version=__version__, message="%(version)s")
def main():
    """Chipsplitting games: outcomes, censuses, and exclusion sweeps."""


@main.command()
@click.argument("file", type=click.Path())
@click.option("--ascii-dot", is_flag=True, help="Mark empty points with '.' instead of '·'.")
def render(file, ascii_dot):
    """Draw a configuration file as a triangle."""
    config = _load_configuration(file)
    click.echo(render_triangle(config, empty="." if ascii_dot else "·"))


@main.command("parse")
@click.argument("file", type=click.Path())
def parse_command(file):
    """Read a triangle file and emit the configuration as JSON."""
    config = _load_configuration(file)
    click.echo(config_to_json(config))


@main.command("is-outcome")
@click.argument("file", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="Machine-readable verdict.")
def is_outcome_command(file, as_json):
    """Check whether a configuration is reachable from the empty board."""
    config = _load_configuration(file)
    verdict = is_outcome(config)
    degree = max(config.degree, 0)
    if as_json:
        _echo_json({"outcome": verdict, "degree": degree})
    elif verdict:
        click.echo(f"outcome: reachable at degree {degree}")
    else:
        values = top_edge_values(config)
        level = len(values) - 1
        bad = next(a for a, v in enumerate(values) if v != 0)
        click.echo(
            f"not an outcome: top-edge form at ({bad}, {level - bad}) "
            f"evaluates to {values[bad]}"
        )
    sys.exit(0 if verdict else 1)


@main.command("fundamental")
@click.argument("file", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="Machine-readable verdict.")
def fundamental_command(file, as_json):
    """Check whether a configuration is a fundamental outcome."""
    config = _load_configuration(file)
    reasons = []
    if not is_outcome(config):
        reasons.append("not an outcome")
    if config[(0, 0)] >= 0 or not config.is_valid():
        reasons.append("not valid with a chip debt at the origin")
    verdict = not reasons and is_fundamental(config.positive_support, config.degree)
    if not verdict and not reasons:
        reasons.append("its positive support carries no fundamental outcome")
    if as_json:
        _echo_json(
            {
                "fundamental": verdict,
                "degree": config.degree,
                "positive_support": sorted(config.positive_support),
                "reasons": reasons,
            }
        )
    elif verdict:
        click.echo(f"fundamental outcome of degree {config.degree}")
    else:
        click.echo("not fundamental: " + "; ".join(reasons))
    sys.exit(0 if verdict else 1)


@main.command("decompose")
@click.argument("file", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="Machine-readable chain.")
def decompose_command(file, as_json):
    """Write a valid outcome's model as a chain of fundamental models."""
    config = _load_configuration(file)
    try:
        model = outcome_to_model(config)
        chain = decompose(model)
    except ValueError as exc:
        _input_error(f"{file}: {exc}")
    if as_json:
        _echo_json(
            {
                "models": [model_record(m) for m in chain.models],
                "mus": [str(mu) for mu in chain.mus],
            }
        )
        return
    click.echo(f"composite of {len(chain.models)} fundamental model(s)")
    for index, m in enumerate(chain.models, start=1):
        terms = " + ".join(f"{w}*({i},{j})" for w, i, j in m.terms)
        click.echo(f"  model {index} (degree {m.degree}): {terms}")
    for index, mu in enumerate(chain.mus, start=1):
        click.echo(f"  mu_{index} = {mu}")


@main.command("enumerate")
@click.option("--max-degree", type=click.IntRange(1), required=True)
@click.option("--max-support", type=click.IntRange(2), default=None,
              help="Largest number of positive entries to count "
                   "[default: min(6, max-degree + 1)].")
@click.option("--json", "as_json", is_flag=True, help="Full report as JSON.")
def enumerate_command(max_degree, max_support, as_json):
    """Census of fundamental outcomes up to a degree bound."""
    n_max = (max_support - 1) if max_support else min(5, max_degree)
    report = enumerate_fundamental(max_degree, n_max)
    if as_json:
        _echo_json(report.to_json())
    else:
        for n in sorted({cell[0] for cell in report.table}):
            row = {d: c for (m, d), c in report.table.items() if m == n}
            cells = "  ".join(f"d={d}: {row[d]}" for d in sorted(row))
            click.echo(f"support {n + 1} (n={n}):  {cells}  (total {sum(row.values())})")
        click.echo(f"outcomes: {len(report.outcomes)}")
    if not check_conjecture(report).holds:
        click.echo("degree bound violated!", err=True)
        sys.exit(1)


@main.command("sweep")
@click.option("--support", "n_plus", type=click.IntRange(2), required=True,
              help="Number of positive entries to rule out; the sweep starts "
                   "at degree 2 * support - 2.")
@click.option("--max-degree", type=click.IntRange(1), required=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--summary", is_flag=True,
              help="Per-degree counts and verdicts as JSON, without the survivor "
                   "lists; takes precedence over --json.")
@click.option("--jobs", type=click.IntRange(1), default=None,
              help="Worker processes, at most one per degree; the output "
                   "does not depend on it.")
def sweep_command(n_plus, max_degree, as_json, summary, jobs):
    """Certify degrees that host no valid outcome of a given width."""
    start = sweep_start(n_plus)
    if max_degree < start:
        _input_error(f"--max-degree must be at least {start} for width {n_plus}")
    certificates = sweep_no_valid_outcomes(
        n_plus, range(start, max_degree + 1), jobs=jobs
    )
    holds = all(cert.holds for cert in certificates)
    if summary:
        _echo_json(sweep_summary(n_plus, certificates))
    elif as_json:
        _echo_json(
            {
                "holds": holds,
                "certificates": map(SweepCertificate.to_json, certificates),
            }
        )
    else:
        for row in sweep_summary(n_plus, certificates)["summaries"]:
            detail = ", ".join(f"{how}: {count}" for how, count in row["resolutions"].items())
            state = "holds" if row["holds"] else "REFUTED"
            click.echo(
                f"degree {row['degree']}: {row['sign_survivors']} sign survivors "
                f"({detail or 'none'}) -> {state}"
            )
        click.echo(
            f"no valid outcome with {n_plus} positive entries in degrees "
            f"{start}..{max_degree}" if holds else "sweep refuted; see above"
        )
    sys.exit(0 if holds else 1)


@main.command("gamma")
@click.option("--parity", type=click.Choice(["even", "odd"]), required=True)
@click.option("--support", type=click.IntRange(1, 5), default=5, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Include the members.")
def gamma_command(parity, support, as_json):
    """Count the contraction points surviving every descended form."""
    members = gamma_set(parity, support)
    if as_json:
        _echo_json(
            {
                "parity": parity,
                "support": support,
                "count": len(members),
                "members": [p.record() for p in members],
            }
        )
    else:
        click.echo(
            f"gamma set ({parity} degrees, {support} positive entries): "
            f"{len(members)} contraction points"
        )


@main.command("pipeline")
@click.option("--json", "as_json", is_flag=True, help="Counts and per-case verdicts.")
def pipeline_command(as_json):
    """Run every high-degree contraction case through the eliminators."""
    report = pipeline_summary()
    survivors = report.survivors()
    if as_json:
        _echo_json({"counts": report.counts, "cases": map(CaseVerdict.to_json, report.verdicts)})
    else:
        total = len(report.verdicts)
        click.echo(f"cases: {total}")
        for stage in STAGES:
            click.echo(f"  eliminated by {stage}: {report.counts[stage]}")
        click.echo(f"  survivors: {report.counts['survivor']}")
    sys.exit(0 if not survivors else 1)


def _admissible_hexagons(d_max: int):
    for d in range(3, d_max + 1):
        for d_small in range(1, d // 3 + 1):
            for ell1 in range(d_small, d - 2 * d_small + 1):
                if d - d_small - ell1 >= d_small:
                    yield d, d_small, ell1


@main.command("hexagon")
@click.option("--max-degree", type=click.IntRange(3), default=20, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def hexagon_command(max_degree, as_json):
    """Verify the hexagon determinants up to a degree bound."""
    checked = 0
    zeros = []
    conventions = Counter()
    for d, d_small, ell1 in _admissible_hexagons(max_degree):
        result = hexagon_determinant(d, d_small, ell1)
        checked += 1
        conventions[result.matching] += 1
        if not result.nonzero():
            zeros.append((d, d_small, ell1))
    tally = ", ".join(f"{name} {count}" for name, count in sorted(conventions.items()))
    note = (
        "direct determinants match the shifted superfactorial product; "
        "the literal-index product disagrees"
        if set(conventions) == {"shifted"}
        else f"direct determinants match the superfactorial conventions as tallied: {tally}"
    )
    if as_json:
        _echo_json(
            {
                "max_degree": max_degree,
                "checked": checked,
                "zero_determinants": [list(t) for t in zeros],
                "conventions": dict(sorted(conventions.items())),
                "note": note,
            }
        )
    else:
        click.echo(f"checked {checked} admissible (d, d', l1) triples up to degree {max_degree}")
        click.echo("all determinants nonzero" if not zeros else f"ZERO determinants at {zeros}")
        click.echo(f"convention: {note} ({dict(sorted(conventions.items()))})")
    sys.exit(0 if not zeros else 1)


@main.command("family")
# Member k has degree 2k + 1, so every member printed can be read back by the file-taking commands.
@click.option("--k", type=click.IntRange(0, (MAX_INPUT_DEGREE - 1) // 2), required=True)
@click.option("--render", "do_render", is_flag=True,
              help="Print the triangle inline, blank rows elided.")
@click.option("--json", "as_json", is_flag=True)
def family_command(k, do_render, as_json):
    """The degree-(2k+1) outcome family attaining the conjectured bound."""
    outcome = tightness_family(k)
    if not is_outcome(outcome):
        click.echo("family member failed the outcome check", err=True)
        sys.exit(1)
    if as_json:
        _echo_json(config_record(outcome))
        return
    if do_render:
        lines = render_triangle(outcome).splitlines()
        filled = [line for line in lines if any(t not in ("·", ".") for t in line.split())]
        click.echo(" / ".join(filled))
        return
    click.echo(
        f"degree {outcome.degree}, {len(outcome.positive_support)} positive entries, "
        "origin debt " + str(-outcome[(0, 0)])
    )


if __name__ == "__main__":
    main()
