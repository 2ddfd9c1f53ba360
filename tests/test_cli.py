"""End-to-end checks of the command-line front end.

Each command is exercised through ``click.testing.CliRunner`` against
small fixture files: a composite valid outcome, the first tightness
family member, and a deliberately broken triangle.  Exit codes follow
the documented triple (0 ok, 1 failed verification, 2 bad input).
"""

import ast
import contextlib
import functools
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chipsplit
from chipsplit import cli
from chipsplit.cli import _echo_json, _render, main
from chipsplit.enumeration import ConjectureReport, sweep_no_valid_outcomes, sweep_start
from chipsplit.grid import MAX_INPUT_DEGREE

SRC = str(Path(chipsplit.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent

# A valid outcome whose model splits into four fundamental pieces.
COMPOSITE_TRIANGLE = "1\n1 2\n-2 1 1\n"

# The degree-three tightness family member, as rendered output.
FAMILY_ONE_TRIANGLE = "1\n· ·\n· 3 ·\n-1 · · 1\n"

# One chip at the origin: parses fine, fails every outcome check.
LONE_CHIP = "1\n"

# Top row of a two-row triangle must hold exactly one entry.
BROKEN_TRIANGLE = "1 2\n3\n"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestParseAndRender:
    def test_parse_emits_the_json_form(self, runner, fixture_file):
        result = runner.invoke(main, ["parse", fixture_file("w.txt", COMPOSITE_TRIANGLE)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["ambient"] == 2
        assert [0, 0, "-2"] in payload["entries"]
        assert [1, 1, "2"] in payload["entries"]

    def test_render_reproduces_the_triangle(self, runner, fixture_file):
        result = runner.invoke(main, ["render", fixture_file("w.txt", COMPOSITE_TRIANGLE)])
        assert result.exit_code == 0
        assert result.output == COMPOSITE_TRIANGLE

    def test_render_accepts_json_input(self, runner, fixture_file):
        parsed = runner.invoke(main, ["parse", fixture_file("w.txt", FAMILY_ONE_TRIANGLE)])
        rendered = runner.invoke(
            main, ["render", fixture_file("w.json", parsed.output)]
        )
        assert rendered.exit_code == 0
        assert rendered.output == FAMILY_ONE_TRIANGLE

    def test_ascii_dot_swaps_the_empty_marker(self, runner, fixture_file):
        result = runner.invoke(
            main, ["render", "--ascii-dot", fixture_file("w.txt", FAMILY_ONE_TRIANGLE)]
        )
        assert result.exit_code == 0
        assert result.output == FAMILY_ONE_TRIANGLE.replace("·", ".")

    def test_missing_file_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["parse", str(tmp_path / "absent.txt")])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")

    def test_malformed_triangle_is_a_usage_error(self, runner, fixture_file):
        result = runner.invoke(main, ["parse", fixture_file("bad.txt", BROKEN_TRIANGLE)])
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert "expected 1" in result.stderr


    @pytest.mark.parametrize("command", ["render", "parse"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"entries": [5]}',
            '{"entries": [[0, 0, "1/0"]]}',
            "1/0\n",
            '{"entries": [[3000, 0, 1]]}',
            '{"entries": [[0, 1000000, 1]]}',
            '{"entries": [], "ambient": -2}',
            '{"entries": [[1, 1, "2"], [1, 1, "3"]]}',
        ],
    )
    def test_malformed_counts_and_entries_are_usage_errors(
        self, runner, fixture_file, command, text
    ):
        result = runner.invoke(main, [command, fixture_file("bad.txt", text)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("count", ["0.5", "1e5"])
    @pytest.mark.parametrize(
        "text",
        ['{{"entries": [[1, 0, "{}"]]}}', ".\n. {}\n"],
        ids=["json", "triangle"],
    )
    def test_unreadable_count_names_the_count_and_its_point(
        self, runner, fixture_file, text, count
    ):
        result = runner.invoke(main, ["parse", fixture_file("bad.txt", text.format(count))])
        assert result.exit_code == 2
        assert f"cannot read chip count '{count}' at (1, 0)" in result.stderr
        assert "int()" not in result.stderr

    @pytest.mark.parametrize("command", ["render", "is-outcome"])
    def test_triangle_and_json_share_the_degree_cap(self, runner, fixture_file, command):
        def dots(rows):
            return "\n".join(" ".join(["."] * (k + 1)) for k in range(rows)) + "\n"

        accepted = runner.invoke(main, [command, fixture_file("top.txt", dots(MAX_INPUT_DEGREE + 1))])
        assert accepted.exit_code == 0
        for text in (
            dots(MAX_INPUT_DEGREE + 2),
            json.dumps({"ambient": MAX_INPUT_DEGREE + 1, "entries": []}),
        ):
            refused = runner.invoke(main, [command, fixture_file("past.txt", text)])
            assert refused.exit_code == 2
            assert refused.stderr.startswith("error:")

    def test_undecodable_bytes_are_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1\n")
        result = runner.invoke(main, ["render", str(path)])
        assert result.exit_code == 2
        assert "UTF-8" in result.stderr


# Input texts for the fuzz test: free text, triangles built from tokens
# (some malformed), and JSON objects with loosely typed entries.
_TOKENS = st.sampled_from(["1", "-2", "3/2", "1/0", "0", ".", "·", "x", "1/", "-"])
_TRIANGLES = st.lists(
    st.lists(_TOKENS, min_size=1, max_size=6).map(" ".join), min_size=1, max_size=6
).map("\n".join)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(allow_nan=True),
    st.sampled_from(["1", "1/0", "-1/2", "x", ""]),
)
_JSON_ENTRIES = st.lists(
    st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=4)), max_size=4
)
_JSON_TEXTS = st.builds(
    lambda entries, ambient: json.dumps({"entries": entries, "ambient": ambient}),
    st.one_of(_JSON_ENTRIES, _JSON_SCALARS),
    _JSON_SCALARS,
)


# Every subcommand that reads a configuration file, with the exit codes
# it may give: 1 is a negative verdict, 2 is bad input.
_FILE_COMMAND_EXITS = {
    "render": (0, 2),
    "parse": (0, 2),
    "is-outcome": (0, 1, 2),
    "fundamental": (0, 1, 2),
    "decompose": (0, 2),
}


@pytest.mark.parametrize("command", list(_FILE_COMMAND_EXITS))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=st.one_of(st.text(), _TRIANGLES, _JSON_TEXTS))
def test_arbitrary_input_exits_cleanly(tmp_path, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    result = CliRunner().invoke(main, [command, str(path)])
    assert result.exit_code in _FILE_COMMAND_EXITS[command], repr(result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


class TestIsOutcome:
    def test_valid_outcome_passes(self, runner, fixture_file):
        result = runner.invoke(main, ["is-outcome", fixture_file("w.txt", COMPOSITE_TRIANGLE)])
        assert result.exit_code == 0
        assert result.output == "outcome: reachable at degree 2\n"

    @pytest.mark.parametrize(
        "text,witness",
        [
            (LONE_CHIP, "(0, 0) evaluates to 1"),
            # The forms checked lie on the ambient diagonal, not at degree 0.
            ('{"entries": [[0, 0, "1/3"]], "ambient": 3}', "(0, 3) evaluates to 1/3"),
        ],
    )
    def test_failure_names_a_witness_form(self, runner, fixture_file, text, witness):
        result = runner.invoke(main, ["is-outcome", fixture_file("chip.txt", text)])
        assert result.exit_code == 1
        assert f"top-edge form at {witness}" in result.output

    def test_one_chip_at_a_large_ambient_degree(self, runner, fixture_file):
        # The top-edge forms read only the occupied point, so this returns
        # at once instead of tabulating 501 triangles of coefficients.
        text = '{"entries": [[0, 0, "1/3"]], "ambient": 500}'
        result = runner.invoke(main, ["is-outcome", fixture_file("chip.json", text)])
        assert result.exit_code == 1
        assert "not an outcome" in result.output

    def test_json_verdict(self, runner, fixture_file):
        result = runner.invoke(
            main, ["is-outcome", "--json", fixture_file("w.txt", FAMILY_ONE_TRIANGLE)]
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {"outcome": True, "degree": 3}


class TestFundamental:
    def test_family_member_is_fundamental(self, runner, fixture_file):
        result = runner.invoke(
            main, ["fundamental", fixture_file("w.txt", FAMILY_ONE_TRIANGLE)]
        )
        assert result.exit_code == 0
        assert result.output == "fundamental outcome of degree 3\n"

    def test_composite_outcome_is_not(self, runner, fixture_file):
        result = runner.invoke(
            main, ["fundamental", fixture_file("w.txt", COMPOSITE_TRIANGLE)]
        )
        assert result.exit_code == 1
        assert "carries no fundamental outcome" in result.output

    def test_non_outcome_reports_both_reasons(self, runner, fixture_file):
        result = runner.invoke(main, ["fundamental", fixture_file("chip.txt", LONE_CHIP)])
        assert result.exit_code == 1
        assert "not an outcome" in result.output
        assert "chip debt at the origin" in result.output

    def test_json_verdict_lists_the_support(self, runner, fixture_file):
        result = runner.invoke(
            main, ["fundamental", "--json", fixture_file("w.txt", FAMILY_ONE_TRIANGLE)]
        )
        payload = json.loads(result.output)
        assert payload["fundamental"] is True
        assert payload["degree"] == 3
        assert payload["positive_support"] == [[0, 3], [1, 1], [3, 0]]
        assert payload["reasons"] == []


class TestDecompose:
    def test_composite_chain(self, runner, fixture_file):
        result = runner.invoke(
            main, ["decompose", fixture_file("w.txt", COMPOSITE_TRIANGLE)]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "composite of 4 fundamental model(s)"
        assert lines[1] == "  model 1 (degree 1): 1*(0,1) + 1*(1,0)"
        assert lines[-3:] == ["  mu_1 = 1/4", "  mu_2 = 1/3", "  mu_3 = 1/2"]

    def test_composite_chain_as_json(self, runner, fixture_file):
        result = runner.invoke(
            main, ["decompose", "--json", fixture_file("w.txt", COMPOSITE_TRIANGLE)]
        )
        payload = json.loads(result.output)
        assert payload["mus"] == ["1/4", "1/3", "1/2"]
        assert len(payload["models"]) == 4
        assert payload["models"][0]["terms"] == [[1, 1, 0, 1], [1, 1, 1, 0]]

    def test_fundamental_outcome_is_its_own_chain(self, runner, fixture_file):
        result = runner.invoke(
            main, ["decompose", fixture_file("w.txt", FAMILY_ONE_TRIANGLE)]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "composite of 1 fundamental model(s)"

    def test_non_outcome_is_a_usage_error(self, runner, fixture_file):
        result = runner.invoke(main, ["decompose", fixture_file("chip.txt", LONE_CHIP)])
        assert result.exit_code == 2
        assert "error:" in result.stderr


@pytest.mark.parametrize(
    "args,artifact",
    [
        ("enumerate --max-degree 3 --max-support 3 --json", "results/census-n2-d3.json"),
        ("enumerate --max-degree 7 --max-support 5 --json", "tests/golden/census-n4-d7.json"),
        ("sweep --support 4 --max-degree 11 --summary", "results/sweep-4-d11.json"),
    ],
)
def test_cli_writes_the_committed_artifact(runner, args, artifact):
    result = runner.invoke(main, args.split())
    assert result.exit_code == 0
    assert result.output == (ROOT / artifact).read_text()


def test_readme_experiments_parse():
    # make_context parses and validates a command line without running it.
    block = (ROOT / "README.md").read_text().split("## Experiments", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("chipsplit ")]
    assert len(lines) == 6
    for line in lines:
        words = shlex.split(line)
        redirect = words.index(">")
        assert (ROOT / words[redirect + 1]).is_file(), line
        group = main.make_context("chipsplit", words[1:redirect])
        name, command, rest = main.resolve_command(group, words[1:redirect])
        command.make_context(name, rest, parent=group)


def readme_samples():
    """Each ``$ chipsplit`` sample under Command line, with its printed lines."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    samples = []
    for block in section.split("```")[1::2]:
        for chunk in block.strip("\n").split("\n\n"):
            command, *printed = chunk.splitlines()
            if command.startswith("$ chipsplit "):
                samples.append((command[len("$ chipsplit "):], printed))
    return samples


@pytest.mark.parametrize("command,printed", [pytest.param(c, p, id=c) for c, p in readme_samples()])
def test_readme_samples_print_what_they_show(runner, command, printed):
    # The printed lines appear in order; a "..." line skips ahead.
    result = runner.invoke(main, shlex.split(command))
    assert result.exit_code == 0
    lines = iter(result.output.splitlines())
    skipping = False
    for expected in printed:
        if expected == "...":
            skipping = True
            continue
        if skipping:
            assert expected in lines, expected
        else:
            assert next(lines, None) == expected
        skipping = False


def test_readme_shows_three_samples():
    assert [command for command, _ in readme_samples()] == [
        "family --k 1 --render",
        "sweep --support 4 --max-degree 11",
        "gamma --parity even",
    ]


class TestEnumerate:
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_a_degree_bound_violation_fails_in_both_modes(self, runner, monkeypatch, mode):
        args = ["enumerate", "--max-degree", "3", "--max-support", "3", *mode]
        clean = runner.invoke(main, args)
        monkeypatch.setattr(cli, "check_conjecture", lambda report: ConjectureReport(False, (), (), {}))
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr == "degree bound violated!\n"
        assert result.stdout == clean.stdout
        if mode:
            assert result.stdout == (ROOT / "results/census-n2-d3.json").read_text()

    def test_human_readable_rows(self, runner):
        result = runner.invoke(main, ["enumerate", "--max-degree", "3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert "support 2 (n=1):  d=1: 1  (total 1)" in lines
        assert "support 3 (n=2):  d=2: 3  d=3: 1  (total 4)" in lines
        assert "support 4 (n=3):  d=3: 12  (total 12)" in lines
        assert "outcomes: 17" in lines

    def test_degree_one_alone(self, runner):
        result = runner.invoke(main, ["enumerate", "--max-degree", "1", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["table"] == [[1, 1, 1]]


class TestSweep:
    def test_width_four_desk_range_holds(self, runner):
        result = runner.invoke(main, ["sweep", "--support", "4", "--max-degree", "11"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "degree 6: 5 sign survivors (invertibility: 5) -> holds"
        assert lines[1] == "degree 7: 3 sign survivors (invertibility: 3) -> holds"
        assert lines[-1] == (
            "no valid outcome with 4 positive entries in degrees 6..11"
        )

    def test_width_five_first_degree_holds(self, runner):
        result = runner.invoke(
            main, ["sweep", "--support", "5", "--max-degree", "8", "--json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["holds"] is True
        (cert,) = payload["certificates"]
        assert cert["d"] == 8
        assert len(cert["sign_survivors"]) == 792

    def test_degree_below_the_sweep_start(self, runner):
        result = runner.invoke(main, ["sweep", "--support", "4", "--max-degree", "5"])
        assert result.exit_code == 2
        assert "at least 6" in result.stderr

    def test_width_two_starts_at_degree_two(self, runner):
        result = runner.invoke(main, ["sweep", "--support", "2", "--max-degree", "3"])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == (
            "no valid outcome with 2 positive entries in degrees 2..3"
        )

    @pytest.mark.parametrize("width", ["1", "0", "two"])
    def test_width_below_two_is_a_usage_error(self, runner, width):
        result = runner.invoke(main, ["sweep", "--support", width, "--max-degree", "9"])
        assert result.exit_code == 2


def old_rendering(payload) -> str:
    """The oracle: the bytes every --json report had before the streaming writer."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class Recorder:
    """A standard output that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def written(payload) -> str:
    out = Recorder()
    with contextlib.redirect_stdout(out):
        _echo_json(payload)
    return "".join(out.writes)


json_text = st.text(st.sampled_from('az"\\/\n\t\x00\x1f\x7fé€\u2028😀') | st.characters(), max_size=6)
json_leaf = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-100, max_value=100)
    | st.integers(min_value=-(10**40), max_value=10**40)
    | json_text
)
json_payload = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_payload)
    def test_writer_matches_json_dumps(self, payload):
        assert _render(payload) + "\n" == old_rendering(payload)
        assert written(payload) == old_rendering(payload)

    @pytest.mark.parametrize(
        "payload",
        [1.5, 0.0, Fraction(1, 2), {"a": [1, 2.5]}, {"a": (Fraction(3),)}, [{"b": {"c": -0.25}}]],
    )
    def test_floats_and_fractions_are_refused(self, payload):
        with pytest.raises(TypeError):
            _render(payload)
        with pytest.raises(TypeError):
            written(payload)

    def test_keys_must_be_text(self):
        # json.dumps would turn the key 1 into "1"; no report has such a key.
        with pytest.raises(TypeError):
            _render({1: "a"})

    def test_a_map_value_streams_like_a_list(self):
        payload = {"z": 0, "items": [[1, [2]], {"k": None}], "empty": []}
        lazy = {**payload, "items": map(lambda x: x, payload["items"]), "empty": map(str, [])}
        assert written(lazy) == old_rendering(payload)


@functools.cache
def sweep_payload(n_plus, max_degree):
    certificates = sweep_no_valid_outcomes(n_plus, range(sweep_start(n_plus), max_degree + 1))
    return {"holds": True, "certificates": [c.to_json() for c in certificates]}


class TestSweepReport:
    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
    def test_width_five_report_is_the_old_rendering(self, runner, jobs):
        result = runner.invoke(main, ["sweep", "--support", "5", "--max-degree", "10", "--json", *jobs])
        assert result.exit_code == 0
        payload = sweep_payload(5, 10)
        assert [len(c["sign_survivors"]) for c in payload["certificates"]] == [792, 882, 950]
        assert result.output == old_rendering(payload)

    def test_width_four_report_with_empty_survivor_lists(self, runner):
        result = runner.invoke(main, ["sweep", "--support", "4", "--max-degree", "9", "--json"])
        assert result.exit_code == 0
        payload = sweep_payload(4, 9)
        assert [c["sign_survivors"] for c in payload["certificates"][-2:]] == [[], []]
        assert result.output == old_rendering(payload)

    def test_report_is_written_one_certificate_at_a_time(self, monkeypatch):
        # No write holds more than one certificate, so the report is never
        # rendered whole; the bound needs no timing or memory threshold.
        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        args = ["sweep", "--support", "5", "--max-degree", "10", "--json"]
        with pytest.raises(SystemExit) as exit_info:
            main.main(args=args, prog_name="chipsplit", standalone_mode=False)
        assert exit_info.value.code == 0
        certificates = sweep_payload(5, 10)["certificates"]
        assert "".join(out.writes) == old_rendering(sweep_payload(5, 10))
        assert len(out.writes) >= len(certificates)
        separator = ",\n    "
        longest = max(len(_render(c, "\n    ")) for c in certificates) + len(separator)
        assert max(len(w) for w in out.writes) <= longest


class TestGamma:
    def test_even_parity_count(self, runner):
        result = runner.invoke(main, ["gamma", "--parity", "even"])
        assert result.exit_code == 0
        assert result.output == (
            "gamma set (even degrees, 5 positive entries): 1283 contraction points\n"
        )

    def test_small_support_is_empty(self, runner):
        result = runner.invoke(main, ["gamma", "--parity", "odd", "--support", "4"])
        assert result.exit_code == 0
        assert "0 contraction points" in result.output

    def test_json_members_match_the_count(self, runner):
        result = runner.invoke(main, ["gamma", "--parity", "even", "--json"])
        payload = json.loads(result.output)
        assert payload["count"] == 1283
        assert len(payload["members"]) == 1283


class TestHexagon:
    def test_desk_range_is_all_nonzero(self, runner):
        result = runner.invoke(main, ["hexagon", "--max-degree", "8"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "checked 27 admissible (d, d', l1) triples up to degree 8"
        assert lines[1] == "all determinants nonzero"
        assert "literal-index product disagrees" in lines[2]

    def test_json_report(self, runner):
        result = runner.invoke(main, ["hexagon", "--max-degree", "8", "--json"])
        payload = json.loads(result.output)
        assert payload["checked"] == 27
        assert payload["zero_determinants"] == []
        assert payload["conventions"] == {"shifted": 27}

    def test_note_follows_the_tally(self, runner, monkeypatch):
        # One triple matching the other convention must not be reported
        # under the all-shifted note.
        real = cli.hexagon_determinant
        first = (4, 1, 1)

        def one_literal(d, d_small, ell1):
            result = real(d, d_small, ell1)
            return replace(result, matching="literal") if (d, d_small, ell1) == first else result

        monkeypatch.setattr(cli, "hexagon_determinant", one_literal)
        result = runner.invoke(main, ["hexagon", "--max-degree", "8", "--json"])
        payload = json.loads(result.output)
        assert payload["conventions"] == {"literal": 1, "shifted": 26}
        assert payload["note"] == (
            "direct determinants match the superfactorial conventions as tallied: literal 1, shifted 26"
        )
        lines = runner.invoke(main, ["hexagon", "--max-degree", "8"]).output.splitlines()
        assert "literal-index product disagrees" not in lines[2]


class TestPipeline:
    def test_json_counts(self, runner):
        result = runner.invoke(main, ["pipeline", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["counts"] == {
            "invertibility": 2272,
            "symmetry": 13,
            "hexagon": 3,
            "special": 2,
            "survivor": 0,
        }

    def test_human_summary(self, runner):
        result = runner.invoke(main, ["pipeline"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "cases: 2290"
        assert lines[-1] == "  survivors: 0"


class TestFamily:
    def test_inline_render_elides_blank_rows(self, runner):
        result = runner.invoke(main, ["family", "--k", "1", "--render"])
        assert result.exit_code == 0
        assert result.output == "1 / · 3 · / -1 · · 1\n"

    def test_smallest_member(self, runner):
        result = runner.invoke(main, ["family", "--k", "0", "--render"])
        assert result.exit_code == 0
        assert result.output == "1 / -1 1\n"

    def test_summary_line(self, runner):
        result = runner.invoke(main, ["family", "--k", "1"])
        assert result.exit_code == 0
        assert result.output == "degree 3, 3 positive entries, origin debt 1\n"

    def test_json_entries(self, runner):
        result = runner.invoke(main, ["family", "--k", "1", "--json"])
        payload = json.loads(result.output)
        assert payload["ambient"] == 3
        assert [1, 1, "3"] in payload["entries"]

    def test_every_member_printed_reads_back(self, runner, fixture_file):
        # Member k has degree 2k + 1, and the file-taking commands read
        # degrees up to 500, so k stops at 249.
        result = runner.invoke(main, ["family", "--k", "250", "--json"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        member = runner.invoke(main, ["family", "--k", "249", "--json"])
        assert member.exit_code == 0
        result = runner.invoke(main, ["fundamental", fixture_file("family.json", member.output)])
        assert result.exit_code == 0
        assert result.output == "fundamental outcome of degree 499\n"


def test_importing_the_cli_leaves_numpy_unloaded():
    code = "import sys, chipsplit.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # Only a sweep with --jobs above one starts a process pool.
    code = "import sys, chipsplit.cli; sys.exit('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


FLOAT_MATH = {"sqrt", "log", "exp", "pow", "floor", "ceil"}


def test_the_library_has_no_float():
    # Exact arithmetic only: no float literal, no float() call and no
    # float-valued math function. True division stays allowed, because
    # the library divides Fractions.
    paths = sorted(Path(chipsplit.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((path.name, node.lineno, repr(node.value)))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append((path.name, node.lineno, "float()"))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in FLOAT_MATH
            ):
                found.append((path.name, node.lineno, f"math.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [(path.name, node.lineno, a.name) for a in node.names if a.name in FLOAT_MATH]
    assert found == []


@pytest.mark.parametrize(
    "args, span, calls",
    [
        (["enumerate", "--max-degree", "5", "--json"], "models.fundamentality", 1),
        (["sweep", "--support", "5", "--max-degree", "9", "--json"], "enumeration.sign_survivor_search", 2),
        (["pipeline", "--json"], "pipeline.relset_pipeline", 1170),
    ],
    ids=["enumerate", "sweep", "pipeline"],
)
def test_bench_tracer_finds_every_name_it_patches(runner, args, span, calls):
    # bench/child.py wraps library functions by attribute name, and some
    # of its hooks unpack what the wrapped function returns, so a renamed
    # function, or one that returns something else, would fail every
    # traced sample. Its main() imports numpy, so this drives the tracer
    # without it, catching SystemExit as main() does, on each workload's
    # path, and checks that the span its layer metrics read is called.
    code = "\n".join([
        "import json, sys",
        "sys.path.insert(0, 'bench')",
        "from child import Tracer",
        "import chipsplit.cli",
        "tracer = Tracer()",
        "tracer.install()",
        "try:",
        "    chipsplit.cli.main.main(args=sys.argv[1:], prog_name='chipsplit')",
        "except SystemExit as exc:",
        "    assert not exc.code, exc.code",
        "sys.stdout.flush()",
        "print(json.dumps({name: record[0] for name, record in tracer.spans.items()}), file=sys.stderr)",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    traced = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == runner.invoke(main, args).output
    spans = json.loads(traced.stderr.splitlines()[-1])
    assert spans["cli.entry"] == 1
    assert spans[span] == calls


def _bench_workloads():
    # bench/workloads.py is not a package module, so it is loaded by path.
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


BENCH_WORKLOADS = _bench_workloads()


@pytest.mark.parametrize("args, check", list(BENCH_WORKLOADS.values()), ids=list(BENCH_WORKLOADS))
def test_bench_workload_passes_its_own_output_check(runner, args, check):
    # The benchmark rejects a sample whose output fails this check; the
    # sweep's check compares the survivor lists of d = 8..20 by digest.
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert check(result.stdout_bytes, ROOT) == []


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output.strip() == "0.1.0"
