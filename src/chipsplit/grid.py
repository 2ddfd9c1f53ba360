"""Chip configurations on the triangular grid, games, and the S3 symmetry.

The playing field of degree d is the triangle of lattice points
{(i, j) : i, j >= 0, i + j <= d}. A chip configuration assigns a rational
number of chips to each point (almost all zero). A game is a multiset of
splitting moves; the move at p takes one chip off p and puts one chip on
each of p + (1, 0) and p + (0, 1). Moves commute, so a game is just a map
from grid points to integer multiplicities, and applying it is linear.

This module owns the triangle's rules: which points it holds
(``check_inside``, ``check_fits``), how the symmetric group on three
letters moves them, and what sign a moved entry carries. A permutation
permutes the barycentric coordinates (i, j, k), k = d - i - j, and
``_SLOTS`` names the two of them that the image's (i, j) reads. On bare
points that is the whole action. On configurations the entry at a point
also picks up the sign (-1)^(k + k'), k and k' the point's third
coordinate before and after the move, which is what sends outcomes to
outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Coord = tuple[int, int]
Value = int | Fraction

# Each permutation's image of (i, j) reads these slots of (i, j, k).
_SLOTS = {"e": (0, 1), "(12)": (1, 0), "(13)": (2, 1), "(23)": (0, 2), "(123)": (2, 0), "(132)": (1, 2)}
PERMUTATIONS = tuple(_SLOTS)

# Largest degree accepted from a JSON file or a triangle, well above the
# degree 41 the sweeps reach; it keeps a rendered triangle at a few
# hundred kilobytes.
MAX_INPUT_DEGREE = 500


def degree_order(p: Coord) -> tuple[int, int]:
    """Sort key of the (degree, i) order every point listing uses."""
    return (p[0] + p[1], p[0])


def grid_points(d: int) -> list[Coord]:
    """All points of the degree-d triangle, sorted by total degree then i."""
    if d < 0:
        return []
    return [(i, e - i) for e in range(d + 1) for i in range(e + 1)]


def is_inside(points: Iterable[Coord], d: int) -> bool:
    """Whether every point lies in the degree-d triangle."""
    return all(i >= 0 and j >= 0 and i + j <= d for i, j in points)


def check_inside(points: Iterable[Coord], d: int) -> None:
    """Raise unless every point lies in the degree-d triangle."""
    if not is_inside(points, d):
        raise ValueError(f"support must lie inside the degree-{d} triangle")


def check_fits(config: ChipConfiguration, d: int) -> None:
    """Raise unless the configuration's support fits in the degree-d triangle."""
    if config.degree > d:
        raise ValueError(f"configuration of degree {config.degree} does not fit in degree {d}")


def act_point(sigma: str, point: Coord, d: int) -> Coord:
    """Image of a grid point under the triangle symmetry of ambient degree d."""
    try:
        a, b = _SLOTS[sigma]
    except KeyError:
        raise ValueError(f"unknown permutation {sigma!r}") from None
    ijk = (*point, d - point[0] - point[1])
    return (ijk[a], ijk[b])


# The group law is read off the point action: the probe (0, 1) at degree
# 3 has barycentric coordinates (0, 1, 2), so the six permutations send
# it to six different points, and a product is named by the probe's image.
_BY_PROBE_IMAGE = {act_point(sigma, (0, 1), 3): sigma for sigma in PERMUTATIONS}


def compose(sigma: str, tau: str) -> str:
    """The permutation doing tau first, then sigma."""
    return _BY_PROBE_IMAGE[act_point(sigma, act_point(tau, (0, 1), 3), 3)]


def invert(sigma: str) -> str:
    return next(tau for tau in PERMUTATIONS if compose(sigma, tau) == "e")


def _sign_factor(sigma: str, point: Coord, d: int) -> int:
    """The sign (-1)^(k + k') that ``act`` puts on the entry at a point."""
    k = d - point[0] - point[1]
    moved = act_point(sigma, point, d)
    return -1 if (k + d - moved[0] - moved[1]) % 2 else 1


def _coerce(value: Value) -> Value:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _parse_value(token: str, point: Coord) -> Value:
    """Read one chip count, an integer or a fraction like 3/2, found at point."""
    try:
        if "/" in token:
            return Fraction(token)
        return int(token)
    except ZeroDivisionError:
        raise ValueError(f"chip count {token!r} at {point} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"cannot read chip count {token!r} at {point}") from None


class ChipConfiguration:
    """An assignment of rational chip counts to grid points, almost all zero.

    Immutable. Only nonzero entries are stored. The optional ambient degree
    bounds the triangle the configuration is thought of as living on; it
    matters for rendering, validity checks, and the symmetry action, and
    must be at least the degree of the support.
    """

    __slots__ = ("_entries", "_ambient")

    def __init__(self, entries: Mapping[Coord, Value] | Iterable[tuple[Coord, Value]] = (), ambient: int | None = None):
        items = entries.items() if isinstance(entries, Mapping) else entries
        cleaned: dict[Coord, Value] = {}
        for (i, j), v in items:
            if i < 0 or j < 0:
                raise ValueError(f"point ({i}, {j}) is outside the nonnegative quadrant")
            v = _coerce(Fraction(v) if not isinstance(v, (int, Fraction)) else v)
            if v != 0:
                cleaned[(i, j)] = v
        if ambient is not None:
            too_big = [p for p in cleaned if p[0] + p[1] > ambient]
            if too_big:
                raise ValueError(f"points {sorted(too_big)} exceed ambient degree {ambient}")
        self._entries = cleaned
        self._ambient = ambient

    @classmethod
    def zero(cls, ambient: int | None = None) -> ChipConfiguration:
        return cls((), ambient)

    @property
    def ambient(self) -> int | None:
        return self._ambient

    @property
    def degree(self) -> int:
        """Largest total degree carrying a chip; -1 for the zero configuration."""
        if not self._entries:
            return -1
        return max(i + j for i, j in self._entries)

    @property
    def support(self) -> frozenset[Coord]:
        return frozenset(self._entries)

    @property
    def positive_support(self) -> frozenset[Coord]:
        return frozenset(p for p, v in self._entries.items() if v > 0)

    @property
    def negative_support(self) -> frozenset[Coord]:
        return frozenset(p for p, v in self._entries.items() if v < 0)

    def __getitem__(self, point: Coord) -> Value:
        return self._entries.get(point, 0)

    def __iter__(self) -> Iterator[tuple[Coord, Value]]:
        return iter(sorted(self._entries.items(), key=lambda kv: degree_order(kv[0])))

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChipConfiguration):
            return NotImplemented
        return self._entries == other._entries and self._ambient == other._ambient

    def __hash__(self) -> int:
        return hash((frozenset(self._entries.items()), self._ambient))

    def __repr__(self) -> str:
        inner = ", ".join(f"({i}, {j}): {v}" for (i, j), v in self)
        amb = "" if self._ambient is None else f", ambient={self._ambient}"
        return f"ChipConfiguration({{{inner}}}{amb})"

    def with_ambient(self, ambient: int | None) -> ChipConfiguration:
        return ChipConfiguration(self._entries, ambient)

    def _merged_ambient(self, other: ChipConfiguration) -> int | None:
        if self._ambient is None:
            return other._ambient
        if other._ambient is None:
            return self._ambient
        return max(self._ambient, other._ambient)

    def __add__(self, other: ChipConfiguration) -> ChipConfiguration:
        merged = dict(self._entries)
        for p, v in other._entries.items():
            merged[p] = merged.get(p, 0) + v
        return ChipConfiguration(merged, self._merged_ambient(other))

    def __sub__(self, other: ChipConfiguration) -> ChipConfiguration:
        return self + (-other)

    def __neg__(self) -> ChipConfiguration:
        return ChipConfiguration({p: -v for p, v in self._entries.items()}, self._ambient)

    def scale(self, factor: Value) -> ChipConfiguration:
        if factor == 0:
            return ChipConfiguration.zero(self._ambient)
        return ChipConfiguration({p: _coerce(Fraction(v) * factor) for p, v in self._entries.items()}, self._ambient)

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for v in self._entries.values())

    def is_valid(self) -> bool:
        """No chips in debt except possibly at the origin."""
        return all(p == (0, 0) for p in self.negative_support)

    def alternating_top_sum(self) -> Value:
        """Sum of (-1)^i times the entries on the top diagonal i + j = degree."""
        e = self.degree
        total: Value = 0
        for (i, j), v in self._entries.items():
            if i + j == e:
                total += v if i % 2 == 0 else -v
        return _coerce(Fraction(total))


@dataclass(frozen=True)
class Game:
    """A multiset of splitting moves, stored as point -> multiplicity.

    Negative multiplicities mean reversed moves (merging two chips back).
    A game on the degree-d triangle only has moves at points of degree at
    most d - 1, since a move pushes chips one degree up.
    """

    moves: tuple[tuple[Coord, int], ...] = field(default=())

    def __init__(self, moves: Mapping[Coord, int] | Iterable[tuple[Coord, int]] = ()):
        items = moves.items() if isinstance(moves, Mapping) else moves
        cleaned: dict[Coord, int] = {}
        for (i, j), m in items:
            if i < 0 or j < 0:
                raise ValueError(f"move position ({i}, {j}) is outside the grid")
            if not isinstance(m, int):
                raise TypeError("move multiplicities must be integers")
            if m != 0:
                cleaned[(i, j)] = cleaned.get((i, j), 0) + m
        object.__setattr__(self, "moves", tuple(sorted(cleaned.items())))

    @property
    def support(self) -> frozenset[Coord]:
        return frozenset(p for p, _ in self.moves)

    def __add__(self, other: Game) -> Game:
        merged = dict(self.moves)
        for p, m in other.moves:
            merged[p] = merged.get(p, 0) + m
        return Game(merged)

    def __neg__(self) -> Game:
        return Game({p: -m for p, m in self.moves})

    def total_effect(self) -> ChipConfiguration:
        """Net chip movement of the whole game, starting from nothing."""
        delta: dict[Coord, Value] = {}
        for (i, j), m in self.moves:
            delta[(i, j)] = delta.get((i, j), 0) - m
            delta[(i + 1, j)] = delta.get((i + 1, j), 0) + m
            delta[(i, j + 1)] = delta.get((i, j + 1), 0) + m
        return ChipConfiguration(delta)


def apply_game(start: ChipConfiguration, game: Game) -> ChipConfiguration:
    """Play every move of the game on top of the starting configuration."""
    if start.ambient is not None:
        limit = start.ambient - 1
        bad = [p for p in game.support if p[0] + p[1] > limit]
        if bad:
            raise ValueError(f"moves at {sorted(bad)} would push chips past degree {start.ambient}")
    return start + game.total_effect()


def act(sigma: str, config: ChipConfiguration, d: int | None = None) -> ChipConfiguration:
    """The signed symmetry action on chip configurations.

    The entry at (i, j) moves to ``act_point``'s image and picks up the
    sign (-1)^(k + k'), where k = d - i - j and k' is the image's third
    coordinate. So the transposition of i and j is an honest relabeling,
    and the symmetries moving the top edge flip signs by a row or column
    parity; that is what makes them send outcomes to outcomes. d
    defaults to the ambient degree and must cover the support.
    """
    if d is None:
        d = config.ambient
    if d is None:
        raise ValueError("the symmetry action needs an ambient degree")
    check_fits(config, d)
    moved = {act_point(sigma, p, d): v * _sign_factor(sigma, p, d) for p, v in config}
    return ChipConfiguration(moved, config.ambient if config.ambient is not None else d)


def act_support(sigma: str, points: Iterable[Coord], d: int) -> frozenset[Coord]:
    return frozenset(act_point(sigma, p, d) for p in points)


def render(config: ChipConfiguration, d: int | None = None, empty: str = "·") -> str:
    """Draw the triangle, one row per j from the top (j = d) down to j = 0.

    Within a row, i increases left to right, and tokens are joined by
    single spaces. Zero entries print as the empty marker.
    """
    if d is None:
        d = config.ambient if config.ambient is not None else max(config.degree, 0)
    check_fits(config, d)
    lines = []
    for j in range(d, -1, -1):
        tokens = []
        for i in range(d - j + 1):
            v = config[(i, j)]
            tokens.append(str(v) if v != 0 else empty)
        lines.append(" ".join(tokens))
    return "\n".join(lines)


def parse(text: str) -> ChipConfiguration:
    """Read a triangle back from its rendered form.

    Accepts either the middle dot or a period for empty points, integers,
    and fractions like 3/2. The number of lines fixes the ambient degree,
    which may not exceed MAX_INPUT_DEGREE.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no triangle rows to parse")
    d = len(lines) - 1
    if d > MAX_INPUT_DEGREE:
        raise ValueError(f"{len(lines)} rows give degree {d}, which exceeds {MAX_INPUT_DEGREE}")
    entries: dict[Coord, Value] = {}
    for row_index, line in enumerate(lines):
        j = d - row_index
        tokens = line.split()
        if len(tokens) != row_index + 1:
            raise ValueError(
                f"row {row_index} (j = {j}) has {len(tokens)} entries, expected {row_index + 1}"
            )
        for i, token in enumerate(tokens):
            if token in (".", "·"):
                continue
            entries[(i, j)] = _parse_value(token, (i, j))
    return ChipConfiguration(entries, ambient=d)


def config_record(config: ChipConfiguration) -> dict:
    """The JSON object of a configuration, with each chip count as a string."""
    return {
        "ambient": config.ambient,
        "entries": [[i, j, str(v)] for (i, j), v in config],
    }


def config_to_json(config: ChipConfiguration) -> str:
    return json.dumps(config_record(config))


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def config_from_json(text: str) -> ChipConfiguration:
    """Read the JSON form written by config_to_json; see config_from_record."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return config_from_record(payload)


def config_from_record(payload) -> ChipConfiguration:
    """Read the JSON object built by config_record.

    Malformed input of any shape raises ValueError, never another error;
    so does a repeated point, a negative ambient degree, or a point or
    ambient degree beyond MAX_INPUT_DEGREE.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise ValueError("expected an object with an 'entries' list")
    entries = {}
    for item in payload["entries"]:
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError(f"entry {item!r} is not an [i, j, count] triple")
        i, j, raw = item
        point = (_json_int(i, "coordinate"), _json_int(j, "coordinate"))
        if point[0] + point[1] > MAX_INPUT_DEGREE:
            raise ValueError(f"point {point} lies beyond degree {MAX_INPUT_DEGREE}")
        if point in entries:
            raise ValueError(f"point {point} appears more than once")
        entries[point] = _parse_value(str(raw), point)
    ambient = payload.get("ambient")
    if ambient is not None:
        ambient = _json_int(ambient, "ambient")
        if ambient < 0:
            raise ValueError(f"ambient degree {ambient} is negative")
        if ambient > MAX_INPUT_DEGREE:
            raise ValueError(f"ambient degree {ambient} exceeds {MAX_INPUT_DEGREE}")
    return ChipConfiguration(entries, ambient=ambient)
