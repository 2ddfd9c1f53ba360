"""Sign arithmetic, the sign-form exclusion test, and the outer-ring contraction.

Replacing every chip count by its sign loses the magnitudes but keeps a
surprising amount of structure: a linear form that vanishes on a
configuration must, on the level of signs, admit cancellation. Over the
sign alphabet {-1, 0, 1} addition becomes multivalued (1 + (-1) can be
anything), and a form "vanishes" at a sign configuration when 0 is among
the possible sums. Requiring that of every Pascal form cuts down the
possible positive supports of valid outcomes drastically.

For large ambient degree the useful information concentrates in an outer
ring of the triangle: three corner blocks of depth RING_DEPTH plus
summarized strips along the edges and the top diagonals. The contraction
maps a sign configuration to that fixed record, and the Pascal forms
near the three corners descend to forms on the record that do not depend
on the ambient degree (they only feel its parity). Enumerating the
records compatible with all descended forms yields finite case lists,
which the case pipeline then eliminates.

One type, ContractionPoint, holds a record under either of two named
coordinate layouts: XI_COORDS, the coordinates of the contraction, with
the two parity strips of each top diagonal apart, or XI_PRIME_COORDS,
those left once chi has merged them, on which the triangle symmetries
act. RING_DEPTH, ring_cell and XI_COORDS state the ring once; everything
else is read off them: the sizes and the strip offset of both layouts,
weak validity (a debt only on a cell ring_cell names a corner), the
descended forms, and the merged layout, which one rule (``_merged``)
gives both chi and the symmetry action.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .grid import ChipConfiguration, Coord, act_point, check_fits, check_inside, grid_points
from .pascal import (
    PascalForm,
    all_forms,
    bottom_row_form,
    left_column_form,
    top_edge_form,
)

NEGATIVE = frozenset({-1})
ZERO = frozenset({0})
POSITIVE = frozenset({1})
H = frozenset({-1, 0, 1})


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def hyperfield_sum(signs) -> frozenset:
    """Set of achievable signs when adding quantities of the given signs."""
    has_pos = has_neg = False
    for s in signs:
        if s > 0:
            has_pos = True
        elif s < 0:
            has_neg = True
    if has_pos and has_neg:
        return H
    if has_pos:
        return POSITIVE
    if has_neg:
        return NEGATIVE
    return ZERO


def sign_of(config: ChipConfiguration) -> ChipConfiguration:
    """Entrywise sign of a configuration, ambient degree preserved."""
    return ChipConfiguration(
        {p: _sign(v) for p, v in config}, ambient=config.ambient
    )


def eval_sign_form(form: PascalForm, s: ChipConfiguration) -> frozenset:
    """Possible signs of the form's value given only the signs of the entries.

    The result is one of {0}, {1}, {-1}, or the full set H. The form
    vanishes in the hyperfield sense exactly when 0 is a member.
    """
    return hyperfield_sum(_sign(form.coefficient(i, j)) * v for (i, j), v in s)


@cache
def _forms_at(d: int) -> tuple[PascalForm, ...]:
    return tuple(all_forms(d))


@dataclass(frozen=True)
class HyperfieldVerdict:
    """Result of the sign-form test on a candidate positive support."""

    excluded: bool
    d: int
    failing_form: str | None = None


def hyperfield_excludes(points, d: int) -> HyperfieldVerdict:
    """Test whether signs alone rule out a valid outcome of degree exactly d.

    Builds the canonical sign configuration (-1 at the origin, +1 on the
    candidate support) and evaluates the sign image of every Pascal form
    at ambient degree d. A valid outcome of degree exactly d forces every
    one of those values to be the full set H: its entries are nonzero
    with precisely these signs, and a vanishing nontrivial sum needs
    contributions of both signs. Any other value excludes the support.

    A support whose maximal degree is less than d is excluded
    automatically (the top-row forms then evaluate to {0}), matching the
    degree-exactly-d reading.
    """
    pts = frozenset(points)
    if (0, 0) in pts:
        raise ValueError("candidate positive supports may not contain the origin")
    check_inside(pts, d)
    s = ChipConfiguration({(0, 0): -1, **{p: 1 for p in pts}}, ambient=d)
    for form in _forms_at(d):
        if eval_sign_form(form, s) != H:
            return HyperfieldVerdict(True, d, form.label())
    return HyperfieldVerdict(False, d)


def sign_survivors(point_signs, fixed_signs, size: int, after=None):
    """Every size-subset of points that gives every sign form both signs.

    point_signs[k][f] is an integer read only by its sign, the sign of
    point k's contribution to form f, and fixed_signs[f] one with the
    sign of the contribution every support already carries (the origin's
    chip debt; 0 for none).  The entries may be signs or the
    contributions themselves: ``enumeration._sign_tables`` passes its
    Pascal coefficients, so a helper that keys on the entries must read
    their signs, as ``_rarest_first`` does.  A support survives when
    each form receives a positive and a negative contribution, the
    sign-level necessary condition for the form to vanish.  Returns the
    survivors as ascending index tuples, in lexicographic order, and the
    number of search nodes.

    The search places points in index order.  Its state is two bitsets
    over forms: the forms still lacking a positive contribution and
    those still lacking a negative one; placing point k clears the
    forms k serves, so backtracking needs no undo.  A node is one point
    tried under a parent with at least two free slots, plus each
    completion of the last slot.  A child dies when some form still
    lacks a sign that no point from its own index on can give, or, with
    one slot left after it, when some form still lacks both signs.  The
    first condition only grows with the index, so a parent's live
    children are a prefix of its range, found by bisection; every tried
    point counts as a node, dead or not, so a parent adds its whole
    range to the count at once.  One loop walks the live prefix as a
    bitmask; under a parent with two free slots the mask first drops
    every point that touches no form still lacking both signs.  The last
    slot takes the points that hold every missing sign: one intersection
    of per-form point masks.  The recursive closure refers to itself, so
    it is deleted before the engine returns; otherwise that cycle would
    hold the survivor list until the cyclic collector runs.

    after, when given, holds for each point k the bitmask of the points
    a support whose first point is k may use after it; the engine then
    lists only the survivors that keep to it.  The pruning stays sound,
    since it reasons about a superset of the allowed points, and a
    parent still adds its whole range to the node count.
    """
    if size < 1:
        raise ValueError("supports need at least one point")
    count = len(point_signs)
    forms = len(fixed_signs)
    gives_pos = [0] * count
    gives_neg = [0] * count
    points_pos = [0] * forms
    points_neg = [0] * forms
    for k, signs in enumerate(point_signs):
        for f, sign in enumerate(signs):
            if sign > 0:
                gives_pos[k] |= 1 << f
                points_pos[f] |= 1 << k
            elif sign < 0:
                gives_neg[k] |= 1 << f
                points_neg[f] |= 1 << k
    lack_pos = sum(1 << f for f, sign in enumerate(fixed_signs) if sign <= 0)
    lack_neg = sum(1 << f for f, sign in enumerate(fixed_signs) if sign >= 0)
    # missing_*[k]: the forms no point with index >= k can serve.
    everything = (1 << forms) - 1
    missing_pos = [everything] * (count + 1)
    missing_neg = [everything] * (count + 1)
    for k in range(count - 1, -1, -1):
        missing_pos[k] = missing_pos[k + 1] & ~gives_pos[k]
        missing_neg[k] = missing_neg[k + 1] & ~gives_neg[k]
    touches = [p | n for p, n in zip(points_pos, points_neg)]
    everyone = (1 << count) - 1
    if after is None:
        after = [everyone] * count
    survivors: list[tuple[int, ...]] = []
    nodes = 0

    def descend(prefix, start, slots, lack_pos, lack_neg, allowed):
        nonlocal nodes
        if slots == 1:
            viable = allowed >> start << start
            while lack_pos:
                bit = lack_pos & -lack_pos
                viable &= points_pos[bit.bit_length() - 1]
                if not viable:
                    return
                lack_pos ^= bit
            while lack_neg:
                bit = lack_neg & -lack_neg
                viable &= points_neg[bit.bit_length() - 1]
                if not viable:
                    return
                lack_neg ^= bit
            nodes += viable.bit_count()
            while viable:
                bit = viable & -viable
                survivors.append(prefix + (bit.bit_length() - 1,))
                viable ^= bit
            return
        last = count - slots
        if last < start:
            return
        nodes += last + 1 - start
        low, high = start, last + 1
        while low < high:
            mid = (low + high) // 2
            if lack_pos & missing_pos[mid] or lack_neg & missing_neg[mid]:
                high = mid
            else:
                low = mid + 1
        children = ((1 << low) - 1) & (allowed >> start << start)
        if slots == 2:
            # Each child is the second-to-last point, so it must touch every
            # form that still lacks both signs.
            lack_both = lack_pos & lack_neg
            while lack_both:
                bit = lack_both & -lack_both
                children &= touches[bit.bit_length() - 1]
                lack_both ^= bit
        while children:
            bit = children & -children
            k = bit.bit_length() - 1
            descend(
                prefix + (k,),
                k + 1,
                slots - 1,
                lack_pos & ~gives_pos[k],
                lack_neg & ~gives_neg[k],
                allowed if prefix else after[k],
            )
            children ^= bit

    descend((), 0, size, lack_pos, lack_neg, everyone)
    # descend refers to itself; without this the cycle keeps survivors alive until gc runs.
    del descend
    return survivors, nodes


def mirror_masks(mirror) -> list[int]:
    """The ``after`` masks that list one support of each mirror pair.

    mirror[k] is the index of point k's image under an involution of the
    points.  After first point k a support may use the points j > k with
    mirror[j] >= k, and none if mirror[k] < k.  So a support of two or
    more points is listed exactly when its image's least index is at
    least its own: of a pair whose least indices differ, only the support
    with the smaller one, and both of a pair whose least indices agree.
    """
    return [
        sum(1 << j for j in range(k + 1, len(mirror)) if mirror[j] >= k) if image >= k else 0
        for k, image in enumerate(mirror)
    ]


def permute_signs(sigma: str, s: ChipConfiguration, d: int) -> ChipConfiguration:
    """Triangle symmetry on sign configurations: pure position permutation.

    Unlike the action on chip configurations there are no sign factors;
    signs of entries just travel with their points.
    """
    return ChipConfiguration(
        {act_point(sigma, p, d): v for p, v in s}, ambient=d
    )


# ---------------------------------------------------------------------------
# The outer ring and its contraction.

# The ring's depth r, the paper's 4: r x r corners, r-wide strips, r top diagonals.
RING_DEPTH = 4
# The descended forms hold from d = 3r on (see ``contracted_forms``).  At
# d = 3r - 1 they differ only on gamma{(r+1) % 2}[r-1], which holds no
# grid point there, so no contraction reads it.
MIN_CONTRACTION_DEGREE = 3 * RING_DEPTH - 1

XI_COORDS: tuple[str, ...] = (
    tuple(f"x[{i},{j}]" for i in range(RING_DEPTH) for j in range(RING_DEPTH))
    + tuple(f"r[{i},{j}]" for i in range(RING_DEPTH) for j in range(RING_DEPTH))
    + tuple(f"t[{i},{j}]" for i in range(RING_DEPTH) for j in range(RING_DEPTH))
    + tuple(f"alpha[{i}]" for i in range(RING_DEPTH))
    + tuple(f"beta[{j}]" for j in range(RING_DEPTH))
    + tuple(f"gamma0[{k}]" for k in range(RING_DEPTH))
    + tuple(f"gamma1[{k}]" for k in range(RING_DEPTH))
)
XI_INDEX = {name: idx for idx, name in enumerate(XI_COORDS)}


def _merged(name: str) -> str:
    """The merged coordinate a contraction coordinate feeds: gamma0[k] and gamma1[k] are both gamma[k]."""
    return "gamma" + name[6:] if name.startswith("gamma") else name


XI_PRIME_COORDS: tuple[str, ...] = tuple(dict.fromkeys(map(_merged, XI_COORDS)))
# _MERGE[k] is the merged coordinate that coordinate k of XI_COORDS feeds.
_MERGE = tuple(XI_PRIME_COORDS.index(_merged(name)) for name in XI_COORDS)


def parse_coord(name: str) -> tuple[str, tuple[int, ...]]:
    """Split a coordinate name such as "r[1,2]" into ("r", (1, 2))."""
    kind, rest = name.split("[")
    return kind, tuple(int(part) for part in rest.rstrip("]").split(","))


def ring_cell(point: Coord, d: int) -> str | None:
    """Name of the contraction coordinate a grid point feeds, None for the interior.

    Cells: "x[i,j]" and the two reindexed corner blocks "r[i,j]",
    "t[i,j]"; summed strips "alpha[i]", "beta[j]"; and the top diagonal
    strips "gamma0[k]", "gamma1[k]" by the parity of i, where k = d - degree.
    """
    i, j = point
    if i < 0 or j < 0 or i + j > d:
        raise ValueError(f"({i}, {j}) is outside the degree-{d} triangle")
    deg = i + j
    top = d - RING_DEPTH + 1  # the degree of the top ring's lowest diagonal
    if deg >= top:
        if i < RING_DEPTH:
            return f"r[{i},{deg - top}]"
        if j < RING_DEPTH:
            return f"t[{deg - top},{j}]"
        return f"gamma{i % 2}[{d - deg}]"
    if i < RING_DEPTH and j < RING_DEPTH:
        return f"x[{i},{j}]"
    if i < RING_DEPTH:
        return f"alpha[{i}]"
    if j < RING_DEPTH:
        return f"beta[{j}]"
    return None


# Both coordinate layouts list the corner blocks first and the summed strips from alpha[0] on.
_STRIPS = XI_INDEX["alpha[0]"]


@dataclass(frozen=True)
class ContractionPoint:
    """The outer-ring record of a sign configuration, keyed by coordinate name.

    coords is XI_COORDS, the coordinates of the contraction, or
    XI_PRIME_COORDS, those left once chi merges the two parity strips
    of each top diagonal; vector holds one sign per coordinate.
    """

    coords: tuple[str, ...]
    vector: tuple[int, ...]

    def __post_init__(self):
        if self.coords != XI_COORDS and self.coords != XI_PRIME_COORDS:
            raise ValueError("coordinates must be XI_COORDS or XI_PRIME_COORDS")
        object.__setattr__(self, "vector", tuple(self.vector))
        if len(self.vector) != len(self.coords):
            raise ValueError(
                f"expected {len(self.coords)} coordinates, got {len(self.vector)}"
            )
        if not set(self.vector) <= {-1, 0, 1}:
            raise ValueError("contraction coordinates must be signs")

    def positive_support(self) -> tuple[str, ...]:
        return tuple(name for name, v in zip(self.coords, self.vector) if v > 0)

    def is_valid(self) -> bool:
        vec = self.vector
        if all(v == 0 for v in vec):
            return True
        return vec[0] == -1 and all(v in (0, 1) for v in vec[1:])

    def is_weakly_valid(self) -> bool:
        return all(v >= 0 for v in self.vector[_STRIPS:])

    def record(self) -> dict[str, int]:
        """Sparse JSON-friendly form keyed by coordinate names."""
        return {name: v for name, v in zip(self.coords, self.vector) if v != 0}

    @classmethod
    def from_record(cls, record: dict, coords: tuple[str, ...] = XI_COORDS) -> ContractionPoint:
        vec = [0] * len(coords)
        for name, v in record.items():
            if name not in coords:
                raise ValueError(f"unknown contraction coordinate {name!r}")
            vec[coords.index(name)] = v
        return cls(coords, vec)


def _merged_vector(vector: tuple[int, ...]) -> tuple[int, ...]:
    """The XI_PRIME_COORDS signs of a XI_COORDS sign vector, its parity strips summed."""
    merged = [0] * len(XI_PRIME_COORDS)
    for target, v in zip(_MERGE, vector):
        if v:
            if merged[target] == -v:
                raise ValueError("parity strips of opposite sign merge to a multivalued sum")
            merged[target] = v
    return tuple(merged)


def chi(theta: ContractionPoint) -> ContractionPoint:
    """Merge the two parity strips of each top diagonal into one sum."""
    if theta.coords != XI_COORDS:
        raise ValueError(f"chi merges the parity strips of a {len(XI_COORDS)}-coordinate point")
    return ContractionPoint(XI_PRIME_COORDS, _merged_vector(theta.vector))


def contract(s: ChipConfiguration, d: int) -> ContractionPoint:
    """Project a weakly valid sign configuration onto the outer ring.

    Corner entries are copied (with the top corners reindexed relative
    to the diagonal edge); strip coordinates are hyperfield sums, which
    weak validity keeps single-valued. Points in the interior (both
    coordinates at least RING_DEPTH and degree at most d - RING_DEPTH)
    are forgotten. Weak validity puts every debt on a corner cell: one
    that ``ring_cell`` names x[i,j], r[i,j] or t[i,j].
    """
    if d < MIN_CONTRACTION_DEGREE:
        raise ValueError(f"contraction needs ambient degree at least {MIN_CONTRACTION_DEGREE}")
    check_fits(s, d)
    if any(v not in (-1, 0, 1) for _, v in s):
        raise ValueError("contraction expects a sign configuration")
    vec = [0] * len(XI_COORDS)
    for p, v in s:
        idx = XI_INDEX.get(ring_cell(p, d))  # None for an interior point
        if idx is not None and idx < _STRIPS:
            vec[idx] = v
        elif v < 0:
            raise ValueError("strip sums of a non-weakly-valid configuration are multivalued")
        elif idx is not None:
            vec[idx] = max(vec[idx], v)
    return ContractionPoint(XI_COORDS, vec)


# ---------------------------------------------------------------------------
# Contracted forms, derived mechanically at reference degrees.


@dataclass(frozen=True)
class ContractedForm:
    """A sign-coefficient linear form on the contraction coordinates XI_COORDS."""

    name: str
    coefficients: tuple[int, ...]

    def evaluate(self, theta: ContractionPoint) -> frozenset:
        if theta.coords != XI_COORDS:
            raise ValueError(f"contracted forms evaluate {len(XI_COORDS)}-coordinate points")
        return hyperfield_sum(
            c * v for c, v in zip(self.coefficients, theta.vector) if c and v
        )


def _form_specs(d: int):
    specs = []
    for k in range(1, RING_DEPTH):
        specs.append((f"psi[{k}]", left_column_form(k, d)))
    for k in range(1, RING_DEPTH):
        specs.append((f"psibar[{k}]", bottom_row_form(k, d)))
    for a in range(1, RING_DEPTH):
        specs.append((f"phi[{a},d-{a}]", top_edge_form(a, d - a, d)))
    for a in range(1, RING_DEPTH):
        specs.append((f"phi[d-{a},{a}]", top_edge_form(d - a, a, d)))
    for m in range(RING_DEPTH - 1, -1, -1):
        name = "psi[d]" if m == 0 else f"psi[d-{m}]"
        specs.append((name, left_column_form(d - m, d)))
    for m in range(RING_DEPTH - 1, -1, -1):
        name = "psibar[d]" if m == 0 else f"psibar[d-{m}]"
        specs.append((name, bottom_row_form(d - m, d)))
    return specs


@cache
def _ring_cells(d: int) -> tuple[tuple[Coord, str | None], ...]:
    """Every grid point of degree d with its ``ring_cell``, read once for all forms."""
    return tuple((p, ring_cell(p, d)) for p in grid_points(d))


def _contract_form(form: PascalForm, d: int) -> tuple[int, ...]:
    """Read off the descended coefficients of a Pascal form at degree d.

    The form must vanish on the invisible interior and have a constant
    coefficient sign on every strip cell; both are checked, so a form
    outside the descending family fails loudly instead of silently
    producing a wrong contraction.
    """
    per_cell: dict[str, set[int]] = {}
    for p, cell in _ring_cells(d):
        sg = _sign(form.coefficient(*p))
        if cell is None:
            if sg:
                raise AssertionError(
                    f"{form.label()} does not vanish at interior point {p}"
                )
            continue
        per_cell.setdefault(cell, set()).add(sg)
    coeffs = [0] * len(XI_COORDS)
    for cell, signs in per_cell.items():
        if len(signs) != 1:
            raise AssertionError(
                f"{form.label()} has mixed coefficient signs on cell {cell}"
            )
        (coeffs[XI_INDEX[cell]],) = signs
    return tuple(coeffs)


def _reference_degree(parity: str) -> int:
    """The degree 4r or 4r + 1, r = RING_DEPTH, at which a parity's forms are read off."""
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    return 4 * RING_DEPTH + (parity == "odd")


@cache
def contracted_forms(parity: str) -> tuple[ContractedForm, ...]:
    """The 6r - 4 descended forms, r = RING_DEPTH, for an ambient-degree parity.

    Derived by instantiating each Pascal form at the reference degree
    4r or 4r + 1 of the right parity and reading coefficients off the
    ring cells; the derivation is repeated at reference + 2 and must
    agree, which is the degree-independence property that makes
    contraction useful.

    Why the forms hold at every d >= 3r of the parity, from the closed
    forms of ``PascalForm.coefficient``, on the cells ``ring_cell``
    names (e = i + j - (d - (r-1)) on r and t, k = d - i - j on gamma):

    * psi[k], k <= r-1, is (-1)^(k+j) binomial(i, k-j): free of d, zero
      where j > k, and of sign (-1)^(k+j) on beta[j] and t[e, j] when
      j <= k (there i >= r > k - j).
    * psi[d-m], m <= r-1, is (-1)^(d-m+j) binomial(i, d-m-j), zero below
      i + j = d - m: (-1)^(m+r-1+e+i) binomial(i, m+e-(r-1)) on r[i, e],
      of sign (-1)^(d-m+j) on t[e, j] when e >= r-1-m, and of sign
      (-1)^(m+k+i) on gamma{i % 2}[k] when k <= m.
    * phi[a, d-a], a <= r-1, is binomial(d-i-j, a-i), zero where i > a:
      positive on x and alpha when i <= a, binomial(r-1-e, a-i) on r[i, e].
    * psibar and phi[d-a, a] are these transposed.

    So every form vanishes on the interior (i, j >= r, i + j <= d - r) and
    has one sign per cell, which reads d only through its parity. A cell
    without a grid point reads 0, and from d = 3r on every cell has one. At
    d = 3r - 1 only gamma{(r+1) % 2}[r-1] is empty (on i + j = 2r, i, j >= r
    forces i = r), and only psi[d-(r-1)] and psibar[d-(r-1)] are nonzero on it.
    """
    reference = _reference_degree(parity)
    out = []
    for (name, form), (again_name, again) in zip(
        _form_specs(reference), _form_specs(reference + 2)
    ):
        coeffs = _contract_form(form, reference)
        if name != again_name or coeffs != _contract_form(again, reference + 2):
            raise AssertionError(f"contraction of {name} is not degree-stable")
        out.append(ContractedForm(name, coeffs))
    return tuple(out)


# ---------------------------------------------------------------------------
# The Gamma and Lambda case lists.


def _cell_permutation(cell, coords: tuple[str, ...], sigma: str, d: int) -> tuple[int, ...]:
    """perm[k] is the coordinate whose value sigma moves to coordinate k.

    Read off the point action at degree d: every grid point that
    ``cell`` names a coordinate of carries that coordinate to the one of
    its ``act_point`` image. Raises when one coordinate would go to two
    images, or when some coordinate has no grid point there.
    """
    target_of: dict[str, str] = {}
    for p in grid_points(d):
        source = cell(p, d)
        if source is not None:
            target = cell(act_point(sigma, p, d), d)
            if target_of.setdefault(source, target) != target:
                raise AssertionError(f"{sigma} sends {source} to both {target_of[source]} and {target}")
    if len(target_of) != len(coords):
        raise AssertionError(f"{sigma} at degree {d} reaches {len(target_of)} of {len(coords)} coordinates")
    perm = [0] * len(coords)
    for source, target in target_of.items():
        perm[coords.index(target)] = coords.index(source)
    return tuple(perm)


def _check_forms_closed(forms, perm: tuple[int, ...]) -> None:
    """Raise unless perm permutes the coordinates and maps the forms onto themselves."""
    if sorted(perm) != list(range(len(XI_COORDS))):
        raise AssertionError("the mirror does not permute the contraction coordinates")
    coefficients = {f.coefficients for f in forms}
    for f in forms:
        if tuple(f.coefficients[k] for k in perm) not in coefficients:
            raise AssertionError(f"the mirror of {f.name} is not a contracted form")


@cache
def _gamma_mirror(parity: str) -> tuple[int, ...]:
    """The (12) mirror (i, j) -> (j, i) on XI_COORDS, for an ambient-degree parity.

    Read off ``ring_cell`` of every point and of its transpose at the
    parity's reference degree, as ``contracted_forms`` reads its forms:
    x[i,j] and x[j,i], r[i,e] and t[e,i], alpha[i] and beta[i] swap, and
    gamma0[k] and gamma1[k] swap exactly when d + k is odd. The mirror
    is an involution, so it is its own inverse.
    """
    mirror = _cell_permutation(ring_cell, XI_COORDS, "(12)", _reference_degree(parity))
    _check_forms_closed(contracted_forms(parity), mirror)
    return mirror


def _rarest_first(point_signs) -> list[int]:
    """The point order that places the givers of the rarest signs first.

    order[m] is the point placed m-th.  A point's key lists, for every
    form it serves, how many points give that form the same sign,
    ascending; points go by key, compared lexicographically, and then by
    index.  Entries count by sign alone, as ``sign_survivors`` reads
    them, so a table of coefficients orders as its table of signs.
    """
    givers = Counter((f, sign > 0) for signs in point_signs for f, sign in enumerate(signs) if sign)
    keys = [sorted(givers[f, sign > 0] for f, sign in enumerate(signs) if sign) for signs in point_signs]
    # sorted is stable, so a tie keeps index order.
    return sorted(range(len(point_signs)), key=keys.__getitem__)


def _mirror_closed_survivors(point_signs, fixed_signs, size: int, mirror) -> set[tuple[int, ...]]:
    """``sign_survivors`` of a table closed under the point involution mirror, as a set.

    The engine runs on the points in ``_rarest_first`` order, with the
    ``mirror_masks`` of the mirror read in that order, so it lists one
    support of each mirror pair.  Each listed support is mapped back to
    point indices and brings its mirror.
    """
    order = _rarest_first(point_signs)
    place = {k: m for m, k in enumerate(order)}
    found, _ = sign_survivors(
        [point_signs[k] for k in order],
        fixed_signs,
        size,
        mirror_masks([place[mirror[k]] for k in order]),
    )
    listed = [tuple(sorted(order[m] for m in combo)) for combo in found]
    return set(listed) | {tuple(sorted(mirror[k] for k in combo)) for combo in listed}


@cache
def gamma_set(parity: str, supp_size: int) -> tuple[ContractionPoint, ...]:
    """All valid contraction points with the given positive support size at
    which every descended form evaluates to the full set H.

    The list is closed under the (12) mirror (``_gamma_mirror``): the
    mirror fixes the origin x[0,0] and maps the descended forms onto
    themselves, so a form's value at a member's mirror is another form's
    value at the member. The engine therefore lists one support of each
    mirror pair (``mirror_masks``), and each listed support brings its
    mirror. The pipeline leans on the same symmetry: its pairing stage
    asks each pattern together with its transpose, a pattern of the
    case's (12) image, so a case and its image fall alike
    (``pipeline_summary``).

    The engine takes the free coordinates rarest sign first
    (``_rarest_first``): a coordinate whose forms have few givers of its
    sign comes early.  That is the fail-first rule of constraint search
    (Haralick and Elliott, Artificial Intelligence 14, 1980).  The engine
    drops a branch once some form lacks a sign that no later point can
    give, and with the few givers of a rare sign placed first that test
    fires near the root instead of near the leaves.  The order is sound
    because the survivors are a set of supports: each listed support is
    mapped back to coordinate indices, and the masks are built from the
    mirror in the same order, so they still list one support of each
    pair.  At support size five the search makes 15,703 nodes (even) and
    16,191 (odd), against 281,321 and 281,311 in coordinate order.
    """
    # A width, not the ring depth: the pipeline's stages are support-five arguments.
    if not 1 <= supp_size <= 5:
        raise ValueError("supported positive support sizes are 1..5")
    forms = contracted_forms(parity)
    # The origin, coordinate 0, is -1, so its product contributes the
    # opposite of the coefficient sign; every other coordinate is free
    # and contributes +1 times it.
    point_signs = [[f.coefficients[idx] for f in forms] for idx in range(1, len(XI_COORDS))]
    origin_signs = [-f.coefficients[0] for f in forms]
    mirror = [image - 1 for image in _gamma_mirror(parity)[1:]]
    vectors = []
    for combo in _mirror_closed_survivors(point_signs, origin_signs, supp_size, mirror):
        vec = [-1] + [0] * (len(XI_COORDS) - 1)
        for k in combo:
            vec[k + 1] = 1
        vectors.append(vec)
    vectors.sort()
    return tuple(ContractionPoint(XI_COORDS, vec) for vec in vectors)


@cache
def lambda_set() -> tuple[ContractionPoint, ...]:
    """The distinct chi images of both parities' support-5 case lists.

    Sorted by (positive support below five, vector): the five-support
    cases by vector, then any image whose merged support shrank. The
    images are merged as sign vectors (``_merged_vector``, as chi merges
    them) and deduplicated before any point is built, so each of the
    2,290 cases is built once.
    """
    images = {_merged_vector(theta.vector) for parity in ("even", "odd") for theta in gamma_set(parity, 5)}
    ordered = sorted(images, key=lambda vec: (sum(v > 0 for v in vec) < 5, vec))
    return tuple(ContractionPoint(XI_PRIME_COORDS, vec) for vec in ordered)


# ---------------------------------------------------------------------------
# The symmetry action on merged contraction points.


def _merged_cell(point: Coord, d: int) -> str | None:
    """The ``ring_cell`` of a grid point, with the parity strips joined as chi joins them."""
    cell = ring_cell(point, d)
    return None if cell is None else _merged(cell)


@cache
def _contraction_permutation(sigma: str, d: int = MIN_CONTRACTION_DEGREE) -> tuple[int, ...]:
    """perm[k] is the merged coordinate whose value sigma moves to coordinate k.

    Read off the point action at degree d: every grid point of the ring
    carries its merged coordinate to that of its ``act_point`` image.
    Raises when one coordinate would go to two images.
    """
    if d < MIN_CONTRACTION_DEGREE:
        raise ValueError(f"contraction needs ambient degree at least {MIN_CONTRACTION_DEGREE}")
    return _cell_permutation(_merged_cell, XI_PRIME_COORDS, sigma, d)


def s3_on_contraction(sigma: str, point: ContractionPoint) -> ContractionPoint:
    """Triangle symmetry on merged contraction points.

    The symmetry permutes the merged coordinates as ``act_point`` moves
    the grid points feeding them, read off at the least degree the
    contraction accepts (``_contraction_permutation``). Merging the
    parity strips first is what makes this well defined: the symmetry
    fixing the bottom edge sends each column strip onto top-diagonal
    points of both column parities.
    """
    if point.coords != XI_PRIME_COORDS:
        raise ValueError(f"the symmetry acts on merged ({len(XI_PRIME_COORDS)}-coordinate) points")
    vec = point.vector
    return ContractionPoint(XI_PRIME_COORDS, [vec[k] for k in _contraction_permutation(sigma)])
