"""Parametric models, their outcome counterparts, and fundamental models.

A one-dimensional discrete model of maximum-likelihood degree one on the
n-simplex is cut out by a parametrization t -> (w_0 t^{i_0}(1-t)^{j_0},
..., w_n t^{i_n}(1-t)^{j_n}) whose coordinates sum to 1 identically.
Such a model corresponds to the chip configuration with -1 at the origin
and weight w_nu at each exponent pair, and the parametrization identity
holds exactly when that configuration is an outcome. Fundamental models
are those whose weights are forced by their exponents; every reduced
model decomposes into fundamentals through convex combinations, and
every model reduces to a reduced one by two kinds of simplex embeddings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .grid import MAX_INPUT_DEGREE, ChipConfiguration, Coord, _json_int, check_inside, degree_order
from .linalg import binomial, kernel_basis
from .pascal import is_outcome, outcome_space, top_edge_columns

Term = tuple[Fraction, int, int]


def _canonical_terms(terms: Iterable[tuple[Fraction | int, int, int]]) -> tuple[Term, ...]:
    cleaned = []
    for weight, i, j in terms:
        w = Fraction(weight)
        if w <= 0:
            raise ValueError(f"model weights must be positive, got {w} at ({i}, {j})")
        if i < 0 or j < 0:
            raise ValueError(f"exponents must be nonnegative, got ({i}, {j})")
        cleaned.append((w, i, j))
    return tuple(sorted(cleaned, key=lambda t: (t[1] + t[2], t[1], t[2], t[0])))


def polynomial_coefficients(terms: Iterable[tuple[Fraction | int, int, int]]) -> list[Fraction]:
    """Coefficients of sum w t^i (1-t)^j in the monomial basis of t.

    The sum runs on integers: each weight is scaled to the weights'
    common denominator, and each coefficient is divided by it once.
    """
    terms = [(Fraction(weight), i, j) for weight, i, j in terms]
    degree = max((i + j for _, i, j in terms), default=0)
    denominator = lcm(*(w.denominator for w, _, _ in terms))
    coeffs = [0] * (degree + 1)
    for w, i, j in terms:
        c = w.numerator * (denominator // w.denominator)
        for m in range(j + 1):
            coeffs[i + m] += -c if m % 2 else c
            c = c * (j - m) // (m + 1)  # the scaled weight times binomial(j, m + 1)
    return [Fraction(c, denominator) for c in coeffs]


def verify_model(terms: Iterable[tuple[Fraction | int, int, int]] | "ParametricModel") -> bool:
    """Whether the coordinates sum to 1 as a polynomial identity in t."""
    if isinstance(terms, ParametricModel):
        term_list = list(terms.terms)
    else:
        term_list = [(Fraction(w), i, j) for w, i, j in terms]
    if not term_list:
        return False
    if any(Fraction(w) <= 0 or i < 0 or j < 0 for w, i, j in term_list):
        return False
    coeffs = polynomial_coefficients(term_list)
    return coeffs[0] == 1 and all(c == 0 for c in coeffs[1:])


@dataclass(frozen=True)
class ParametricModel:
    """A model given by weighted exponent pairs, with coordinates summing to 1.

    Terms are kept in a canonical sort, so two models are equal exactly
    when their term multisets agree. Duplicate exponent pairs and the
    constant pair (0, 0) are allowed here; models without either are
    called reduced, and only those correspond to chip configurations.
    """

    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[tuple[Fraction | int, int, int]]):
        canonical = _canonical_terms(terms)
        if not canonical:
            raise ValueError("a model needs at least one coordinate")
        object.__setattr__(self, "terms", canonical)
        if not verify_model(list(canonical)):
            raise ValueError("coordinates do not sum to 1 identically")

    @property
    def simplex_dimension(self) -> int:
        """The n of the ambient simplex; one less than the number of coordinates."""
        return len(self.terms) - 1

    @property
    def degree(self) -> int:
        return max(i + j for _, i, j in self.terms)

    @property
    def support(self) -> frozenset[Coord]:
        return frozenset((i, j) for _, i, j in self.terms)

    def weight(self, i: int, j: int) -> Fraction:
        """Total weight at an exponent pair (summing duplicates)."""
        return sum((w for w, a, b in self.terms if (a, b) == (i, j)), Fraction(0))

    def is_reduced(self) -> bool:
        exponents = [(i, j) for _, i, j in self.terms]
        return (0, 0) not in exponents and len(set(exponents)) == len(exponents)

    def as_formula(self) -> str:
        """Human-readable parametrization like 't -> (t^2, 2*t*(1-t), (1-t)^2)'."""
        return "t -> (" + ", ".join(_format_term(w, i, j) for w, i, j in self.terms) + ")"

    def __repr__(self) -> str:
        return f"ParametricModel({list(self.terms)!r})"


def _format_term(w: Fraction, i: int, j: int) -> str:
    factors = []
    if w != 1 or (i == 0 and j == 0):
        factors.append(str(w))
    if i == 1:
        factors.append("t")
    elif i > 1:
        factors.append(f"t^{i}")
    if j == 1:
        factors.append("(1-t)")
    elif j > 1:
        factors.append(f"(1-t)^{j}")
    return "*".join(factors)


def model_to_outcome(model: ParametricModel) -> ChipConfiguration:
    """The chip configuration with -1 at the origin and the weights above it.

    Only reduced models correspond to configurations (a duplicate
    exponent or a constant coordinate has no chip-level meaning).
    """
    if not model.is_reduced():
        raise ValueError("only reduced models correspond to chip configurations")
    entries: dict[Coord, Fraction | int] = {(0, 0): -1}
    for w, i, j in model.terms:
        entries[(i, j)] = w
    return ChipConfiguration(entries, ambient=model.degree)


def outcome_to_model(config: ChipConfiguration) -> ParametricModel:
    """Invert model_to_outcome, rescaling so the origin entry is -1.

    The input must be a valid rational outcome with a strictly negative
    origin entry; everything else (the zero configuration included)
    corresponds to no model at all.
    """
    origin = Fraction(config[(0, 0)])
    if origin >= 0:
        raise ValueError("a model needs a strictly negative origin entry")
    if not config.is_valid():
        raise ValueError("negative chips away from the origin do not give a model")
    if not is_outcome(config):
        raise ValueError("the configuration is not an outcome")
    scale = -1 / origin
    terms = [(Fraction(v) * scale, i, j) for (i, j), v in config if (i, j) != (0, 0)]
    return ParametricModel(terms)


@dataclass(frozen=True)
class EmbeddingStep:
    """One linear simplex embedding undone during model reduction.

    kind "constant-coordinate" inserts the coordinate 1 - lam and scales
    the rest by lam; kind "split-coordinate" splits the coordinate at the
    recorded exponent into fractions lam and 1 - lam of its weight. The
    positions give the indices of the affected coordinates in the larger
    model's canonical term order.
    """

    kind: str
    positions: tuple[int, ...]
    lam: Fraction
    exponent: Coord | None = None

    def __post_init__(self):
        if self.kind not in ("constant-coordinate", "split-coordinate"):
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if not 0 < self.lam < 1:
            raise ValueError("embedding parameters live strictly between 0 and 1")


def apply_embedding(model: ParametricModel, step: EmbeddingStep) -> ParametricModel:
    """Play one embedding step forward, producing a model one simplex up."""
    if step.kind == "constant-coordinate":
        terms = [(w * step.lam, i, j) for w, i, j in model.terms]
        terms.append((1 - step.lam, 0, 0))
        return ParametricModel(terms)
    if step.exponent is None:
        raise ValueError("split-coordinate steps must record their exponent pair")
    source = None
    terms = []
    for w, i, j in model.terms:
        if source is None and (i, j) == step.exponent:
            source = (w, i, j)
        else:
            terms.append((w, i, j))
    if source is None:
        raise ValueError(f"no coordinate with exponent {step.exponent} to split")
    w, i, j = source
    terms += [(w * step.lam, i, j), (w * (1 - step.lam), i, j)]
    return ParametricModel(terms)


def reduce_model(model: ParametricModel) -> tuple[ParametricModel, list[EmbeddingStep]]:
    """Strip constant coordinates and merge duplicates down to a reduced model.

    Returns the reduced model and the chain of embedding steps that
    rebuilds the input: replaying the chain in order via apply_embedding
    reproduces the input exactly. A reduced input returns an empty chain.
    """
    current = model
    chain: list[EmbeddingStep] = []
    while True:
        terms = list(current.terms)
        constant_index = next((idx for idx, (_, i, j) in enumerate(terms) if (i, j) == (0, 0)), None)
        if constant_index is not None:
            w = terms[constant_index][0]
            lam = 1 - w
            if lam <= 0:
                raise ValueError("a constant coordinate of weight >= 1 admits no reduction")
            rest = [(u / lam, i, j) for idx, (u, i, j) in enumerate(terms) if idx != constant_index]
            chain.append(EmbeddingStep("constant-coordinate", (constant_index,), lam))
            current = ParametricModel(rest)
            continue
        seen: dict[Coord, int] = {}
        duplicate = None
        for idx, (_, i, j) in enumerate(terms):
            if (i, j) in seen:
                duplicate = (seen[(i, j)], idx)
                break
            seen[(i, j)] = idx
        if duplicate is None:
            break
        nu, mu = duplicate
        w_nu, i, j = terms[nu]
        w_mu = terms[mu][0]
        lam = w_nu / (w_nu + w_mu)
        merged = [(w, a, b) for idx, (w, a, b) in enumerate(terms) if idx not in (nu, mu)]
        merged.append((w_nu + w_mu, i, j))
        chain.append(EmbeddingStep("split-coordinate", (nu, mu), lam, exponent=(i, j)))
        current = ParametricModel(merged)
    return current, list(reversed(chain))


def composite(m1: ParametricModel, m2: ParametricModel, mu: Fraction | int) -> ParametricModel:
    """The convex combination mu*m1 + (1 - mu)*m2 of two reduced models."""
    mu = Fraction(mu)
    if not 0 < mu < 1:
        raise ValueError("the mixing parameter must lie strictly between 0 and 1")
    if not (m1.is_reduced() and m2.is_reduced()):
        raise ValueError("composites are defined for reduced models")
    weights: dict[Coord, Fraction] = {}
    for w, i, j in m1.terms:
        weights[(i, j)] = weights.get((i, j), Fraction(0)) + mu * w
    for w, i, j in m2.terms:
        weights[(i, j)] = weights.get((i, j), Fraction(0)) + (1 - mu) * w
    return ParametricModel([(w, i, j) for (i, j), w in weights.items()])


@dataclass(frozen=True)
class Decomposition:
    """A right-associated composite chain of fundamental models.

    models (M_1, ..., M_m) and mixing parameters (mu_1, ..., mu_{m-1})
    represent M_1 *_{mu_1} (M_2 *_{mu_2} (... M_m)). A fundamental model
    decomposes as itself with no parameters.
    """

    models: tuple[ParametricModel, ...]
    mus: tuple[Fraction, ...]

    def fold(self) -> ParametricModel:
        result = self.models[-1]
        for model, mu in zip(reversed(self.models[:-1]), reversed(self.mus)):
            result = composite(model, result, mu)
        return result


def fundamentality(support: Iterable[Coord], d: int) -> tuple[int, ChipConfiguration | None]:
    """Decide whether an exponent set supports a fundamental model.

    The set is fundamental exactly when the outcomes supported on it plus
    the origin form a line whose generator, with the origin negative, is
    positive on every point of the set. Returns the dimension of that
    outcome space and the primitive integral generator, or None when the
    set is not fundamental. ``linalg.kernel_basis`` solves the top-edge
    conditions with the points in (degree, i) order, the origin first:
    the elimination's cost depends on the column order.
    """
    points = set(support)
    if (0, 0) in points:
        raise ValueError("the origin is not an admissible exponent pair")
    if not points:
        return 0, None
    check_inside(points, d)
    points = sorted(points | {(0, 0)}, key=degree_order)
    columns = top_edge_columns(d)
    basis = kernel_basis(list(zip(*(columns[p] for p in points))))
    if len(basis) != 1:
        return len(basis), None
    return 1, fundamental_generator(points, basis[0], d)


def fundamental_generator(points: list[Coord], vec: list[int], d: int) -> ChipConfiguration | None:
    """The fundamental outcome a one-dimensional kernel gives, or None.

    points lists the origin first, and vec is the kernel's generator
    over them in ``kernel_basis``'s form. Its first nonzero entry is
    positive, so the outcome is -vec exactly when every entry past the
    origin's is negative; that also rules out a zero origin entry.
    """
    if any(v >= 0 for v in vec[1:]):
        return None
    return ChipConfiguration({p: -v for p, v in zip(points, vec)}, ambient=d)


def is_fundamental(support: Iterable[Coord], d: int) -> bool:
    return fundamentality(support, d)[1] is not None


def decompose(model: ParametricModel) -> Decomposition:
    """Write a reduced model as a composite chain of fundamental models.

    Follows the constructive proof: pick a linear relation among the
    parametrization's terms, slide along it until a coordinate dies to
    split off a smaller model, and recurse on both halves. Duplicate
    leaves are merged, and exact arithmetic makes fold() reproduce the
    input on the nose.
    """
    if not model.is_reduced():
        raise ValueError("decomposition applies to reduced models")
    leaves: list[tuple[ParametricModel, Fraction]] = []

    def recurse(m: ParametricModel, coefficient: Fraction):
        # m's outcome puts the origin's column in its support's span, so m
        # is fundamental exactly when the support carries no relation.
        points = sorted(m.support, key=degree_order)
        relations = outcome_space(set(points), m.degree)
        if not relations:
            leaves.append((m, coefficient))
            return
        # Every top-edge column is nonnegative with a 1 in row a = i, so a
        # nonzero relation has entries of both signs: some v < 0 below.
        relation = relations[0]
        x = {p: Fraction(relation[p]) for p in points}
        weights = {(i, j): w for w, i, j in m.terms}
        lam = min(weights[p] / -v for p, v in x.items() if v < 0)
        u = {p: weights[p] + lam * x[p] for p in points}
        m1 = ParametricModel([(v, i, j) for (i, j), v in u.items() if v != 0])
        mu = min(weights[p] / v for p, v in u.items() if v != 0)
        v_weights = {p: (weights[p] - mu * u[p]) / (1 - mu) for p in points}
        m2 = ParametricModel([(v, i, j) for (i, j), v in v_weights.items() if v != 0])
        recurse(m1, coefficient * mu)
        recurse(m2, coefficient * (1 - mu))

    recurse(model, Fraction(1))
    # recurse refers to itself; without this the cycle keeps the leaves alive until gc runs.
    del recurse
    merged: dict[ParametricModel, Fraction] = {}
    for leaf, coefficient in leaves:
        merged[leaf] = merged.get(leaf, Fraction(0)) + coefficient
    order = tuple(merged)
    mus = []
    remaining = Fraction(1)
    for leaf in order[:-1]:
        mus.append(merged[leaf] / remaining)
        remaining -= merged[leaf]
    return Decomposition(order, tuple(mus))


def tightness_family(k: int) -> ChipConfiguration:
    """The degree-(2k+1) valid outcome with k+2 positive chips.

    Its entries are -1 at the origin, 1 at (2k+1, 0), and the weight
    (2k+1)/(2i+1) * binom(k+i, 2i) at (k-i, 2i+1) for 0 <= i <= k. The
    family shows the degree bound 2n-1 for outcomes with n+1 positive
    chips is attained for every n.
    """
    if k < 0:
        raise ValueError("the family is indexed by k >= 0")
    entries: dict[Coord, int] = {(0, 0): -1, (2 * k + 1, 0): 1}
    for i in range(k + 1):
        numerator = (2 * k + 1) * binomial(k + i, 2 * i)
        if numerator % (2 * i + 1) != 0:
            raise AssertionError(f"family weight at i={i} is not integral for k={k}")
        entries[(k - i, 2 * i + 1)] = numerator // (2 * i + 1)
    return ChipConfiguration(entries, ambient=2 * k + 1)


def family_summand(k: int, i: int) -> list[Fraction]:
    """Monomial coefficients of the (k, i) term of the family's defining sum.

    The term is (2k+1)/(2i+1) * binom(k+i, 2i) * t^{k-i} (1-t)^{2i+1},
    read as zero outside 0 <= i <= k; for k >= 1 these summands satisfy
    a four-term recurrence in the style of Sister Celine, which the
    tests verify by exact expansion.
    """
    if i < 0 or i > k or k < 0:
        return [Fraction(0)]
    coefficient = Fraction((2 * k + 1) * binomial(k + i, 2 * i), 2 * i + 1)
    return polynomial_coefficients([(coefficient, k - i, 2 * i + 1)])


def model_record(model: ParametricModel) -> dict:
    """The JSON object of a model, each weight as a numerator and a denominator."""
    return {"terms": [[w.numerator, w.denominator, i, j] for w, i, j in model.terms]}


def model_to_json(model: ParametricModel) -> str:
    return json.dumps(model_record(model))


def model_from_json(text: str) -> ParametricModel:
    """Read the JSON form written by model_to_json; malformed input raises ValueError."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("terms"), list):
        raise ValueError("expected an object with a 'terms' list")
    terms = []
    for item in payload["terms"]:
        if not isinstance(item, list) or len(item) != 4:
            raise ValueError(f"term {item!r} is not a [numerator, denominator, i, j] list")
        num, den, i, j = (_json_int(v, "term entry") for v in item)
        if den == 0 or i + j > MAX_INPUT_DEGREE:
            raise ValueError(f"term {item!r} has a zero denominator or degree above {MAX_INPUT_DEGREE}")
        terms.append((Fraction(num, den), i, j))
    return ParametricModel(terms)
