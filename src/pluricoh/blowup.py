"""Anticanonical section counts for blow-ups of projective space at points.

Sections of the k-th anticanonical power on the blow-up of P^n at v
distinct points correspond to polynomials of degree at most (n+1)k whose
partial derivatives of every order below (n-1)k vanish at each point.
Those vanishing conditions are rows of an exact integer matrix against
the monomial basis, so each dimension is

    h0 = (number of monomials) - rank(condition matrix)

with each point's rows scaled by a power of its coordinate denominator,
which clears every fraction and changes no rank.

Each point enters as an integer lift (x_0, ..., x_n), by default
(d, d*x), and its rows are taken in the chart of its first nonzero
coordinate x_j: a form vanishes to order m at the point exactly when each
of its derivatives of order below m in the other n coordinates does, and
evaluating them at the lift instead of at the lift divided by x_j scales
each row by a power of x_j.

A projective change of coordinates keeps h0, and at the coordinate points
e_0, ..., e_n the conditions are monomial: a form of degree (n+1)k vanishes
to order (n-1)k at e_i exactly when each of its monomials has exponent at
most 2k in x_i.  So when the conditions include a derivative, (n-1)k >= 2,
``h0_blowup`` takes the first s points whose lifts are independent, s the
dimension of the span of all the lifts, completes them to a basis of unit
vectors, and sends them to coordinate points by the adjugate of that basis.
It then ranks the rows of the other v - s images against the polytope of
exponents beta with (n-1)k <= |beta| <= (n+1)k and beta_i <= 2k on the
other s - 1 chosen coordinates (for s = n + 1 in the plane a hexagon of
C(3k+2, 2) - 3 C(k+1, 2) points):

    h0 = (number of polytope points) - rank(rows of the images)

When the points span less than P^n, every image is zero on the completing
coordinates, so its jet rows vanish off the columns whose exponents there
match the derivative's; ``rank`` splits such matrices into blocks.  With
v = s independent points no condition is left to rank, and h0 is the
lattice count with caps on v coordinates only.  Plane k = 1 (plain
evaluation, whose moved entries would be three times as long) keeps the
matrix on all monomials.

The module also ships deterministic configuration generators (generic,
collinear, on a conic) and a sweep that certifies, point replacement by
point replacement, every dimension achievable for a given number of points.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .exact_linalg import RatMatrix, rank
from .surface_invariants import PROV_RANK, CohomologyRow, cohomology_row, invariants_blowup_p2

GENERIC_COORD_BOUND = 10**6
GENERIC_SAMPLE_ATTEMPTS = 64
SWEEP_STEP_ATTEMPTS = 32

# A point-file coordinate: an ASCII numerator and an optional denominator,
# each handed to int().  Fraction(str) would also take decimals, exponents,
# underscores and non-ASCII digits, and parses the token a second time.
_COORDINATE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class SamplingBudgetError(RuntimeError):
    """The deterministic sampler exhausted its attempt budget.

    Random rational points fail genericity with probability essentially
    zero, so running out of attempts signals a defective sampler or an
    impossible target, not bad luck.
    """


class PointFileError(ValueError):
    """A point file could not be parsed into a valid configuration."""


@dataclass(frozen=True)
class PointConfiguration:
    """v pairwise-distinct points with exact rational affine coordinates.

    The input format writes points in one affine chart, so none lies on the
    hyperplane at infinity; `lifts` are their homogeneous coordinates, and
    the jet matrices take any point of P^n in its own chart.
    """

    n: int
    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient dimension n must be positive")
        for point in self.points:
            if len(point) != self.n:
                raise ValueError(f"point {point} does not have {self.n} coordinates")
            if not all(isinstance(c, Fraction) for c in point):
                raise ValueError("coordinates must be Fractions")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    @property
    def v(self) -> int:
        return len(self.points)

    @classmethod
    def from_coordinates(cls, coords: Sequence[Sequence[Fraction | int]]) -> "PointConfiguration":
        # Lists first, as in RatMatrix.from_rows.
        points = tuple([tuple([Fraction(c) for c in point]) for point in coords])
        if not points:
            raise ValueError("cannot infer ambient dimension from an empty point list")
        return cls(n=len(points[0]), points=points)

    @property
    def lifts(self) -> list[tuple[int, ...]]:
        """Each point as the integer vector (d, d*x), d the lcm of its coordinate denominators."""
        lifts = []
        for point in self.points:
            d = math.lcm(*(c.denominator for c in point))
            lifts.append((d, *[c.numerator * (d // c.denominator) for c in point]))
        return lifts


@dataclass(frozen=True)
class JetConditionMatrix:
    """Derivative-vanishing conditions (rows) against monomials (columns).

    Row order: lifts in the order given, then derivative multi-indices alpha
    in graded order over the n coordinates other than x_j, the lift's first
    nonzero coordinate, in their order.  Column order: the exponents
    `jet_matrix` was given, by default every monomial exponent in graded
    order with the first variable largest, as `_graded_exponents(n, (n+1)k)`
    lists them; `h0_blowup` passes the polytope's exponents, a subsequence
    of that order, for moved points.  Entries are integers: the row of a
    lift P and of alpha holds d^alpha/dx^alpha of each monomial's form of
    degree (n+1)k at P, which is P_j^((n+1)k - |alpha|) times the true
    derivatives, falling-factorial factors included, of the dehomogenized
    monomials in the chart x_j = 1 at P / P_j.  Scaling rows changes no
    rank.  A point's default lift (d, d*x) has j = 0, so its rows are the
    true derivatives times d^((n+1)k - |alpha|), and integer points (d = 1)
    give the true derivatives.
    """

    matrix: RatMatrix


def _graded_exponents(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= max_degree, graded, first variable first.

    Within each degree, tuples are listed with the leading exponent
    descending, so for n = 2 the order is 1, x, y, x^2, xy, y^2, ...
    """
    # by_degree[d]: the tuples of the current length that sum to d, in order;
    # each pass prepends one more leading exponent.
    by_degree = [[(d,)] for d in range(max_degree + 1)]
    for _ in range(n - 1):
        by_degree = [
            [(e,) + rest for e in range(d, -1, -1) for rest in by_degree[d - e]]
            for d in range(max_degree + 1)
        ]
    return [beta for betas in by_degree for beta in betas]


def _powers(x: int, top: int) -> list[int]:
    """x^0, x^1, ..., x^top."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def monomial_count(n: int, k: int) -> int:
    """Number of monomials of degree <= (n+1)k in n variables."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return math.comb((n + 1) * k + n, n)


def jet_shape(
    n: int, v: int, k: int, exponents: Sequence[tuple[int, ...]] | None = None
) -> tuple[int, int]:
    """(rows, cols) of the jet matrix of v points in dimension n at power k.

    One row per point and multi-index alpha of order |alpha| < (n-1)k, one
    column per exponent in `exponents`, by default per monomial of degree
    at most (n+1)k.  This is the one closed form of the shape: `jet_matrix`
    builds to it, the generic sampler targets full rank from it, and the
    CLI caps the cell count with the default shape.
    """
    cols = monomial_count(n, k)  # first, so k < 1 is refused before comb sees it
    if exponents is not None:
        cols = len(exponents)
    return v * math.comb((n - 1) * k - 1 + n, n), cols


def jet_matrix(
    n: int, lifts: Sequence[Sequence[int]], k: int, exponents: Sequence[tuple[int, ...]] | None = None
) -> JetConditionMatrix:
    """Build the matrix of vanishing conditions defining h0 of power k.

    `lifts` are points of P^n as nonzero integer vectors (x_0, ..., x_n),
    such as `PointConfiguration.lifts`.  The columns are the monomials
    x^beta for beta in `exponents`, each of total degree at most (n+1)k; by
    default all of them, in graded order.  Shaped as ``jet_shape`` says;
    integer entries, as described on ``JetConditionMatrix``, with no
    Fraction formed.  For n = 2, k = 1 the conditions degenerate to plain
    evaluation, mapping the lift (1, x, y) to the row (1, x, y, x^2, xy,
    y^2, x^3, x^2 y, x y^2, y^3).

    A lift's rows are the leaves of a product tree over alpha, in the chart
    of its first nonzero coordinate x_j.  A node is a prefix (alpha_1, ...,
    alpha_i): its parent times the alpha_i-th derivative of the i-th other
    coordinate's power, per column.  The root, x_j to its exponent in each
    column's form of degree (n+1)k, is all ones when x_j = 1 and is skipped.
    So an entry costs one product beyond the prefixes it shares, and the
    columns enter only as exponents.

    n = 1 is rejected: there (n-1)k = 0 and the condition set would be
    vacuous, so the blow-up would not constrain sections at all.
    """
    if n < 2:
        raise ValueError("blow-ups require n >= 2; n = 1 imposes no vanishing conditions")
    # A short or long lift would otherwise be truncated by zip into a wrong matrix of the right shape.
    if not all(len(lift) == n + 1 and any(lift) for lift in lifts):
        raise ValueError(f"each lift must be a nonzero vector of n + 1 = {n + 1} integers")
    rows, cols = jet_shape(n, len(lifts), k, exponents)
    top = (n + 1) * k
    order = (n - 1) * k - 1
    monomials = _graded_exponents(n, top) if exponents is None else exponents
    alphas = _graded_exponents(n, order)
    # falling[a - 1][b - a] = perm(b, a) for 1 <= a <= order and a <= b <= top.
    falling = [[math.perm(b, a) for b in range(a, top + 1)] for a in range(1, order + 1)]
    # Per coordinate x_0, ..., x_n: its exponent in each column's form of degree top.
    by_coordinate = [[top - sum(beta) for beta in monomials], *zip(*monomials)]
    # Per chart j: the root's exponents, then those of the other coordinates, one per tree level.
    charts = [(by_coordinate[j], by_coordinate[:j] + by_coordinate[j + 1 :]) for j in range(n + 1)]
    # Tree levels 2..n: the distinct alpha prefixes of each length; the last is the alphas, in row order.
    levels = [list(dict.fromkeys(alpha[:length] for alpha in alphas)) for length in range(2, n + 1)]
    entries: list[int] = []
    for lift in lifts:
        j = 0 if lift[0] else next(i for i, x in enumerate(lift) if x)
        root_exponents, chart = charts[j]
        gathered = []
        for x, column_exponents in zip(lift[1:] if j == 0 else [*lift[:j], *lift[j + 1 :]], chart):
            q = _powers(x, top)
            # Per order a: perm(b, a) q[b - a], the a-th derivative of x^b, 0 for b < a; order 0 is q.
            tables = [q] + [[0] * a + list(map(mul, perms, q)) for a, perms in enumerate(falling, start=1)]
            gathered.append([list(map(table.__getitem__, column_exponents)) for table in tables])
        nodes = {(a,): row for a, row in enumerate(gathered[0])}
        if lift[j] != 1:
            root = list(map(_powers(lift[j], top).__getitem__, root_exponents))
            nodes = {prefix: list(map(mul, root, row)) for prefix, row in nodes.items()}
        for by_order, level in zip(gathered[1:], levels):
            nodes = {prefix: list(map(mul, nodes[prefix[:-1]], by_order[prefix[-1]])) for prefix in level}
        for row in nodes.values():
            entries.extend(row)
    # RatMatrix checks the entry count, so every build tests jet_shape against the enumeration.
    matrix = RatMatrix(rows=rows, cols=cols, entries=tuple(entries))
    return JetConditionMatrix(matrix=matrix)


def _polytope(n: int, k: int, capped: int | None = None) -> list[tuple[int, ...]]:
    """Exponents beta with (n-1)k <= |beta| <= (n+1)k and beta_i <= 2k for i < capped - 1, graded.

    They are the monomials of degree at most (n+1)k whose form of degree
    (n+1)k has exponent at most 2k in each of x_0, ..., x_(capped-1), that
    is, vanishes to order (n-1)k at each of the first `capped` coordinate
    points; by default all n + 1 of them.  Their number is
    `_capped_count(n, k, capped)`.
    """
    low, cap = (n - 1) * k, 2 * k
    bounded = n if capped is None else capped - 1  # x_0's cap is the bound on |beta|
    # Graded order puts the C(low - 1 + n, n) exponents of degree below low first.
    above = _graded_exponents(n, (n + 1) * k)[math.comb(low - 1 + n, n) :]
    return [beta for beta in above if max(beta[:bounded] or (0,)) <= cap]


def _capped_count(n: int, k: int, capped: int) -> int:
    """Exponents of forms of degree (n+1)k in x_0, ..., x_n with the first `capped` at most 2k.

    This is h0 for `capped` <= n + 1 independent points sent to as many
    coordinate points.  Inclusion-exclusion over the capped variables whose
    exponent exceeds 2k: removing 2k + 1 from each of j of them leaves
    C((n+1)k - j(2k+1) + n, n) forms.
    """
    top = (n + 1) * k
    return sum(
        (-1) ** j * math.comb(capped, j) * math.comb(top - j * (2 * k + 1) + n, n)
        for j in range(capped + 1)
        if j * (2 * k + 1) <= top
    )


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by Laplace expansion along its first row.

    Its sizes here are n, at most 5 within the CLI's dimension cap, where
    the expansion is cheaper than elimination.
    """
    if len(rows) == 1:
        return rows[0][0]
    rest = rows[1:]
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in rest]) for j, x in enumerate(rows[0]) if x)


def _cofactor_row(columns: Sequence[Sequence[int]], i: int) -> list[int]:
    """Row i of adj(M) for the matrix M with these columns.

    Its product with a vector Q is det(M with column i replaced by Q), so it
    vanishes on the hyperplane through the other columns; entry j is the
    cofactor of M at (j, i).  A list of columns read as rows is M's
    transpose, which has the same minors.
    """
    others = [*columns[:i], *columns[i + 1 :]]
    return [(-1) ** (i + j) * _det([column[:j] + column[j + 1 :] for column in others]) for j in range(len(columns))]


def _independent_lifts(lifts: Sequence[Sequence[int]], cap: int) -> list[int]:
    """Indices of the lifts each independent of those kept before it, at most `cap` of them.

    Fraction-free elimination in one pass, so O(v) for v lifts: each lift
    is reduced against the rows kept so far, each with its own pivot
    column, and a nonzero remainder is kept.  Greedy selection gives the
    lexicographically first independent set, so with cap = n + 1 these are
    the first n + 1 points, in lexicographic order, whose lifts span.
    """
    kept: list[tuple[int, list[int]]] = []
    indices: list[int] = []
    for index, lift in enumerate(lifts):
        row = list(lift)
        for c, pivot_row in kept:
            if row[c]:
                a, b = pivot_row[c], row[c]
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
        c = next((i for i, x in enumerate(row) if x), None)
        if c is not None:
            kept.append((c, row))
            indices.append(index)
            if len(indices) == cap:
                break
    return indices


def _coordinate_images(lifts: Sequence[Sequence[int]], chosen: Sequence[int]) -> list[tuple[int, ...]]:
    """The other lifts moved so that the chosen points become coordinate points.

    The chosen lifts, followed by the unit vectors e_0, ..., e_n that are
    independent of them and of those taken before, are a basis, the columns
    of a matrix M.  Row i of adj(M) maps Q to det(M with column i replaced
    by Q), so adj(M) sends the chosen lifts to det(M) e_i and every other
    lift Q to the integer vector adj(M) Q, zero at the completion's
    coordinates when Q lies in the chosen points' span.  Each image is
    divided by its content, signed so that its first nonzero coordinate is
    positive.
    """
    size = len(lifts[0])
    units = [tuple([int(i == j) for i in range(size)]) for j in range(size)]
    basis = [*[lifts[c] for c in chosen], *units]
    columns = [basis[j] for j in _independent_lifts(basis, size)]
    adjugate = [_cofactor_row(columns, i) for i in range(size)]
    images = []
    for q in (q for index, q in enumerate(lifts) if index not in chosen):
        image = [sum(map(mul, row, q)) for row in adjugate]
        g = math.gcd(*image) if next(filter(None, image)) > 0 else -math.gcd(*image)
        images.append(tuple([x // g for x in image]))
    return images


def h0_blowup(config: PointConfiguration, k: int) -> int:
    """dim H^0 of the k-th anticanonical power on the blow-up at the points.

    When the conditions include a derivative ((n-1)k >= 2), the s
    independent points found first are moved to coordinate points and
    only the other points' rows are ranked, against the polytope's columns
    with caps on those s coordinates; v = s independent points need no
    rank at all (see the module docstring).  Plane k = 1 ranks the matrix
    on all monomials.  Either way one jet matrix is built and ranked, or
    none.
    """
    n = config.n
    lifts = config.lifts
    if (n - 1) * k >= 2:
        chosen = _independent_lifts(lifts, n + 1)
        if len(chosen) == len(lifts):
            return _capped_count(n, k, len(chosen))
        columns = _polytope(n, k, len(chosen))
        # Positional, as every call of jet_matrix, so wrappers that take *args see it.
        return len(columns) - rank(jet_matrix(n, _coordinate_images(lifts, chosen), k, columns).matrix)
    return monomial_count(n, k) - rank(jet_matrix(n, lifts, k).matrix)


def _rng(seed: int, *indices: int) -> random.Random:
    # String seeding hashes through sha512, so streams are stable across
    # runs and platforms and fully determined by (seed, indices).
    return random.Random(":".join(str(part) for part in (seed, *indices)))


def _sample_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    return (
        Fraction(rng.randint(-GENERIC_COORD_BOUND, GENERIC_COORD_BOUND)),
        Fraction(rng.randint(-GENERIC_COORD_BOUND, GENERIC_COORD_BOUND)),
    )


def _sample_configuration(rng: random.Random, v: int) -> PointConfiguration:
    # An insertion-ordered dict skips repeated draws in constant time and keeps first-seen order.
    points: dict[tuple[Fraction, Fraction], None] = {}
    while len(points) < v:
        points[_sample_point(rng)] = None
    return PointConfiguration(n=2, points=tuple(points))


def _first_with_h0(
    samples: Iterable[PointConfiguration | None], k: int, h0: int
) -> tuple[PointConfiguration, CohomologyRow]:
    """The first sample whose row at power k has h0(-kK) = h0, with that row.

    A None sample is an attempt that gave no valid configuration; it still
    counts as an attempt.
    """
    attempts = 0
    for attempts, config in enumerate(samples, start=1):
        if config is not None:
            row = blowup_row(config, k)
            if row.h0_minus_kK == h0:
                return config, row
    raise SamplingBudgetError(f"no sample reached h0(-{k}K) = {h0} within {attempts} attempts")


def generate_configuration(
    kind: str, v: int, seed: int = 0, k: int = 1
) -> tuple[PointConfiguration, CohomologyRow]:
    """Produce a plane point configuration of one of the stock kinds, with its row at power k.

    generic    v points with integer coordinates drawn deterministically
               from `seed`, resampled until the jet matrix of power k has
               full rank, i.e. h0(-kK) = max(cols - rows, 0) for the
               (rows, cols) of `jet_shape(2, v, k)`.  At k >= 2 and v >= 4,
               `h0_blowup` ranks the polytope's matrix of the v - 3 moved
               points instead, and the target is the same number as that
               matrix's full-rank value, |P| - (v - 3) C(k+1, 2).
               That is the least h0 any v points can have, so genericity is
               certified at the power used by that exact rank, never assumed.
               Full rank is reachable at every k: v <= 8 general points give
               a weak del Pezzo surface, 9 leave only their cubic, and one
               more point off that cubic kills it.
    collinear  (1, 0), ..., (v, 0): for v >= 4 the evaluation rows span a
               fixed 4-dimensional space.
    on_conic   (1, 1), (2, 4), ..., (v, v^2): rows span at most 7 dimensions.

    Explicit points go through ``PointConfiguration.from_coordinates``.
    """
    if v < 1:
        raise ValueError("v must be positive")
    if kind == "generic":
        rows, cols = jet_shape(2, v, k)
        samples = (_sample_configuration(_rng(seed, a), v) for a in range(GENERIC_SAMPLE_ATTEMPTS))
        return _first_with_h0(samples, k, max(cols - rows, 0))
    if kind == "collinear":
        coords = [(i, 0) for i in range(1, v + 1)]
    elif kind == "on_conic":
        coords = [(i, i * i) for i in range(1, v + 1)]
    else:
        raise ValueError(f"unknown configuration kind {kind!r}")
    config = PointConfiguration.from_coordinates(coords)
    return config, blowup_row(config, k)


def achievable_dims(v: int, seed: int = 0) -> list[tuple[int, PointConfiguration]]:
    """Witness every achievable value of h0 of the anticanonical bundle.

    For v >= 5 points the dimension can be anything from max(10 - v, 0)
    (generic position) up to 6 (all points on a line).  Starting from the
    collinear configuration, points are replaced one at a time by sampled
    generic ones; a replacement changes a single matrix row, so the rank
    moves by at most 1 per step and the sweep passes through every
    intermediate value.  Each witness is certified by an exact rank
    computation before it is returned.

    Returns (dimension, witness) pairs in increasing dimension order.
    Raises SamplingBudgetError if some intermediate dimension cannot be
    realized within SWEEP_STEP_ATTEMPTS attempts at one step.
    """
    if v < 5:
        raise ValueError("for v <= 4 the dimension is forced to 10 - v; no sweep to run")
    config, row = generate_configuration("collinear", v)
    if row.h0_minus_kK != 6:
        raise RuntimeError(f"collinear configuration produced h0 {row.h0_minus_kK}, expected 6")
    witnesses = [(6, config)]
    for step, h0 in enumerate(range(5, max(10 - v, 0) - 1, -1), start=1):
        # Replace point number `step` by a sampled one; duplicates are wasted attempts.
        head, tail = config.points[: step - 1], config.points[step:]
        trials = (
            head + (_sample_point(_rng(seed, step, a)),) + tail for a in range(SWEEP_STEP_ATTEMPTS)
        )
        samples = (PointConfiguration(n=2, points=t) if len(set(t)) == v else None for t in trials)
        config, _ = _first_with_h0(samples, 1, h0)
        witnesses.append((h0, config))
    return witnesses[::-1]


def blowup_row(config: PointConfiguration, k: int) -> CohomologyRow:
    """The cohomology row of power k on a plane blow-up, from one jet rank."""
    if config.n != 2:
        raise ValueError("cohomology rows are implemented for blow-ups of the plane only")
    return cohomology_row(k, h0_blowup(config, k), invariants_blowup_p2(config.v), PROV_RANK)


def h1_2K_range(v: int) -> tuple[int, int]:
    """Admissible window of h1(2K) for v points; v <= 4 forces h0(-K) = 10 - v, so 0."""
    return (max(0, v - 10), v - 4) if v >= 5 else (0, 0)


def parse_point_file(text: str) -> PointConfiguration:
    """Parse the plain-text point format: one point per line.

    Coordinates are exact rationals written as ASCII ``[+-]digits`` or
    ``[+-]digits/digits``, separated by whitespace; any other token is an
    error.  Blank lines and lines starting with '#' are ignored.  All points
    must have the same number of coordinates.
    """
    coords: list[tuple[Fraction, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        matches = list(map(_COORDINATE.fullmatch, tokens))
        if None in matches:
            bad = tokens[matches.index(None)]
            raise PointFileError(f"line {lineno}: invalid coordinate {bad!r}: expected an integer or p/q")
        try:
            # int() raises the digit-limit ValueError, and Fraction(n, 0) the
            # ZeroDivisionError "Fraction(n, 0)", as Fraction(token) would.
            parts = map(re.Match.groups, matches)
            point = tuple([Fraction(int(num), int(den)) if den else Fraction(int(num)) for num, den in parts])
        except (ValueError, ZeroDivisionError) as exc:
            raise PointFileError(f"line {lineno}: {exc}") from None
        if coords and len(point) != len(coords[0]):
            raise PointFileError(
                f"line {lineno}: inconsistent coordinate count: "
                f"expected {len(coords[0])}, got {len(point)}"
            )
        coords.append(point)
    if not coords:
        raise PointFileError("no points found in file")
    try:
        return PointConfiguration(n=len(coords[0]), points=tuple(coords))
    except ValueError as exc:
        raise PointFileError(str(exc)) from None
