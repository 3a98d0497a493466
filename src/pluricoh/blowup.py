"""Anticanonical section counts for blow-ups of projective space at points.

Sections of the k-th anticanonical power on the blow-up of P^n at v
distinct points correspond to polynomials of degree at most (n+1)k whose
partial derivatives of every order below (n-1)k vanish at each point.
Those vanishing conditions are rows of an exact integer matrix against
the monomial basis, so each dimension is

    h0 = (number of monomials) - rank(condition matrix)

with each point's rows scaled by nonzero integers, which clears every
fraction and changes no rank.

Each point enters as an integer lift (x_0, ..., x_n), by default
(d, d*x), and its rows are taken in the chart of its first nonzero
coordinate x_j: a form vanishes to order m at the point exactly when each
of its derivatives of order below m in the other n coordinates does, and
evaluating them at the lift instead of at the lift divided by x_j scales
each row by a power of x_j.  Each row is built as constants that depend
only on the columns times the lift's one monomial row (`_rows`), which
scales it once more, by a monomial in the lift's other nonzero
coordinates.

A section is a form of degree d = (n+1)k vanishing to order m = (n-1)k at
every point, the class (d; m, ..., m).  In the plane ``h0_blowup`` first
peels fixed curves off that class by Bezout's theorem
(Miranda, "Linear systems of plane curves", Notices AMS 46, 1999):

- if the orders of the points on a line L sum above d, the restriction of
  a form to L vanishes too often, so L divides the form; dividing by L
  maps the system one to one onto the class with degree d - 1 and the
  orders on L one lower;
- the same holds for an irreducible conic whose points' orders sum above
  2d, with degree d - 2;
- a negative degree leaves h0 = 0, and a point of order 0 imposes nothing
  and drops out.

Each step tries a conic, then the lines, until neither search finds a
curve.  Each step is proved, so a curve the searches miss costs speed,
not correctness.  The conic tried is the one through the three chosen
points below and the first two images, O(v).  The line through the first
two points is tested exactly, O(v); other lines are found by hashing each
point's primitive directions to the later points, O(v^2), after a float
screen of the slopes of fewer pairs has ruled out most inputs.  That O(v^2)
pass is skipped when v^2 exceeds the multiply count of Bareiss on the
class's matrix on all monomials.  P^n with n >= 3 is not peeled.

A projective change of coordinates keeps h0, and at the coordinate points
e_0, ..., e_n the conditions are monomial: a form of degree d vanishes to
order m at e_i exactly when each of its monomials has exponent at most
d - m in x_i.  So ``h0_blowup`` takes the first s points of positive
order whose lifts are independent, s the dimension of the span of all
their lifts, and sends them to e_0, ..., e_(s-1) with one fraction-free
Gauss-Jordan pass over the lifts (`_move`), which also finds them; every
other point goes to its coefficients in the chosen lifts, followed by
zeros.  It then ranks the rows of the other images, each with its own
order, against the polytope of exponents beta of degree at most d with
exponent at most d - m_i in each of the s chosen coordinates (unpeeled,
for s = n + 1 in the plane a hexagon of C(3k+2, 2) - 3 C(k+1, 2) points,
7 of the 10 cubics at k = 1):

    h0 = (number of polytope points) - rank(rows of the images)

An entry of that matrix is a product of `degree` coordinates of an image,
times derivative factors, so its length is predicted as the degree times
the bit length of the longest image coordinate.  When
`exact_linalg.takes_modular_route` sends the matrix to the modular route
on that prediction, and the prediction exceeds RESIDUE_PRODUCT_BITS, the
length of a product of two residues mod p = MODULAR_PRIME, the matrix is
first built mod p (`jet_matrix` with a modulus), the same way in the
chart of each lift's first coordinate that is a unit mod p, with a
coordinate that is 0 mod p taken as zero.  Each row is a unit mod p
times the true derivatives in that chart, and a unit times the integer
row when no nonzero coordinate of the lift is divisible by p.  Their rank
mod p is at most the rational rank, so full rank mod p is the rank and
the integer matrix is never built (`exact_linalg.rank_from_residues`).
Below full rank the integer matrix is built and ranked with the
residues' elimination as its first pass, which unit row scalings leave
as it is when no nonzero coordinate of a lift is divisible by p.  A tall
matrix (more rows than columns) builds the residues of its leading
images first, the fewest whose rows reach its columns, and the other
images' residues only when the leading square falls short of full column
rank mod p.  So each image's residues are built at most once.

When the points span less than P^n, every image is zero on the
coordinates past the s-th, so its jet rows vanish off the columns whose
exponents there match the derivative's; ``rank`` splits such matrices
into blocks.  With s independent points and no other, no condition is
left to rank, and h0 is the lattice count with caps on s coordinates
only.

The module also ships deterministic configuration generators (generic,
collinear, on a conic) and a sweep that certifies, point replacement by
point replacement, every dimension achievable for a given number of points.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, repeat, starmap
from operator import le, mod, mul, sub, truediv
from typing import Iterable, Sequence

from .exact_linalg import MODULAR_PRIME, RatMatrix, rank, rank_from_residues, takes_modular_route
from .surface_invariants import PROV_RANK, CohomologyRow, cohomology_row, invariants_blowup_p2

GENERIC_COORD_BOUND = 10**6
GENERIC_SAMPLE_ATTEMPTS = 64
SWEEP_STEP_ATTEMPTS = 32

# The length of a product of two residues below MODULAR_PRIME, the entries
# of a jet matrix built mod p: `h0_blowup` builds one only when the integer
# entries are predicted longer.
RESIDUE_PRODUCT_BITS = ((MODULAR_PRIME - 1) ** 2).bit_length()

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
    # Each point as the integer vector (d, d*x), d the lcm of its coordinate denominators.
    lifts: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient dimension n must be positive")
        for point in self.points:
            if len(point) != self.n:
                raise ValueError(f"point {point} does not have {self.n} coordinates")
            if not all(isinstance(c, Fraction) for c in point):
                raise ValueError("coordinates must be Fractions")
        # Built once: h0_blowup reads them at every k, and again after each peel.
        lifts = []
        for point in self.points:
            numerators, denominators = [c.numerator for c in point], [c.denominator for c in point]
            d = math.lcm(*denominators)
            lifts.append((1, *numerators) if d == 1 else (d, *[p * (d // q) for p, q in zip(numerators, denominators)]))
        # Each point has one lift, and ints hash faster than Fractions.
        if len(set(lifts)) != len(lifts):
            raise ValueError("points must be pairwise distinct")
        object.__setattr__(self, "lifts", tuple(lifts))

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


@dataclass(frozen=True)
class JetConditionMatrix:
    """Derivative-vanishing conditions (rows) against monomials (columns).

    Row order: lifts in the order given, then derivative multi-indices alpha
    of order below the lift's, in graded order over the n coordinates other
    than x_j, the lift's first nonzero coordinate, in their order.  Column
    order: the exponents `jet_matrix` was given, by default every monomial
    exponent of degree at most D, the degree of the forms, in graded order
    with the first variable largest, as `_graded_exponents(n, D)` lists
    them; `h0_blowup` passes the polytope's exponents, a subsequence of
    that order, for moved points.  Entries are integers: the row of a lift
    P and of alpha holds d^alpha/dx^alpha of each monomial's form of degree
    D at P, times x^alpha over P's other nonzero coordinates x.  That is
    P_j^(D - |alpha|) x^alpha times the true derivatives, falling-factorial
    factors included, of the dehomogenized monomials in the chart x_j = 1
    at P / P_j.  Scaling rows changes no rank.  A point's default lift
    (d, d*x) has j = 0, so its rows are the true derivatives times
    d^(D - |alpha|) (d*x)^alpha over the nonzero coordinates of x.  Built
    with a modulus p, the rows are instead units mod p times the true
    derivatives in the chart of the first coordinate that is a unit mod p
    (see `_rows`).
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


def _powers(x: int, top: int, modulus: int | None = None) -> list[int]:
    """x^0, x^1, ..., x^top, each reduced mod `modulus` when one is given."""
    if modulus is not None:
        x %= modulus
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x if modulus is None else out[-1] * x % modulus)
    return out


def _product(left: Sequence[int], right: Sequence[int], modulus: int | None = None) -> list[int]:
    """The entrywise product, reduced mod `modulus` when one is given."""
    if modulus is None:
        return list(map(mul, left, right))
    return list(map(mod, map(mul, left, right), repeat(modulus)))


def monomial_count(n: int, k: int) -> int:
    """Number of monomials of degree <= (n+1)k in n variables."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return math.comb((n + 1) * k + n, n)


def _point_rows(n: int, m: int) -> int:
    """The jet rows of a point of order m in P^n: one per multi-index of order below m, C(m - 1 + n, n)."""
    return math.comb(m - 1 + n, n)


def jet_shape(n: int, v: int, k: int) -> tuple[int, int]:
    """(rows, cols) of the jet matrix of v points in dimension n at power k, on all monomials.

    A point of order m = (n-1)k has one row per multi-index alpha with
    |alpha| < m, C(m - 1 + n, n) of them, and there is one column per
    monomial of degree at most (n+1)k.  The generic sampler targets full
    rank from this shape, and the CLI caps the cell count with it.
    """
    cols = monomial_count(n, k)  # first, so k < 1 is refused before comb sees it
    return v * _point_rows(n, (n - 1) * k), cols


def jet_matrix(
    n: int,
    lifts: Sequence[Sequence[int]],
    degree: int,
    orders: Sequence[int],
    exponents: Sequence[tuple[int, ...]] | None = None,
    modulus: int | None = None,
) -> JetConditionMatrix:
    """Build the matrix of the conditions that a form of `degree` vanish to `orders`.

    `lifts` are points of P^n as nonzero integer vectors (x_0, ..., x_n),
    such as `PointConfiguration.lifts`, and `orders` holds one vanishing
    order per lift; h0 of power k is degree (n+1)k with every order
    (n-1)k.  The columns are the monomials x^beta for beta in `exponents`,
    each of total degree at most `degree`; by default all of them, in
    graded order.  A lift of order m has C(m - 1 + n, n) rows, one per
    multi-index of order below m, and there is one column per exponent;
    integer entries, as described on ``JetConditionMatrix``, with no
    Fraction formed.  For n = 2, degree 3 and order 1 the conditions are
    plain evaluation, mapping the lift (1, x, y) to the row (1, x, y, x^2,
    xy, y^2, x^3, x^2 y, x y^2, y^3).

    Each row is a row of constants C_alpha, computed once per call for
    each set of zero coordinates and order, times the lift's one monomial
    row M, entry by entry (`_rows`), so the columns enter only as
    exponents.  With a prime `modulus` p the same build runs mod p: each
    entry is a product of two residues, below p^2, and each row is a unit
    mod p times the true derivatives in the chart of the lift's first
    coordinate that is a unit mod p, and a unit times the integer row when
    no nonzero coordinate of the lift is divisible by p.

    n = 1 is rejected: a point of P^1 is a divisor, so the blow-up would
    not constrain sections at all.
    """
    if n < 2:
        raise ValueError("blow-ups require n >= 2; n = 1 imposes no vanishing conditions")
    # A short or long lift would otherwise be truncated by zip into a wrong matrix of the right shape.
    if not all(len(lift) == n + 1 and any(lift) for lift in lifts):
        raise ValueError(f"each lift must be a nonzero vector of n + 1 = {n + 1} integers")
    if len(orders) != len(lifts) or min(orders, default=0) < 0:
        raise ValueError("each lift needs one nonnegative vanishing order")
    monomials = _graded_exponents(n, degree) if exponents is None else exponents
    # Per order m: its rows' multi-indices, those of order below m, which graded order lists first.
    alphas = _graded_exponents(n, max(orders, default=0) - 1)
    by_order = {m: alphas[: _point_rows(n, m)] for m in set(orders)}
    # Per coordinate x_0, ..., x_n: its exponent in each column's form of degree `degree`.
    by_coordinate = [[degree - sum(beta) for beta in monomials], *zip(*monomials)]
    entries = _rows(lifts, orders, degree, by_coordinate, by_order, modulus)
    # RatMatrix checks the entry count, so every build tests the row count against the enumeration.
    rows = sum(len(by_order[m]) for m in orders)
    return JetConditionMatrix(matrix=RatMatrix(rows=rows, cols=len(monomials), entries=tuple(entries)))


def _rows(
    lifts: Sequence[Sequence[int]],
    orders: Sequence[int],
    degree: int,
    by_coordinate: Sequence[Sequence[int]],
    by_order: dict[int, list[tuple[int, ...]]],
    p: int | None,
) -> list[int]:
    """The entries of `jet_matrix`'s rows, row-major, over the integers (p None) or mod the prime p.

    `by_coordinate[i]` holds coordinate i's exponent e_i in each column's
    form of degree `degree`, and `by_order[m]` the multi-indices of an
    order-m lift's rows.  Mod p a lift is first divided by the gcd of its
    coordinates when p divides all of them, and each coordinate is taken
    mod p.  The lift's chart x_j is its first nonzero coordinate.  With u
    its other coordinates, a column's form is x_j^e_j u^e, and

        d^alpha u^e = C_alpha u^e u^(-alpha),  C_alpha = prod_i perm(e_i, alpha_i),

    where C_alpha depends only on the columns.  So each row is C_alpha
    times the lift's one monomial row M = x_j^e_j u^e, entry by entry,
    which is d^alpha of the forms at the lift times u^alpha.  M is one
    gather of each nonzero coordinate's power table, multiplied together,
    and the constants are computed once per (set of zero coordinates,
    order).  A coordinate u_i = 0 has d^alpha_i u_i^e_i = [e_i = alpha_i]
    perm(e_i, alpha_i), which goes into C_alpha, and nothing into M, nor
    into the scale u^alpha.

    Mod p the other coordinates are scaled by the inverse of x_j, whose
    powers would be all ones and are not gathered; the powers of a base 1
    are skipped.  Each row is then the true derivatives at P / P_j times
    the unit u^alpha, and when no nonzero coordinate of the lift is
    divisible by p, its integer row times x_j^(-degree).  C_alpha, a
    product over the n >= 2 other coordinates, and M are reduced, and each
    entry is their product, below p^2.
    """
    n = len(by_coordinate) - 1
    # falling[a][b] = perm(b, a), the a-th derivative factor of x^b (0 for b < a), and
    # exact[a][b] = that factor when b = a, else 0: the a-th derivative of x^b at x = 0.
    falling = [[math.perm(b, a) for b in range(degree + 1)] for a in range(max(by_order, default=0))]
    exact = [[row[a] if b == a else 0 for b in range(degree + 1)] for a, row in enumerate(falling)]
    ones = [1] * len(by_coordinate[0])
    # Per (which coordinates are nonzero, order): the chart j, the nonzero coordinates whose
    # powers M gathers, and the rows of constants C_alpha.
    plans: dict[tuple[bool | int, ...], tuple[int, list[int], list[list[int]]]] = {}
    entries: list[int] = []
    for lift, m in zip(lifts, orders):
        if not m:
            continue
        if p is not None:
            residues = [x % p for x in lift]
            lift = residues if any(residues) else [x // math.gcd(*lift) % p for x in lift]
        key = (*map(bool, lift), m)
        plan = plans.get(key)
        if plan is None:
            j = key.index(True)
            # Per other coordinate and derivative order a < m: its factor of C_alpha in each column.
            factors = [
                [list(map((falling if lift[i] else exact)[a].__getitem__, by_coordinate[i])) for a in range(m)]
                for i in range(n + 1)
                if i != j
            ]
            rows = []
            for alpha in by_order[m]:
                row = factors[0][alpha[0]]
                for factor, a in zip(factors[1:], alpha[1:]):
                    row = _product(row, factor[a], p)
                rows.append(row)
            plan = plans[key] = (j, [i for i in range(n + 1) if lift[i] and (p is None or i != j)], rows)
        j, gathered, rows = plan
        scale = 1 if p is None else pow(lift[j], -1, p)
        monomial = ones
        for i in gathered:
            base = lift[i] * scale
            if base != 1:
                column = list(map(_powers(base, degree, p).__getitem__, by_coordinate[i]))
                monomial = column if monomial is ones else _product(monomial, column, p)
        for row in rows:
            entries.extend(map(mul, row, monomial))
    return entries


def _polytope(n: int, degree: int, caps: Sequence[int]) -> list[tuple[int, ...]]:
    """Exponents beta of degree at most `degree` whose form has exponent at most caps[i] in x_i, graded.

    The form of beta has degree `degree`, and its exponent in x_0 is
    degree - |beta|; caps[i] bounds coordinate i for i < len(caps), and
    there is at least one cap.  A form vanishes to order m at the
    coordinate point e_i exactly when its exponent in x_i is at most
    degree - m, so these are the monomials that vanish to order m_i at e_i
    when caps[i] = degree - m_i.  Their number is
    `_capped_count(n, degree, caps)`.
    """
    monomials = _graded_exponents(n, degree)
    # Graded order puts the C(low - 1 + n, n) exponents of degree below low = degree - caps[0] first.
    above = monomials[math.comb(max(degree - caps[0], 0) - 1 + n, n) :]
    rest = caps[1:]
    return [beta for beta in above if all(map(le, beta, rest))]


def _capped_count(n: int, degree: int, caps: Sequence[int]) -> int:
    """Exponents of forms of `degree` in x_0, ..., x_n with exponent at most caps[i] in x_i.

    This is h0 when the only points are len(caps) <= n + 1 independent
    ones sent to as many coordinate points, caps[i] being `degree` less the
    order of the point at e_i.  Inclusion-exclusion over the capped
    coordinates whose exponent exceeds its cap: removing caps[i] + 1 from
    each coordinate i of a set S leaves C(degree - sum + n, n) forms, so
    there are at most 2^(n+1) terms.  A negative cap leaves no form.
    """
    if min(caps, default=0) < 0:
        return 0
    return sum(
        (-1) ** size * math.comb(degree - sum(over) + n, n)
        for size in range(len(caps) + 1)
        for over in combinations([cap + 1 for cap in caps], size)
        if sum(over) <= degree
    )


def _move(size: int, lifts: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The first independent lifts, and the other lifts moved so that those become coordinate points.

    One fraction-free Gauss-Jordan pass (Bareiss, Math. Comp. 22, 1968)
    over the lifts as columns, one row per coordinate, `size` of them:
    pivots are taken in column order, each in the first row not yet
    pivoted whose entry is nonzero, and every other row y becomes
    (pivot * y - f * z) // prev for the pivot row z, f the entry of y in
    the pivot column and prev the pivot before, an exact division
    (Sylvester's identity).  The pass
    stops at `size` pivots.  Its pivot columns, `chosen`, are the
    lexicographically first independent lifts L_0, ..., L_(s-1), s the
    dimension of the span of all the lifts, so every other lift is Q =
    sum_i c_i L_i, and its column ends in the pivot rows as the last pivot
    times (c_0, ..., c_(s-1)), integers by Cramer's rule.  That sends the
    chosen points to e_0, ..., e_(s-1) and Q to those entries, in pivot
    order, followed by size - s zeros.  Each image is divided by its
    content, which removes the pivot's scale, and signed so that its first
    nonzero coordinate is positive.
    """
    rows = [list(coordinate) for coordinate in zip(*lifts)]
    chosen: list[int] = []
    pivots: list[int] = []
    prev = 1
    for c in range(len(lifts)):
        r = next((i for i, row in enumerate(rows) if row[c] and i not in pivots), None)
        if r is None:
            continue
        top = rows[r]
        pivot = top[c]
        rows = [row if i == r else [(pivot * y - row[c] * z) // prev for y, z in zip(row, top)] for i, row in enumerate(rows)]
        prev = pivot
        chosen.append(c)
        pivots.append(r)
        if len(chosen) == size:
            break
    images = []
    for q in (q for q in range(len(lifts)) if q not in chosen):
        image = [rows[r][q] for r in pivots] + [0] * (size - len(pivots))
        g = math.gcd(*image) if next(filter(None, image)) > 0 else -math.gcd(*image)
        images.append(tuple([x // g for x in image]))
    return chosen, images


def _fewest(orders: Sequence[int], bound: int) -> int | None:
    """The fewest of the orders whose sum can exceed `bound`, or None if all of them together do not."""
    total = 0
    for count, m in enumerate(sorted(orders, reverse=True), start=1):
        total += m
        if total > bound:
            return count
    return None


def _affine_coordinates(lifts: Sequence[Sequence[int]]) -> tuple[Sequence[int], Sequence[int]]:
    """The x and y of affine plane lifts (x_0 > 0), all scaled by one positive integer to integers."""
    ws, xs, ys = zip(*lifts)
    scale = math.lcm(*ws)
    if scale == 1:
        return xs, ys
    return [x * (scale // w) for w, x in zip(ws, xs)], [y * (scale // w) for w, y in zip(ws, ys)]


def _maybe_collinear(xs: Sequence[int], ys: Sequence[int], count: int) -> bool:
    """False only if no `count` of the points (x, y) lie on one line.

    For count >= 3 the points are split into max(count - 2, 1) runs of
    consecutive indices, so count collinear points put at least two pairs
    into one run, and such pairs have one slope.  A slope is an int / int
    division, which is correctly rounded, so equal slopes give equal
    floats; equal floats of unequal slopes, a vertical pair or a slope past
    the float range only send the caller on to its exact pass.
    """
    if count < 3:
        return True
    size = -(-len(xs) // max(count - 2, 1))
    slopes: set[float] = set()
    pairs = 0
    try:
        for start in range(0, len(xs), size):
            run_x, run_y = xs[start : start + size], ys[start : start + size]
            slopes.update(map(truediv, starmap(sub, combinations(run_y, 2)), starmap(sub, combinations(run_x, 2))))
            pairs += math.comb(len(run_x), 2)
    except (ZeroDivisionError, OverflowError):
        return True
    return len(slopes) < pairs


def _heavy_line(lifts: Sequence[Sequence[int]], orders: Sequence[int], bound: int) -> list[int] | None:
    """Indices of the points on one line whose orders sum above `bound`, or None if there is none.

    The lifts are affine (x_0 > 0).  Such a line holds at least as many
    points as the fewest orders that sum above `bound`.  The line through
    the first two points is tested first, exactly and in O(v), so points
    that all lie on one line skip the screen.  Unless `_maybe_collinear`
    rules a heavy line out, each point is a base in turn, and the later
    points are hashed by their direction from it, made primitive with its
    first nonzero entry positive: O(v^2).  The first base's lines are
    hashed in the order of their first later point, so when the line
    through the first two points is heavy, the hashing returns it first
    too, with the same indices.  The screen and the hashing are skipped
    when v^2 exceeds rows * cols * min(rows, cols), Bareiss's multiply
    count on the class's matrix on all monomials (rows = sum of C(m + 1, 2)
    over the orders, cols = C(bound + 2, 2)): a line missed costs no more
    than the rank it could have saved.
    """
    need = _fewest(orders, bound)
    if need is None:
        return None
    need = max(need, 2)
    if len(lifts) < need:
        return None
    xs, ys = _affine_coordinates(lifts)
    x0, y0, a, b = xs[0], ys[0], xs[1] - xs[0], ys[1] - ys[0]
    first = [j for j, x, y in zip(range(len(xs)), xs, ys) if a * (y - y0) == b * (x - x0)]
    if sum(orders[j] for j in first) > bound:
        return first
    rows, cols = sum(_point_rows(2, m) for m in orders), math.comb(bound + 2, 2)
    if len(lifts) ** 2 > rows * cols * min(rows, cols) or not _maybe_collinear(xs, ys, need):
        return None
    for i in range(len(lifts) - need + 1):
        x, y = xs[i], ys[i]
        lines: dict[tuple[int, int], list[int]] = {}
        for j, a, b in zip(range(i + 1, len(lifts)), map(x.__rsub__, xs[i + 1 :]), map(y.__rsub__, ys[i + 1 :])):
            g = math.gcd(a, b) if a > 0 or (a == 0 and b > 0) else -math.gcd(a, b)
            lines.setdefault((a // g, b // g), [i]).append(j)
        for members in lines.values():
            if len(members) >= need:
                weight = sum(orders[j] for j in members)
                if weight > bound:
                    return members
    return None


def _heavy_conic(
    images: Sequence[Sequence[int]], image_orders: Sequence[int], chosen_orders: Sequence[int], bound: int
) -> list[int] | None:
    """Indices of the images on an irreducible conic through e_0, e_1, e_2 whose points' orders sum above `bound`.

    The chosen points sit at the coordinate points, one per entry of
    `chosen_orders`; with fewer than three, or too few points to sum above
    `bound`, there is nothing to search.  A conic through e_0, e_1, e_2 is
    a x_1 x_2 + b x_0 x_2 + c x_0 x_1, and through the first two images q
    and r it is (a, b, c) = u(q) x u(r), u(q) = (q_1 q_2, q_0 q_2, q_0 q_1).
    It is irreducible exactly when abc != 0, its matrix's determinant up to
    a factor.  This is the one candidate: None when it is not irreducible
    or not heavy.
    """
    need = _fewest([*chosen_orders, *image_orders], bound)
    if len(chosen_orders) < 3 or need is None or 3 + len(images) < max(need, 5):
        return None
    (q0, q1, q2), (r0, r1, r2) = images[:2]
    u, w = (q1 * q2, q0 * q2, q0 * q1), (r1 * r2, r0 * r2, r0 * r1)
    a, b, c = u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]
    if not (a and b and c):
        return None
    on = [i for i, (x0, x1, x2) in enumerate(images) if not (a * x1 + b * x0) * x2 + c * x0 * x1]
    weight = sum(chosen_orders) + sum(image_orders[i] for i in on)
    return on if weight > bound else None


def _peel(lifts: list, orders: list[int], curve: Iterable[int]) -> tuple[list, list[int]]:
    """The points and orders once a fixed curve through the points at `curve` is divided out.

    Their orders drop by one; points left with order 0 impose nothing and go.
    """
    on = set(curve)
    kept = [(lift, m - (i in on)) for i, (lift, m) in enumerate(zip(lifts, orders))]
    return [lift for lift, m in kept if m], [m for _, m in kept if m]


def h0_blowup(config: PointConfiguration, k: int) -> int:
    """dim H^0 of the k-th anticanonical power on the blow-up at the points.

    Sections are forms of degree (n+1)k vanishing to order (n-1)k at each
    point.  Each step sends the s independent points found first to
    coordinate points, with one pass of `_move`.  In the plane, a line or
    conic that must divide every such form is then peeled off and the step
    repeats (see the module docstring).  Once none is found, only the other
    points' rows are ranked, against the polytope's columns with caps on
    those s coordinates; v = s independent points need no rank at all.
    So one jet matrix is built and ranked, or none.  n = 1
    is rejected, as in ``jet_matrix``, and so is k < 1.
    """
    n, lifts = config.n, config.lifts
    if n < 2:
        raise ValueError("blow-ups require n >= 2; n = 1 imposes no vanishing conditions")
    if k < 1:
        raise ValueError("k must be positive")
    degree, orders = (n + 1) * k, [(n - 1) * k] * len(lifts)
    while degree >= 0:
        chosen, images = _move(n + 1, lifts)
        caps = [degree - orders[c] for c in chosen]
        if not images:
            return _capped_count(n, degree, caps)
        others = [i for i in range(len(lifts)) if i not in chosen]
        image_orders = [orders[i] for i in others]
        if n == 2:
            # The conic first: its search is O(v) on the images, and a conic's
            # parallel chords would send the line search to its exact pass.
            conic = _heavy_conic(images, image_orders, [orders[c] for c in chosen], 2 * degree)
            if conic is not None:
                degree, (lifts, orders) = degree - 2, _peel(lifts, orders, [*chosen, *(others[i] for i in conic)])
                continue
            line = _heavy_line(lifts, orders, degree)
            if line is not None:
                degree, (lifts, orders) = degree - 1, _peel(lifts, orders, line)
                continue
        columns = _polytope(n, degree, caps)
        if not columns:
            return 0
        # An entry is a product of `degree` coordinates of an image, up to derivative factors.
        predicted = degree * max(abs(x) for image in images for x in image).bit_length()
        # totals[i]: the rows of the first i + 1 images.
        totals = list(accumulate(_point_rows(n, m) for m in image_orders))
        # Positional, as every call of jet_matrix, so wrappers that take *args see it.
        if predicted > RESIDUE_PRODUCT_BITS and takes_modular_route(totals[-1], len(columns), predicted):
            # The leading images, the fewest whose rows reach the columns, are fewer than all only
            # when the block is tall; the other images' residues are built only if their leading
            # square falls short.
            head = bisect_left(totals, len(columns)) + 1
            residues = jet_matrix(n, images[:head], degree, image_orders[:head], columns, MODULAR_PRIME).matrix
            others = images[head:], degree, image_orders[head:], columns, MODULAR_PRIME
            return len(columns) - rank_from_residues(
                residues,
                (lambda: jet_matrix(n, *others).matrix.entries) if head < len(images) else None,
                lambda: jet_matrix(n, images, degree, image_orders, columns).matrix,
            )
        return len(columns) - rank(jet_matrix(n, images, degree, image_orders, columns).matrix)
    return 0


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
               (rows, cols) of `jet_shape(2, v, k)`.  At v >= 4,
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
