"""Independent cross-check oracles and the runtime invariant suite.

The oracles here re-derive results by the most naive correct route (plain
integer row elimination, the Vandermonde determinant as a product of
differences, direct lattice walks) so that the production algorithms have
something genuinely different to agree with.  ``run_selfcheck`` sweeps
every cross-check the package relies on at a grid size controlled by a
budget and reports the first counterexample of each failing check.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import blowup, exact_linalg, family, hirzebruch, surface_invariants
from .exact_linalg import RatMatrix


def naive_rank(matrix: RatMatrix) -> int:
    """Rank by plain integer row elimination, counting pivots.

    Each row below the pivot row becomes a * row - b * pivot_row, where a is
    the pivot entry and b the row's own entry in the pivot column, and is
    then divided by the gcd of its entries.  Both are invertible row
    operations, so the rank is the number of pivots.  This stays the
    dumbest correct integer route on purpose: unlike Bareiss it never
    divides by an earlier pivot, and unlike the modular route it reduces
    modulo no prime, so a fault in either production route has a genuinely
    different algorithm to disagree with.
    """
    rows = [list(matrix.row(i)) for i in range(matrix.rows)]
    r = 0
    for c in range(matrix.cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # Rows r and below are zero left of column c, so only their tails change.
        top = rows[r][c:]
        a = top[0]
        for row in rows[r + 1 :]:
            b = row[c]
            if b:
                tail = [a * x - b * y for x, y in zip(row[c:], top)]
                g = math.gcd(*tail)
                row[c:] = [x // g for x in tail] if g > 1 else tail
        r += 1
    return r


def count_sections_by_lattice_points(m: int, k: int) -> int:
    """Anticanonical section count on the twist-m surface by a bare lattice walk.

    Counts pairs (fiber power i, coefficient degree d) one at a time, with
    no closed expressions anywhere, as the second route acceptance demands.
    """
    count = 0
    for i in range(2 * k + 1):
        bound = 2 * k + (i - k) * m
        d = 0
        while d <= bound:
            count += 1
            d += 1
    return count


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    counterexample: str | None = None


# A check yields None for each passing case and the counterexample text for
# a failing one, building that text only when the case fails.
Cases = Iterator[str | None]


def _random_small_config(rng: random.Random, v: int) -> blowup.PointConfiguration:
    points: set[tuple[Fraction, Fraction]] = set()
    while len(points) < v:
        points.add(
            (
                Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
                Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
            )
        )
    return blowup.PointConfiguration(n=2, points=tuple(sorted(points)))


def _run(name: str, cases: Cases) -> CheckResult:
    """Count cases in order and stop at the first counterexample.

    A case that raises RuntimeError (a library check failing) fails with the
    exception's text, so the checks after it still run.  A check that runs
    no case verified nothing, so it fails.
    """
    count = 0
    try:
        for count, counterexample in enumerate(cases, start=1):
            if counterexample is not None:
                return CheckResult(name, False, count, counterexample)
    except RuntimeError as exc:
        return CheckResult(name, False, count + 1, str(exc))
    return CheckResult(name, True, count) if count else CheckResult(name, False, 0, "no case ran")


def run_selfcheck(budget: int = 10, seed: int = 0) -> list[CheckResult]:
    """Run the whole invariant suite at a size controlled by `budget`.

    The default budget 10 drives the standard grid (twists up to 12,
    powers up to 10, point counts up to 12).  Budget 0 runs nothing and
    returns an empty list; callers should surface that as a warning, not
    a pass of substance.

    Every check is a generator of cases (see ``Cases``); a new oracle is
    one more generator in the table below.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget == 0:
        return []
    m_max = budget + 2
    k_max = budget
    v_max = budget + 2
    # Built on first use inside `_run`, so a sampler failure fails only the two jet rows.
    jets = functools.cache(lambda: _jet_corpus(v_max))
    checks = {
        "hirzebruch_formula_vs_enumeration": _check_formula_matches_enumeration(m_max, k_max),
        "twist_one_formula_overcounts": _check_twist_one_boundary(k_max),
        "enumeration_vs_lattice_walk": _check_enumeration_matches_lattice_walk(m_max, k_max),
        "h1_formula_vs_rr_chain": _check_h1_formula_matches_rr_chain(m_max, k_max),
        "noether_exactness": _check_noether_exactness(m_max, v_max),
        "production_rank_vs_naive_elimination": _check_rank_matches_naive_rank(budget, seed),
        "vandermonde_determinant_and_rank": _check_vandermonde(budget, seed),
        "blowup_forced_regime_v_le_4": _check_forced_blowup_regime(budget, seed),
        "jet_rank_production_vs_naive": _check_jet_rank_cross_check(jets),
        "blowup_h1_2K_within_range": _check_blowup_h1_ranges(jets),
        "kodaira_family_jump_exists": _check_kodaira_jump_sweep(m_max, k_max),
        "twists_0_1_2_share_counts": _check_low_twist_coincidence(k_max),
    }
    return [_run(name, cases) for name, cases in checks.items()]


def _check_formula_matches_enumeration(m_max: int, k_max: int) -> Cases:
    for m in range(2, m_max + 1):
        surface = hirzebruch.HirzebruchSurface(m)
        for k in range(1, k_max + 1):
            enum = hirzebruch.dim_enumerated(surface, k)
            evaluated = hirzebruch.dim_formula(surface, k)
            ok = evaluated.in_regime and evaluated.value == enum
            yield None if ok else f"m={m}, k={k}: formula {evaluated} vs enumeration {enum}"


def _check_twist_one_boundary(k_max: int) -> Cases:
    surface = hirzebruch.HirzebruchSurface(1)
    for k in range(1, k_max + 1):
        enum = hirzebruch.dim_enumerated(surface, k)
        evaluated = hirzebruch.dim_formula(surface, k)
        ok = enum == (2 * k + 1) ** 2 and not evaluated.in_regime and evaluated.value > enum
        yield None if ok else f"k={k}: formula {evaluated} vs enumeration {enum}"


def _check_enumeration_matches_lattice_walk(m_max: int, k_max: int) -> Cases:
    for m in range(0, m_max + 1):
        surface = hirzebruch.HirzebruchSurface(m)
        for k in range(0, k_max + 1):
            enum = hirzebruch.dim_enumerated(surface, k)
            walked = count_sections_by_lattice_points(m, k)
            yield None if enum == walked else f"m={m}, k={k}: enumeration {enum} vs walk {walked}"


def _check_h1_formula_matches_rr_chain(m_max: int, k_max: int) -> Cases:
    for m in range(2, m_max + 1):
        surface = hirzebruch.HirzebruchSurface(m)
        for k in range(2, max(k_max, 2) + 1):
            closed = hirzebruch.h1_pluricanonical_formula(surface, k)
            chained = hirzebruch.hirzebruch_row(surface, k - 1).h1_kp1K
            yield None if closed == chained else f"m={m}, k={k}: closed {closed} vs chain {chained}"


def _check_noether_exactness(m_max: int, v_max: int) -> Cases:
    # The constructors raise on violation, so surviving construction is the check.
    constructions = [("m", m, surface_invariants.invariants_hirzebruch) for m in range(m_max + 1)]
    constructions += [("v", v, surface_invariants.invariants_blowup_p2) for v in range(v_max + 1)]
    for label, value, construct in constructions:
        try:
            construct(value)
        except ValueError as exc:
            yield f"{label}={value}: {exc}"
        else:
            yield None


def _check_rank_matches_naive_rank(budget: int, seed: int) -> Cases:
    rng = random.Random(f"selfcheck-rank:{seed}")
    # One case in four is 3x4 with entries of `bits` bits, so 3 * bits exceeds
    # MODULAR_RULE_BITS and rank tries the modular route first; every other
    # one of those is rank deficient, and its planted row dependency is the
    # kernel vector that certifies its rank.
    bits = exact_linalg.MODULAR_RULE_BITS // 3 + 1
    for case in range(4 * budget):
        if case % 4 == 3:
            rows, cols = 3, 4
            grid = [
                [rng.choice((-1, 1)) * rng.randrange(2 ** (bits - 1), 2**bits) for _ in range(cols)]
                for _ in range(rows)
            ]
            plant = case % 8 == 7
        else:
            rows, cols = rng.randint(0, 8), rng.randint(0, 10)
            grid = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            plant = rng.random() < 0.5 and rows >= 2
        if plant:
            # A dependent row, so rank-deficient inputs are exercised too.
            grid[rows - 1] = [2 * x for x in grid[0]]
        matrix = RatMatrix(rows, cols, tuple([x for row in grid for x in row]))  # see RatMatrix.from_rows
        got = exact_linalg.rank(matrix)
        expected = naive_rank(matrix)
        ok = got == expected and exact_linalg.rank(matrix.transpose()) == expected
        yield None if ok else f"{rows}x{cols} matrix: production {got} vs naive {expected}"


def _check_vandermonde(budget: int, seed: int) -> Cases:
    rng = random.Random(f"selfcheck-vandermonde:{seed}")
    for _ in range(4 * budget):
        size = rng.randint(0, 6)
        xs = [rng.randint(-6, 6) for _ in range(size)]
        # The Vandermonde determinant is the product of the pairwise differences.
        det = math.prod(xs[j] - xs[i] for i in range(size) for j in range(i + 1, size))
        got = exact_linalg.rank(RatMatrix.from_rows([[x**j for j in range(size)] for x in xs]))
        if got != len(set(xs)):
            yield f"xs={xs}: rank != distinct count"
        elif (got == size) != (det != 0):
            yield f"xs={xs}: full rank != (det != 0)"
        else:
            yield None


def _check_forced_blowup_regime(budget: int, seed: int) -> Cases:
    rng = random.Random(f"selfcheck-forced:{seed}")
    for _ in range(4 * budget):
        v = rng.randint(1, 4)
        config = _random_small_config(rng, v)
        h0 = blowup.h0_blowup(config, 1)
        yield None if h0 == 10 - v else f"{config}: h0 {h0} != {10 - v}"


JetCorpus = list[tuple[str, blowup.PointConfiguration, surface_invariants.CohomologyRow]]


def _jet_corpus(v_max: int) -> JetCorpus:
    generate = blowup.generate_configuration
    return [
        ("collinear-5", *generate("collinear", 5)),
        (f"collinear-{v_max}", *generate("collinear", v_max)),
        ("conic-8", *generate("on_conic", min(8, v_max))),
        ("generic-5", *generate("generic", 5, seed=1)),
        ("generic-10", *generate("generic", min(10, v_max), seed=2)),
        (f"collinear-{v_max}-k2", *generate("collinear", v_max, k=2)),
        ("conic-6-k2", *generate("on_conic", min(6, v_max), k=2)),
    ]


def _check_jet_rank_cross_check(jets: Callable[[], JetCorpus]) -> Cases:
    for label, config, row in jets():
        got = blowup.monomial_count(2, row.k) - row.h0_minus_kK
        expected = naive_rank(blowup.jet_matrix(2, config.lifts, 3 * row.k, [row.k] * config.v).matrix)
        yield None if got == expected else f"{label}, k={row.k}: production {got} vs naive {expected}"


def _check_blowup_h1_ranges(jets: Callable[[], JetCorpus]) -> Cases:
    for label, config, row in jets():
        if row.k != 1:
            continue
        low, high = blowup.h1_2K_range(config.v)
        ok = low <= row.h1_kp1K <= high
        yield None if ok else f"{label}: h1(2K) = {row.h1_kp1K} outside [{low}, {high}]"


def _check_kodaira_jump_sweep(m_max: int, k_max: int) -> Cases:
    # F_3 and F_1 first differ at k = 2 (26 vs 25); every m >= 4 jumps at k = 1.
    k_top = max(k_max, 2)
    for m in range(3, m_max + 1):
        for ell in range(1, m // 2 + 1):
            rows = family.noninvariance_report_hirzebruch(family.KodairaFamily(m, ell), k_top)
            ok = any(row.jump for row in rows)
            yield None if ok else f"m={m}, ell={ell}: no jump up to k={k_top}"


def _check_low_twist_coincidence(k_max: int) -> Cases:
    surfaces = [hirzebruch.HirzebruchSurface(m) for m in (0, 1, 2)]
    for k in range(1, k_max + 1):
        counts = {hirzebruch.dim_enumerated(s, k) for s in surfaces}
        if counts != {(2 * k + 1) ** 2}:
            yield f"k={k}: counts {sorted(counts)}"
        elif k < k_max:
            yield None
        else:
            # The matching deformation pair must therefore never jump; the
            # last case checks it once every count is known to agree.
            rows = family.noninvariance_report_hirzebruch(family.KodairaFamily(2, 1), k_max)
            yield "twist pair (2, 0) reported a jump" if any(row.jump for row in rows) else None
