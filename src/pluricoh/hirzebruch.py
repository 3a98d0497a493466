"""Anticanonical section counts on Hirzebruch surfaces.

A ruled surface F_m (the P^1-bundle over P^1 with twist m) carries, for
each power k of the anticanonical bundle, a space of sections described on
one chart by coefficients a_i of the fiber-coordinate powers i = 0..2k.
Matching the two charts forces each a_i to be a polynomial of degree at
most 2k + (i - k) m, so the dimension is the count of the surviving
coefficient monomials.

Three routes to that number live here:

* ``dim_enumerated`` sums the degree bounds as an arithmetic series, in
  constant time, and is ground truth.
* ``dim_formula`` evaluates the closed product form
  (4k + (k - floor(2k/m)) m + 2)(k + floor(2k/m) + 1) / 2 verbatim and
  reports whether the evaluation sits inside its validity regime
  (``k - floor(2k/m) >= 0``); outside it, which happens exactly at m = 1,
  the product counts phantom negative indices and overshoots.
* ``h1_pluricanonical_formula`` gives h1(kK) in closed form for k >= 2,
  valid in the mirrored regime for index k - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .surface_invariants import PROV_ENUMERATION, CohomologyRow, cohomology_row
from .surface_invariants import invariants_hirzebruch


class RegimeError(ValueError):
    """A closed formula was asked for outside its validity regime."""


@dataclass(frozen=True)
class HirzebruchSurface:
    """The P^1-bundle over P^1 twisted by O(m); m = 0 is the product surface."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("twist m must be nonnegative")


class FormulaEvaluation(NamedTuple):
    value: int
    in_regime: bool


def section_basis(surface: HirzebruchSurface, k: int) -> tuple[tuple[int, int], ...]:
    """The (fiber power, coefficient degree bound) pairs with bound >= 0.

    One pair per fiber-coordinate power i whose coefficient a_i survives:
    i and the degree bound of a_i, a polynomial in the base coordinate.  The
    second-chart coefficient is determined by the first, so the pairs
    describe a basis of dimension sum(bound + 1) over the pairs.

    Requires m >= 1 (the m = 0 product surface is counted by
    ``dim_enumerated`` only) and k >= 1 (the k = 0 bundle is trivial, with
    the constants as its one section, so no basis description is emitted).
    """
    if k < 1:
        raise ValueError("k must be positive; the k = 0 bundle is trivial (dimension 1)")
    if surface.m < 1:
        raise ValueError("basis description requires m >= 1; use dim_enumerated for m = 0")
    terms = []
    for i in range(2 * k + 1):
        bound = 2 * k + (i - k) * surface.m
        if bound >= 0:
            terms.append((i, bound))
    return tuple(terms)


def dim_enumerated(surface: HirzebruchSurface, k: int) -> int:
    """dim H^0 of the k-th anticanonical power: the sum of the degree bounds.

    Sums max(0, 2k + (i - k) m + 1) over fiber powers i = 0..2k.  The
    positive terms, i >= k - floor(2k/m), form an arithmetic series summed in
    closed form, so the cost does not grow with k.  The series also covers
    m = 0 (every term 2k + 1) and the trivial bundle k = 0 (dimension 1).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = surface.m
    first = max(0, k - 2 * k // m) if m else 0
    count = 2 * k + 1 - first
    return count * ((2 * k + (first - k) * m + 1) + (2 * k + k * m + 1)) // 2


def hirzebruch_row(surface: HirzebruchSurface, k: int) -> CohomologyRow:
    """The cohomology row of power k, from one enumeration of h0(-kK)."""
    inv = invariants_hirzebruch(surface.m)
    return cohomology_row(k, dim_enumerated(surface, k), inv, PROV_ENUMERATION)


def dim_formula(surface: HirzebruchSurface, k: int) -> FormulaEvaluation:
    """Evaluate the closed product form of the anticanonical section count.

    Returns the verbatim value together with an ``in_regime`` flag that is
    true iff k - floor(2k/m) >= 0, i.e. iff every index the product sums
    over is a legal fiber power.  Out of regime (exactly m = 1 for k >= 1)
    the value strictly overcounts and ``dim_enumerated`` is ground truth;
    the discrepancy is surfaced as data, never silently corrected.
    """
    m = surface.m
    if m == 0:
        raise ValueError("closed formula undefined at m = 0 (it divides by m)")
    if k < 1:
        raise ValueError("k must be positive")
    q = (2 * k) // m
    product = (4 * k + (k - q) * m + 2) * (k + q + 1)
    assert product % 2 == 0
    return FormulaEvaluation(value=product // 2, in_regime=k - q >= 0)


def h1_pluricanonical_formula(surface: HirzebruchSurface, k: int) -> int:
    """h1(kK) in closed form.

    k = 1 is the structure sheaf case: h1(K) equals the irregularity, which
    vanishes on these rational surfaces, so 0 is returned directly.  For
    k >= 2 the formula is valid exactly when (k-1) - floor(2(k-1)/m) >= 0;
    outside that regime (m = 0 or m = 1) a RegimeError asks the caller to
    chain Riemann-Roch through ``dim_enumerated`` instead.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return 0
    m = surface.m
    if m == 0:
        raise RegimeError(
            "closed h1 form undefined at m = 0; "
            "chain Riemann-Roch through dim_enumerated instead"
        )
    q = (2 * (k - 1)) // m
    if (k - 1) - q < 0:
        raise RegimeError(
            f"closed h1 form invalid at m = {m}, k = {k}; "
            "chain Riemann-Roch through dim_enumerated instead"
        )
    leading = (4 * k - 2 + (k - 1) * m - q * m) * (k + q)
    assert leading % 2 == 0
    return leading // 2 - 4 * k * k + 4 * k - 1
