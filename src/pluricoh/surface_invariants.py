"""Numerical invariants of the two surface families and the identity chain
that turns section counts into first and second cohomology dimensions.

Every surface handled by this package is rational or ruled, so chi(O) = 1
throughout, positive canonical powers have no sections, and the
Riemann-Roch identity

    h1(kK) = h0(kK) + h2(kK) - (6k^2 - 6k + 1) chi(O) + k(k-1)/2 chi_top

converts one anticanonical section count (entering through Serre duality)
into the whole cohomology row.  ``cohomology_row`` is the one place that
chain is written down; every report is a projection of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

# Provenance tags: the computation path behind each reported number.
PROV_INPUT = "input"
PROV_ENUMERATION = "enumeration"
PROV_FORMULA = "closed_formula"
PROV_RANK = "rank"
PROV_SERRE = "serre"
PROV_AXIOM = "plurigenus_axiom"
PROV_RR_CHAIN = "rr_chain"


@dataclass(frozen=True)
class SurfaceInvariants:
    """Canonical self-intersection, topological and holomorphic Euler numbers."""

    K2: int
    chi_top: int
    chi_O: int

    def __post_init__(self) -> None:
        # Noether's formula chi(O) = (K^2 + chi_top) / 12 must hold exactly.
        if self.K2 + self.chi_top != 12 * self.chi_O:
            raise ValueError(
                "Noether's formula fails: "
                f"K2 + chi_top = {self.K2 + self.chi_top}, expected {12 * self.chi_O}"
            )


def invariants_hirzebruch(m: int) -> SurfaceInvariants:
    """Invariants of a P^1-bundle over P^1; they do not depend on the twist."""
    if m < 0:
        raise ValueError("twist m must be nonnegative")
    return SurfaceInvariants(K2=8, chi_top=4, chi_O=1)


def invariants_blowup_p2(v: int) -> SurfaceInvariants:
    """Invariants of the plane blown up at v points.

    Each blown-up point subtracts one from K^2 and adds one to chi_top, so
    Noether's formula stays exact for every v (including v > 9, where K^2
    goes negative).
    """
    if v < 0:
        raise ValueError("point count v must be nonnegative")
    return SurfaceInvariants(K2=9 - v, chi_top=3 + v, chi_O=1)


def h1_from_rr(k: int, h0_kK: int, h2_kK: int, inv: SurfaceInvariants) -> int:
    """First cohomology of kK from the Riemann-Roch identity.

    A negative result can only come from h0/h2 values that do not belong to
    the claimed surface, so it is rejected rather than clamped, with
    RuntimeError: a library check that failed, not a bad argument.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if h0_kK < 0 or h2_kK < 0:
        raise ValueError("cohomology dimensions must be nonnegative")
    # k*(k-1) is even, so the integer division is exact.
    value = (
        h0_kK
        + h2_kK
        - (6 * k * k - 6 * k + 1) * inv.chi_O
        + (k * (k - 1) // 2) * inv.chi_top
    )
    if value < 0:
        raise RuntimeError(
            f"h1({k}K) evaluated to {value} < 0: "
            "h0/h2 inputs are inconsistent with the surface invariants"
        )
    return value


@dataclass(frozen=True)
class CohomologyRow:
    """h0(-kK) and the cohomology of (k+1)K that it determines.

    Serre duality gives h2((k+1)K) = h0(-kK), the plurigenus h0((k+1)K) is
    zero on these rational surfaces, and Riemann-Roch gives h1((k+1)K).
    ``h0_route`` names how h0(-kK) itself was obtained.
    """

    k: int
    h0_minus_kK: int
    h0_kp1K: int
    h2_kp1K: int
    h1_kp1K: int
    h0_route: str

    @property
    def provenance(self) -> dict[str, str]:
        """Provenance tag of every number in the row, keyed by field name."""
        return {
            "k": PROV_INPUT,
            "h0_minus_kK": self.h0_route,
            "h0_kp1K": PROV_AXIOM,
            "h2_kp1K": PROV_SERRE,
            "h1_kp1K": PROV_RR_CHAIN,
        }


def cohomology_row(k: int, h0: int, inv: SurfaceInvariants, h0_route: str) -> CohomologyRow:
    """The whole row of power k from h0 = h0(-kK) and the surface invariants."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return CohomologyRow(
        k=k,
        h0_minus_kK=h0,
        h0_kp1K=0,
        h2_kp1K=h0,
        h1_kp1K=h1_from_rr(k + 1, 0, h0, inv),
        h0_route=h0_route,
    )
