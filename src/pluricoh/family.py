"""Deformation families at the level of fiber invariants.

Two families exhibit the jump this package exists to compute.  The twisted
ruled surface with twist m deforms to the one with twist m - 2*ell (the
central fiber is special, all other fibers agree), and a plane blow-up
deforms as its points move in configuration space.  In both, the
plurigenera h0((k+1)K) stay 0 on every fiber while h2((k+1)K), equal to
the anticanonical count h0(-kK) by Serre duality, can drop from the
central fiber to the general one; h1 follows through Riemann-Roch.

Fibers are tracked by surface type only; the deformation parameter enters
solely as the central/general dichotomy.  A report row is the pair of
cohomology rows of the two fibers at one power, each row carrying its own
provenance tags.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import PointConfiguration, generate_configuration
from .hirzebruch import HirzebruchSurface, hirzebruch_row
from .surface_invariants import CohomologyRow


@dataclass(frozen=True)
class KodairaFamily:
    """Deformation of the twist-(m - 2*ell) ruled surface with special fiber of twist m."""

    m: int
    ell: int

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError("ell must be positive")
        if 2 * self.ell > self.m:
            raise ValueError("family requires 2 * ell <= m")


@dataclass(frozen=True)
class FiberReportRow:
    """The cohomology rows of the central and the general fiber at one power k.

    The h2 columns repeat the h0(-kK) columns by Serre duality, and the
    plurigenus columns h0((k+1)K) are identically zero on these rational
    surfaces; both rows carry them explicitly so a report says so in print.
    """

    central: CohomologyRow
    general: CohomologyRow

    @property
    def k(self) -> int:
        return self.central.k

    @property
    def jump(self) -> bool:
        return self.central.h2_kp1K != self.general.h2_kp1K


def noninvariance_report_hirzebruch(
    family: KodairaFamily, k_max: int
) -> list[FiberReportRow]:
    """Tabulate h0(-kK), h2((k+1)K) and h1((k+1)K) on both fibers for k = 1..k_max.

    Also enforces upper semicontinuity row by row: the central fiber can
    only gain sections, so central h2 below the general value would mean a
    computation bug and raises.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    central = HirzebruchSurface(family.m)
    general = HirzebruchSurface(family.m - 2 * family.ell)
    rows = []
    for k in range(1, k_max + 1):
        c = hirzebruch_row(central, k)
        g = hirzebruch_row(general, k)
        if c.h2_kp1K < g.h2_kp1K:
            raise RuntimeError(
                f"semicontinuity violated at k = {k}: "
                f"central {c.h2_kp1K} < general {g.h2_kp1K}"
            )
        rows.append(FiberReportRow(c, g))
    return rows


def noninvariance_report_blowup(
    special: tuple[PointConfiguration, CohomologyRow], generic_seed: int = 0
) -> FiberReportRow:
    """Compare a special plane configuration, the central fiber, against a generic one.

    `special` is a configuration with its row, as ``generate_configuration``
    returns them.  The general fiber blows up the same number of points,
    sampled from `generic_seed` and certified generic by exact rank at the
    special row's power.  The jump flag compares the h2 columns, which equal
    the h0(-kK) columns by Serre duality.
    """
    config, s = special
    if config.v < 5:
        raise ValueError("for v <= 4 every configuration gives the same dimensions")
    _, g = generate_configuration("generic", config.v, seed=generic_seed, k=s.k)
    if s.h0_minus_kK < g.h0_minus_kK:
        raise RuntimeError(
            f"special configuration has fewer sections ({s.h0_minus_kK}) "
            f"than generic ({g.h0_minus_kK})"
        )
    return FiberReportRow(s, g)
