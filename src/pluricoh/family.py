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
provenance tags, and building it asserts upper semicontinuity.
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

    Upper semicontinuity: the central fiber can only gain sections, so
    building a row with central h2 below the general one raises RuntimeError.
    """

    central: CohomologyRow
    general: CohomologyRow

    def __post_init__(self) -> None:
        if self.central.h2_kp1K < self.general.h2_kp1K:
            raise RuntimeError(
                f"semicontinuity violated at k = {self.k}: "
                f"central {self.central.h2_kp1K} < general {self.general.h2_kp1K}"
            )

    @property
    def k(self) -> int:
        return self.central.k

    @property
    def jump(self) -> bool:
        return self.central.h2_kp1K != self.general.h2_kp1K


def noninvariance_report_hirzebruch(
    family: KodairaFamily, k_max: int
) -> list[FiberReportRow]:
    """Tabulate h0(-kK), h2((k+1)K) and h1((k+1)K) on both fibers for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    central = HirzebruchSurface(family.m)
    general = HirzebruchSurface(family.m - 2 * family.ell)
    return [
        FiberReportRow(hirzebruch_row(central, k), hirzebruch_row(general, k))
        for k in range(1, k_max + 1)
    ]


def noninvariance_report_blowup(
    special: tuple[PointConfiguration, CohomologyRow], generic_seed: int = 0
) -> FiberReportRow:
    """Compare a special plane configuration, the central fiber, against a generic one.

    `special` is a configuration with its row, as ``generate_configuration``
    returns them.  The general fiber blows up the same number of points,
    sampled from `generic_seed` and certified generic by exact rank at the
    special row's power.  The jump flag compares the h2 columns, which equal
    the h0(-kK) columns by Serre duality; a special configuration with fewer
    sections than the generic one raises RuntimeError as the row is built.
    """
    config, s = special
    if config.v < 5:
        raise ValueError("for v <= 4 every configuration gives the same dimensions")
    _, g = generate_configuration("generic", config.v, seed=generic_seed, k=s.k)
    return FiberReportRow(s, g)
