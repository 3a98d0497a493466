"""Deformation families at the level of fiber invariants.

Two families exhibit the jump this package exists to compute.  The twisted
ruled surface with twist m deforms to the one with twist m - 2*ell (the
central fiber is special, all other fibers agree), and a plane blow-up
deforms as its points move in configuration space.  In both, the
plurigenera h0((k+1)K) stay 0 on every fiber while h2((k+1)K), equal to
the anticanonical count h0(-kK) by Serre duality, can drop from the
central fiber to the general one; h1 follows through Riemann-Roch.

Fibers are tracked by surface type only; the deformation parameter enters
solely as the central/general dichotomy.  Each report lays the cohomology
rows of two fibers side by side and carries their provenance tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blowup import PointConfiguration, blowup_row, generate_configuration
from .hirzebruch import HirzebruchSurface, hirzebruch_row
from .surface_invariants import PROV_INPUT, CohomologyRow

# Report column name of each cohomology-row field, at general k and at k = 1.
_COLUMNS = {name: name for name in ("h0_minus_kK", "h0_kp1K", "h2_kp1K", "h1_kp1K")}
_K1_COLUMNS = {"h0_minus_kK": "h0_minus_K", "h0_kp1K": "h0_2K", "h2_kp1K": "h2_2K", "h1_kp1K": "h1_2K"}


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
    """One power k of the comparison table between central and general fiber.

    The h2 columns repeat the h0(-kK) columns by Serre duality, and the
    plurigenus columns h0((k+1)K) are identically zero on these rational
    surfaces; both are carried explicitly so the table says so in print.
    ``provenance`` pairs every numeric column with its tag.
    """

    k: int
    h0_minus_kK_central: int
    h0_minus_kK_general: int
    h0_kp1K_central: int
    h0_kp1K_general: int
    h2_kp1K_central: int
    h2_kp1K_general: int
    h1_kp1K_central: int
    h1_kp1K_general: int
    jump: bool
    provenance: tuple[tuple[str, str], ...] = field(repr=False)


@dataclass(frozen=True)
class BlowupFamilyReport:
    """Special-versus-generic comparison for a plane blow-up, at k = 1."""

    v: int
    h0_minus_K_special: int
    h0_minus_K_generic: int
    h0_2K_special: int
    h0_2K_generic: int
    h2_2K_special: int
    h2_2K_generic: int
    h1_2K_special: int
    h1_2K_generic: int
    jump: bool
    provenance: tuple[tuple[str, str], ...] = field(repr=False)


def _side_by_side(
    rows: dict[str, CohomologyRow], columns: dict[str, str]
) -> tuple[dict[str, int], dict[str, str]]:
    """Values and provenance tags of rows on several fibers, keyed ``<column>_<fiber>``."""
    values: dict[str, int] = {}
    tags: dict[str, str] = {}
    for name, column in columns.items():
        for fiber, row in rows.items():
            values[f"{column}_{fiber}"] = getattr(row, name)
            tags[f"{column}_{fiber}"] = row.provenance[name]
    return values, tags


def fiber_surface(family: KodairaFamily, at_zero: bool) -> HirzebruchSurface:
    """The central fiber has twist m; every other fiber has twist m - 2*ell."""
    return HirzebruchSurface(family.m if at_zero else family.m - 2 * family.ell)


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
    central = fiber_surface(family, at_zero=True)
    general = fiber_surface(family, at_zero=False)
    rows = []
    for k in range(1, k_max + 1):
        c = hirzebruch_row(central, k)
        g = hirzebruch_row(general, k)
        if c.h2_kp1K < g.h2_kp1K:
            raise RuntimeError(
                f"semicontinuity violated at k = {k}: "
                f"central {c.h2_kp1K} < general {g.h2_kp1K}"
            )
        values, tags = _side_by_side({"central": c, "general": g}, _COLUMNS)
        rows.append(
            FiberReportRow(
                k=k,
                **values,
                jump=c.h2_kp1K != g.h2_kp1K,
                provenance=(("k", c.provenance["k"]), *tags.items()),
            )
        )
    return rows


def noninvariance_report_blowup(
    special: PointConfiguration, generic_seed: int = 0
) -> BlowupFamilyReport:
    """Compare a special plane configuration against a certified-generic one.

    The generic side uses the same point count, sampled from `generic_seed`
    and certified by exact rank.  The jump flag compares the h2(2K) columns,
    which equal the h0(-K) columns by Serre duality.
    """
    if special.n != 2:
        raise ValueError("blow-up families are implemented for the plane only")
    if special.v < 5:
        raise ValueError("for v <= 4 every configuration gives the same dimensions")
    generic = generate_configuration("generic", special.v, seed=generic_seed)
    s = blowup_row(special, 1)
    g = blowup_row(generic, 1)
    if s.h0_minus_kK < g.h0_minus_kK:
        raise RuntimeError(
            f"special configuration has fewer sections ({s.h0_minus_kK}) "
            f"than generic ({g.h0_minus_kK})"
        )
    values, tags = _side_by_side({"special": s, "generic": g}, _K1_COLUMNS)
    return BlowupFamilyReport(
        v=special.v,
        **values,
        jump=s.h2_kp1K != g.h2_kp1K,
        provenance=(("v", PROV_INPUT), *tags.items()),
    )
