"""Expected values for every benchmark case.

Closed forms are used wherever one exists; the remaining values were
captured from the program at the commit that introduced this benchmark and
are checked the same way.  A case whose printed numbers differ from these
counts as failed; nothing here is ever skipped.

Closed forms, with h0 = h0(-kK):

* generic plane points, v <= 8: 1 + k(k+1)(9-v)/2 (weak del Pezzo surface,
  Riemann-Roch plus Kawamata-Viehweg); v = 9: 1; v >= 10: 0;
* the 3x3 grid {0,1,2}^2 (base locus of a cubic pencil): k + 1;
* v points on a line or on a smooth conic, at k = 1: 10 - min(v, 4) and
  10 - min(v, 7), the dimension of plane cubics restricted to the curve;
* twisted ruled surfaces: the product formula for m >= 2 and (2k+1)^2 for
  m = 0, 1, together with Serre duality and Riemann-Roch for h2 and h1.
"""

from __future__ import annotations

from math import comb

# h0(-kK) for special configurations without a closed form here, keyed by
# (configuration, v, k).  Configurations are listed in workloads.py.
CAPTURED_H0 = {
    ("collinear", 5, 2): 16,
    ("collinear", 5, 3): 31,
    ("collinear", 8, 2): 15,
    ("collinear", 8, 3): 28,
    ("collinear", 12, 2): 15,
    ("collinear", 12, 3): 28,
    ("on_conic", 5, 2): 13,
    ("on_conic", 5, 3): 25,
    ("on_conic", 8, 2): 7,
    ("on_conic", 8, 3): 13,
    ("on_conic", 12, 2): 6,
    ("on_conic", 12, 3): 10,
    ("twisted_cubic", 4, 1): 19,
    ("twisted_cubic", 6, 1): 11,
    ("twisted_cubic", 8, 1): 6,
    ("twisted_cubic", 3, 2): 105,
    ("twisted_cubic", 5, 2): 65,
}

# Cases run by each selfcheck check at the default budget 10; the counts do
# not depend on the seed when every check passes.
CAPTURED_SELFCHECK_CASES = {
    "hirzebruch_formula_vs_enumeration": 110,
    "twist_one_formula_overcounts": 10,
    "enumeration_vs_lattice_walk": 143,
    "h1_formula_vs_rr_chain": 99,
    "noether_exactness": 26,
    "production_rank_vs_naive_elimination": 40,
    "vandermonde_determinant_and_rank": 40,
    "blowup_forced_regime_v_le_4": 40,
    "jet_rank_production_vs_naive": 7,
    "blowup_h1_2K_within_range": 5,
    "kodaira_family_jump_exists": 35,
    "twists_0_1_2_share_counts": 10,
}


def h0_generic_plane(v: int, k: int) -> int:
    if v <= 8:
        return 1 + k * (k + 1) * (9 - v) // 2
    return 1 if v == 9 else 0


def h0_plane_k1(kind: str, v: int) -> int:
    """h0(-K) at k = 1 for the CLI's stock generators."""
    span = {"generic": 10, "collinear": 4, "on_conic": 7}[kind]
    return 10 - min(v, span)


def h0_grid(k: int) -> int:
    return k + 1


def h1_from_rr(k: int, h2: int, chi_top: int) -> int:
    """Riemann-Roch for h1(kK) on a rational surface with h0(kK) = 0."""
    return h2 - (6 * k * k - 6 * k + 1) + k * (k - 1) // 2 * chi_top


def blowup_record(n: int, v: int, k: int, h0: int) -> dict:
    """Results of `pluricoh blowup` for v points in P^n at power k."""
    count = comb((n + 1) * k + n, n)
    expected = {"v": v, "n": n, "monomial_count": count, "jet_rank": count - h0, "h0_minus_kK": h0}
    if n == 2 and k == 1:
        expected["h2_2K"] = h0
        expected["h1_2K"] = h1_from_rr(2, h0, 3 + v)
    return expected


def hirzebruch_h0(m: int, k: int) -> int:
    """h0(-kK) on the twist-m ruled surface."""
    if k == 0:
        return 1
    if m <= 1:
        return (2 * k + 1) ** 2
    q = 2 * k // m
    return (4 * k + (k - q) * m + 2) * (k + q + 1) // 2


def hirzebruch_record(m: int, k: int, basis: bool) -> dict:
    """Results of `pluricoh hirzebruch` (m >= 1)."""
    h0 = hirzebruch_h0(m, k)
    q = 2 * k // m
    h2 = hirzebruch_h0(m, k - 1)
    expected = {
        "dim_enumerated": h0,
        "dim_formula": (4 * k + (k - q) * m + 2) * (k + q + 1) // 2,
        "formula_in_regime": k >= q,
        "h2_kK": h2,
        "h1_kK_rr_chain": h1_from_rr(k, h2, 4),
    }
    if basis:
        expected["section_basis_dimension"] = h0
    return expected


def kodaira_family_record(m: int, ell: int, kmax: int) -> dict:
    rows = []
    for k in range(1, kmax + 1):
        central, general = hirzebruch_h0(m, k), hirzebruch_h0(m - 2 * ell, k)
        rows.append(
            {
                "k": k,
                "h0_minus_kK_central": central,
                "h0_minus_kK_general": general,
                "h0_kp1K_central": 0,
                "h0_kp1K_general": 0,
                "h2_kp1K_central": central,
                "h2_kp1K_general": general,
                "h1_kp1K_central": h1_from_rr(k + 1, central, 4),
                "h1_kp1K_general": h1_from_rr(k + 1, general, 4),
                "jump": central != general,
            }
        )
    return {"rows": rows, "jump_found": any(row["jump"] for row in rows)}


def blowup_family_record(special: str, v: int) -> dict:
    h0_s, h0_g = h0_plane_k1(special, v), h0_plane_k1("generic", v)
    return {
        "v": v,
        "h0_minus_K_special": h0_s,
        "h0_minus_K_generic": h0_g,
        "h0_2K_special": 0,
        "h0_2K_generic": 0,
        "h2_2K_special": h0_s,
        "h2_2K_generic": h0_g,
        "h1_2K_special": h1_from_rr(2, h0_s, 3 + v),
        "h1_2K_generic": h1_from_rr(2, h0_g, 3 + v),
        "jump": h0_s != h0_g,
    }


def selfcheck_record() -> dict:
    rows = [
        {"check": name, "passed": True, "cases": cases, "counterexample": ""}
        for name, cases in CAPTURED_SELFCHECK_CASES.items()
    ]
    return {"rows": rows, "checks_run": len(rows), "all_passed": True}


def achievable_dims_record(v: int) -> dict:
    """Every h0(-K) from generic position up to all points on a line."""
    return {"dims": list(range(h0_plane_k1("generic", v), 7))}
