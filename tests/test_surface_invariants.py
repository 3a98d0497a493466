"""Tests for the invariant triples and the Riemann-Roch identity chain."""

import pytest

from pluricoh.surface_invariants import (
    PROV_ENUMERATION,
    SurfaceInvariants,
    cohomology_row,
    h1_from_rr,
    invariants_blowup_p2,
    invariants_hirzebruch,
)


class TestConstructors:
    def test_noether_violation_rejected(self):
        with pytest.raises(ValueError):
            SurfaceInvariants(K2=1, chi_top=1, chi_O=1)

    @pytest.mark.parametrize("m", [0, 4, 12])
    def test_ruled_surface_values(self, m):
        inv = invariants_hirzebruch(m)
        assert (inv.K2, inv.chi_top, inv.chi_O) == (8, 4, 1)

    @pytest.mark.parametrize(
        "v, expected",
        [(0, (9, 3, 1)), (5, (4, 8, 1)), (12, (-3, 15, 1))],
    )
    def test_blowup_values(self, v, expected):
        inv = invariants_blowup_p2(v)
        assert (inv.K2, inv.chi_top, inv.chi_O) == expected

    @pytest.mark.parametrize("m", range(0, 13))
    def test_noether_exact_for_ruled(self, m):
        inv = invariants_hirzebruch(m)
        assert inv.K2 + inv.chi_top == 12 * inv.chi_O

    @pytest.mark.parametrize("v", range(0, 13))
    def test_noether_exact_for_blowups(self, v):
        inv = invariants_blowup_p2(v)
        assert inv.K2 + inv.chi_top == 12 * inv.chi_O

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            invariants_hirzebruch(-1)
        with pytest.raises(ValueError):
            invariants_blowup_p2(-3)


class TestH1FromRR:
    def test_ruled_surface_second_power(self):
        assert h1_from_rr(2, 0, 10, invariants_hirzebruch(4)) == 1

    def test_canonical_power_one_vanishes(self):
        for inv in (invariants_hirzebruch(7), invariants_blowup_p2(3)):
            assert h1_from_rr(1, 0, 1, inv) == 0

    def test_blowup_five_points(self):
        assert h1_from_rr(2, 0, 6, invariants_blowup_p2(5)) == 1

    def test_negative_result_rejected(self):
        # h2 = 0 cannot happen for 2K on a ruled surface; the chain says so.
        with pytest.raises(RuntimeError, match="evaluated to -9 < 0"):
            h1_from_rr(2, 0, 0, invariants_hirzebruch(4))

    def test_invalid_arguments_rejected(self):
        inv = invariants_hirzebruch(2)
        with pytest.raises(ValueError):
            h1_from_rr(0, 0, 1, inv)
        with pytest.raises(ValueError):
            h1_from_rr(2, -1, 0, inv)
        with pytest.raises(ValueError):
            h1_from_rr(2, 0, -1, inv)


class TestCohomologyRow:
    def test_chain_from_one_section_count(self):
        row = cohomology_row(1, 10, invariants_hirzebruch(4), PROV_ENUMERATION)
        assert (row.k, row.h0_minus_kK, row.h0_kp1K, row.h2_kp1K, row.h1_kp1K) == (1, 10, 0, 10, 1)

    def test_power_zero_is_the_canonical_bundle(self):
        # h0(O) = 1 gives h2(K) = 1 and h1(K) = 0 on a rational surface.
        row = cohomology_row(0, 1, invariants_blowup_p2(7), "rank")
        assert (row.h2_kp1K, row.h1_kp1K) == (1, 0)

    def test_provenance_tags(self):
        row = cohomology_row(2, 25, invariants_blowup_p2(1), "rank")
        assert row.provenance == {
            "k": "input",
            "h0_minus_kK": "rank",
            "h0_kp1K": "plurigenus_axiom",
            "h2_kp1K": "serre",
            "h1_kp1K": "rr_chain",
        }

    def test_invalid_arguments_rejected(self):
        inv = invariants_hirzebruch(2)
        with pytest.raises(ValueError):
            cohomology_row(-1, 1, inv, PROV_ENUMERATION)
        with pytest.raises(ValueError):
            cohomology_row(1, -1, inv, PROV_ENUMERATION)
