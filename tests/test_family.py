"""Tests for the deformation-family reports."""

import pytest

from pluricoh.family import (
    FiberReportRow,
    KodairaFamily,
    noninvariance_report_blowup,
    noninvariance_report_hirzebruch,
)
from pluricoh.blowup import PointConfiguration, blowup_row, generate_configuration
from pluricoh.hirzebruch import HirzebruchSurface, dim_enumerated, hirzebruch_row


class TestKodairaFamily:
    def test_valid_family(self):
        rows = noninvariance_report_hirzebruch(KodairaFamily(m=4, ell=2), 1)
        assert rows[0].general == hirzebruch_row(HirzebruchSurface(0), 1)

    def test_twist_drop_too_large(self):
        with pytest.raises(ValueError):
            KodairaFamily(m=3, ell=2)

    def test_ell_must_be_positive(self):
        with pytest.raises(ValueError):
            KodairaFamily(m=4, ell=0)

    @pytest.mark.parametrize(
        "m, ell, central, general",
        [(4, 1, 4, 2), (5, 2, 5, 1), (7, 3, 7, 1), (12, 1, 12, 10), (2, 1, 2, 0)],
    )
    def test_fiber_twists(self, m, ell, central, general):
        # The central fiber has twist m; every other fiber has twist m - 2*ell.
        rows = noninvariance_report_hirzebruch(KodairaFamily(m, ell), 3)
        for row in rows:
            assert row.central == hirzebruch_row(HirzebruchSurface(central), row.k)
            assert row.general == hirzebruch_row(HirzebruchSurface(general), row.k)


class TestHirzebruchReport:
    def test_headline_family(self):
        rows = noninvariance_report_hirzebruch(KodairaFamily(4, 1), 3)
        assert [
            (r.k, r.central.h2_kp1K, r.general.h2_kp1K, r.jump) for r in rows
        ] == [(1, 10, 9, True), (2, 28, 25, True), (3, 55, 49, True)]
        assert [(r.central.h1_kp1K, r.general.h1_kp1K) for r in rows] == [
            (1, 0),
            (3, 0),
            (6, 0),
        ]

    def test_deformation_equivalent_pair_never_jumps(self):
        rows = noninvariance_report_hirzebruch(KodairaFamily(2, 1), 10)
        assert all(not r.jump for r in rows)
        assert all(r.central == r.general for r in rows)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_every_larger_family_jumps_somewhere(self, m):
        for ell in range(1, m // 2 + 1):
            rows = noninvariance_report_hirzebruch(KodairaFamily(m, ell), 10)
            assert any(r.jump for r in rows), (m, ell)

    @pytest.mark.parametrize("m, ell", [(4, 1), (5, 2), (7, 3), (12, 1)])
    def test_row_structure(self, m, ell):
        family = KodairaFamily(m, ell)
        rows = noninvariance_report_hirzebruch(family, 6)
        central = HirzebruchSurface(m)
        general = HirzebruchSurface(m - 2 * ell)
        for row in rows:
            assert row.central.k == row.general.k == row.k
            # Serre column identity and the constant plurigenus columns.
            assert row.central.h2_kp1K == row.central.h0_minus_kK
            assert row.general.h2_kp1K == row.general.h0_minus_kK
            assert row.central.h0_kp1K == row.general.h0_kp1K == 0
            # Upper semicontinuity: the special fiber only gains sections.
            assert row.central.h2_kp1K >= row.general.h2_kp1K
            assert row.central.h0_minus_kK == dim_enumerated(central, row.k)
            assert row.general.h0_minus_kK == dim_enumerated(general, row.k)
            assert row.jump == (row.central.h2_kp1K != row.general.h2_kp1K)

    def test_kmax_must_be_positive(self):
        with pytest.raises(ValueError):
            noninvariance_report_hirzebruch(KodairaFamily(4, 1), 0)


class TestBlowupReport:
    def test_five_collinear_jumps(self):
        special = generate_configuration("collinear", 5)
        report = noninvariance_report_blowup(special)
        assert report.central == special[1]
        s, g = report.central, report.general
        assert report.k == 1
        assert (s.h0_minus_kK, g.h0_minus_kK) == (6, 5)
        assert (s.h2_kp1K, g.h2_kp1K) == (6, 5)
        assert (s.h1_kp1K, g.h1_kp1K) == (1, 0)
        assert s.h0_kp1K == g.h0_kp1K == 0
        assert report.jump

    def test_six_collinear_jumps_by_two(self):
        report = noninvariance_report_blowup(generate_configuration("collinear", 6))
        assert (report.central.h2_kp1K, report.general.h2_kp1K) == (6, 4)
        assert (report.central.h1_kp1K, report.general.h1_kp1K) == (2, 0)
        assert report.jump

    def test_generic_side_follows_the_special_power(self):
        report = noninvariance_report_blowup(generate_configuration("collinear", 5, k=2))
        assert report.k == report.general.k == 2
        # Five general points: 1 + k(k+1)(9-v)/2 = 13 sections at k = 2.
        assert (report.central.h0_minus_kK, report.general.h0_minus_kK) == (16, 13)
        assert report.jump

    def test_generic_against_generic_does_not_jump(self):
        special = generate_configuration("generic", 5, seed=11)
        report = noninvariance_report_blowup(special, generic_seed=12)
        assert report.central.h0_minus_kK == report.general.h0_minus_kK == 5
        assert not report.jump

    def test_forced_regime_rejected(self):
        with pytest.raises(ValueError):
            noninvariance_report_blowup(generate_configuration("collinear", 4))

    def test_plane_only(self):
        config = PointConfiguration.from_coordinates(
            [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 1, 1), (2, 2, 2)]
        )
        with pytest.raises(ValueError, match="plane only"):
            noninvariance_report_blowup((config, blowup_row(config, 1)))


class TestSemicontinuity:
    """Building a report row refuses a central fiber with fewer sections."""

    def test_swapped_kodaira_fibers_are_refused(self):
        twist_two, twist_four = (hirzebruch_row(HirzebruchSurface(m), 1) for m in (2, 4))
        with pytest.raises(RuntimeError, match=r"^semicontinuity violated at k = 1: central 9 < general 10$"):
            FiberReportRow(twist_two, twist_four)

    def test_swapped_blowup_fibers_are_refused(self):
        _, collinear = generate_configuration("collinear", 5, k=2)
        _, generic = generate_configuration("generic", 5, k=2)
        with pytest.raises(RuntimeError, match=r"^semicontinuity violated at k = 2: central 13 < general 16$"):
            FiberReportRow(generic, collinear)
