"""Tests for section counts on twisted ruled surfaces.

The lattice-walk counter from `pluricoh.selfcheck` is the independent
second route; every frozen value below was computed with it (or by direct
substitution into the degree bounds) before being asserted.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pluricoh.hirzebruch import (
    HirzebruchSurface,
    RegimeError,
    dim_enumerated,
    dim_formula,
    h1_pluricanonical_formula,
    section_basis,
)
from pluricoh.selfcheck import count_sections_by_lattice_points
from pluricoh.surface_invariants import h1_from_rr, invariants_hirzebruch


def test_negative_twist_rejected():
    with pytest.raises(ValueError):
        HirzebruchSurface(-1)


def _dimension(basis):
    return sum(bound + 1 for _, bound in basis)


class TestSectionBasis:
    def test_twist_four_drops_low_fiber_powers(self):
        basis = section_basis(HirzebruchSurface(4), 1)
        assert basis == ((1, 2), (2, 6))
        assert _dimension(basis) == 10

    def test_twist_two_keeps_all_fiber_powers(self):
        basis = section_basis(HirzebruchSurface(2), 1)
        assert basis == ((0, 0), (1, 2), (2, 4))
        assert _dimension(basis) == 9

    def test_twist_one(self):
        basis = section_basis(HirzebruchSurface(1), 1)
        assert basis == ((0, 1), (1, 2), (2, 3))
        assert _dimension(basis) == 9

    def test_trivial_power_rejected(self):
        with pytest.raises(ValueError):
            section_basis(HirzebruchSurface(3), 0)

    def test_product_surface_rejected(self):
        with pytest.raises(ValueError):
            section_basis(HirzebruchSurface(0), 1)

    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_dimension_matches_enumeration(self, m, k):
        surface = HirzebruchSurface(m)
        assert _dimension(section_basis(surface, k)) == dim_enumerated(surface, k)


class TestDimEnumerated:
    @pytest.mark.parametrize(
        "m, k, expected",
        [
            (2, 1, 9),
            (0, 1, 9),
            (1, 2, 25),
            (4, 1, 10),
            (4, 2, 28),
            (4, 3, 55),
        ],
    )
    def test_frozen_values(self, m, k, expected):
        assert dim_enumerated(HirzebruchSurface(m), k) == expected

    def test_product_surface_counts_factor_by_factor(self):
        # Independent route: one factor contributes 2k + 1 sections, the
        # product contributes the square.
        k = 1
        per_factor = sum(1 for _ in range(2 * k + 1))
        assert dim_enumerated(HirzebruchSurface(0), k) == per_factor**2 == 9

    @pytest.mark.parametrize("m", [0, 1, 5, 12])
    def test_power_zero_is_trivial_bundle(self, m):
        assert dim_enumerated(HirzebruchSurface(m), 0) == 1

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            dim_enumerated(HirzebruchSurface(2), -1)

    @pytest.mark.parametrize("m", range(0, 13))
    @pytest.mark.parametrize("k", range(0, 11))
    def test_matches_lattice_walk(self, m, k):
        assert dim_enumerated(HirzebruchSurface(m), k) == count_sections_by_lattice_points(m, k)

    @given(st.integers(0, 120), st.integers(0, 60))
    def test_matches_lattice_walk_wider(self, m, k):
        assert dim_enumerated(HirzebruchSurface(m), k) == count_sections_by_lattice_points(m, k)

    @pytest.mark.parametrize("m", range(0, 13))
    def test_nondecreasing_in_power(self, m):
        surface = HirzebruchSurface(m)
        counts = [dim_enumerated(surface, k) for k in range(0, 11)]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_twist_zero_one_coincidence(self, k):
        assert (
            dim_enumerated(HirzebruchSurface(0), k)
            == dim_enumerated(HirzebruchSurface(1), k)
            == (2 * k + 1) ** 2
        )


class TestDimFormula:
    def test_twist_four(self):
        assert dim_formula(HirzebruchSurface(4), 1) == (10, True)

    def test_twist_two_cross_checked(self):
        evaluated = dim_formula(HirzebruchSurface(2), 3)
        assert evaluated.value == 49
        assert evaluated.in_regime
        assert evaluated.value == dim_enumerated(HirzebruchSurface(2), 3)

    def test_twist_one_overcounts(self):
        evaluated = dim_formula(HirzebruchSurface(1), 1)
        assert evaluated == (10, False)
        assert dim_enumerated(HirzebruchSurface(1), 1) == 9

    def test_product_surface_rejected(self):
        with pytest.raises(ValueError):
            dim_formula(HirzebruchSurface(0), 2)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            dim_formula(HirzebruchSurface(3), 0)

    @pytest.mark.parametrize("m", range(2, 13))
    @pytest.mark.parametrize("k", range(1, 11))
    def test_in_regime_matches_enumeration(self, m, k):
        surface = HirzebruchSurface(m)
        evaluated = dim_formula(surface, k)
        assert evaluated.in_regime
        assert evaluated.value == dim_enumerated(surface, k)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_twist_one_overcount_is_strict(self, k):
        surface = HirzebruchSurface(1)
        evaluated = dim_formula(surface, k)
        assert not evaluated.in_regime
        assert evaluated.value > dim_enumerated(surface, k)


class TestH1Formula:
    def test_twist_four_power_two(self):
        assert h1_pluricanonical_formula(HirzebruchSurface(4), 2) == 1

    def test_twist_two_power_two(self):
        assert h1_pluricanonical_formula(HirzebruchSurface(2), 2) == 0

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 12])
    def test_canonical_itself_has_no_h1(self, m):
        assert h1_pluricanonical_formula(HirzebruchSurface(m), 1) == 0

    @pytest.mark.parametrize("m, k", [(1, 2), (1, 5), (0, 2)])
    def test_out_of_regime_rejected(self, m, k):
        with pytest.raises(RegimeError):
            h1_pluricanonical_formula(HirzebruchSurface(m), k)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            h1_pluricanonical_formula(HirzebruchSurface(3), 0)

    @pytest.mark.parametrize("m", range(2, 13))
    @pytest.mark.parametrize("k", range(2, 11))
    def test_matches_riemann_roch_chain(self, m, k):
        surface = HirzebruchSurface(m)
        # Serre duality: h2(kK) = h0(-(k-1)K).
        h2 = dim_enumerated(surface, k - 1)
        chained = h1_from_rr(k, 0, h2, invariants_hirzebruch(m))
        assert h1_pluricanonical_formula(surface, k) == chained
