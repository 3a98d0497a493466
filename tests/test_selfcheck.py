"""Tests for the oracle implementations and the runtime check suite,
including deliberate fault injection to prove the suite can catch a
corrupted formula."""

import dataclasses

import pytest

import pluricoh.hirzebruch
import pluricoh.surface_invariants
from pluricoh import exact_linalg
from pluricoh.cli import main
from pluricoh.exact_linalg import RatMatrix
from pluricoh.hirzebruch import FormulaEvaluation
from pluricoh.selfcheck import (
    CheckResult,
    _run,
    count_sections_by_lattice_points,
    naive_det,
    naive_rank,
    run_selfcheck,
)


# Integer entries with determinant -1: float elimination would call it singular.
NEAR_SINGULAR_INT = RatMatrix(2, 2, (2**60, 2**60 + 1, 2**60 + 1, 2**60 + 2))


class TestOracles:
    def test_naive_rank_on_small_matrices(self):
        assert naive_rank(RatMatrix(0, 4, ())) == 0
        assert naive_rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert naive_rank(RatMatrix.from_rows([[0, 1], [1, 0]])) == 2
        assert naive_rank(NEAR_SINGULAR_INT) == 2

    def test_naive_det(self):
        assert naive_det(RatMatrix(0, 0, ())) == 1
        assert naive_det(RatMatrix.from_rows([[-5]])) == -5
        assert naive_det(RatMatrix.from_rows([[1, 2], [3, 4]])) == -2
        # The Vandermonde matrix of 0, 1, 2: the product of the differences is 1 * 2 * 1.
        assert naive_det(RatMatrix.from_rows([[1, 0, 0], [1, 1, 1], [1, 2, 4]])) == 2
        with pytest.raises(ValueError):
            naive_det(RatMatrix.from_rows([[1, 2]]))

    def test_naive_nullspace_dimension(self):
        # cols - naive_rank: the free columns after naive elimination.
        assert 2 - naive_rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert 3 - naive_rank(RatMatrix(0, 3, ())) == 3
        assert 2 - naive_rank(NEAR_SINGULAR_INT) == 0

    def test_lattice_walk_base_cases(self):
        assert count_sections_by_lattice_points(5, 0) == 1
        assert count_sections_by_lattice_points(0, 1) == 9
        assert count_sections_by_lattice_points(2, 1) == 9


class TestRunSelfcheck:
    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_small_budget_passes(self, budget):
        results = run_selfcheck(budget=budget)
        assert results
        assert all(r.passed for r in results)
        assert all(r.cases > 0 for r in results)

    def test_a_check_without_cases_fails(self):
        assert _run("empty", iter(())) == CheckResult("empty", False, 0, "no case ran")

    def test_default_budget_case_counts(self):
        # The same pairs are pinned by the benchmark's golden selfcheck record.
        assert [(r.name, r.cases) for r in run_selfcheck(10)] == [
            ("hirzebruch_formula_vs_enumeration", 110),
            ("twist_one_formula_overcounts", 10),
            ("enumeration_vs_lattice_walk", 143),
            ("h1_formula_vs_rr_chain", 99),
            ("noether_exactness", 26),
            ("production_rank_vs_naive_elimination", 40),
            ("vandermonde_determinant_and_rank", 40),
            ("blowup_forced_regime_v_le_4", 40),
            ("jet_rank_production_vs_naive", 7),
            ("blowup_h1_2K_within_range", 5),
            ("kodaira_family_jump_exists", 35),
            ("twists_0_1_2_share_counts", 10),
        ]

    def test_rank_check_takes_both_modular_outcomes(self, monkeypatch):
        # At budget 10 the rank check's large matrices all take the modular
        # route: some have full rank mod p, and the planted rank-deficient
        # ones are certified by their kernel with no Bareiss call.
        log = []
        for name in ("_eliminate_mod_p", "_kernel_certificate", "_bareiss_rank"):
            def spy(*args, _original=getattr(exact_linalg, name), _name=name):
                log.append((_name, _original(*args)))
                return log[-1][1]

            monkeypatch.setattr(exact_linalg, name, spy)
        original_rank = exact_linalg.rank
        outcomes = []

        def recording_rank(matrix):
            log.clear()
            result = original_rank(matrix)
            if log and log[0][0] == "_eliminate_mod_p":
                full = len(log[0][1].columns) == min(matrix.rows, matrix.cols)
                certified = any(name == "_kernel_certificate" and out is not None for name, out in log)
                route = "full" if full else "certified" if certified else "fallback"
                outcomes.append((route, sum(name == "_bareiss_rank" for name, _ in log)))
            return result

        monkeypatch.setattr(exact_linalg, "rank", recording_rank)
        results = {r.name: r for r in run_selfcheck(10)}
        assert results["production_rank_vs_naive_elimination"].passed
        assert set(outcomes) == {("full", 0), ("certified", 0)}
    def test_budget_zero_is_empty(self):
        assert run_selfcheck(budget=0) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            run_selfcheck(budget=-1)

    def test_detects_a_corrupted_formula(self, monkeypatch):
        # Fault injection: poison the closed formula at one grid point and
        # require the sweep to fail there with a usable counterexample.
        original = pluricoh.hirzebruch.dim_formula

        def corrupted(surface, k):
            value, in_regime = original(surface, k)
            if surface.m == 5 and k == 3:
                return FormulaEvaluation(value + 1, in_regime)
            return FormulaEvaluation(value, in_regime)

        monkeypatch.setattr(pluricoh.hirzebruch, "dim_formula", corrupted)
        results = run_selfcheck(budget=10)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["hirzebruch_formula_vs_enumeration"]
        assert "m=5, k=3" in failed[0].counterexample
        # The sweep stops at its first counterexample: m = 2..4 give 30
        # cases, then k = 1..3 at m = 5.
        assert failed[0].cases == 33

    def test_noether_violation_is_a_failed_row(self, monkeypatch):
        # A constructor that breaks Noether's formula must fail the
        # noether_exactness row, not abort the whole suite.
        original = pluricoh.surface_invariants.invariants_blowup_p2

        def corrupted(v):
            inv = original(v)
            return dataclasses.replace(inv, K2=inv.K2 + 1) if v == 3 else inv

        monkeypatch.setattr(pluricoh.surface_invariants, "invariants_blowup_p2", corrupted)
        results = run_selfcheck(budget=10)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["noether_exactness"]
        # Twists m = 0..12 pass, then v = 0..3.
        assert failed[0].cases == 17
        assert failed[0].counterexample.startswith("v=3: Noether's formula fails")
        assert main(["selfcheck", "--budget", "1"]) == 1

    def test_detects_a_rank_that_ignores_repeated_rows(self, monkeypatch):
        # Fault injection: a rank that always reports min(rows, cols) must
        # fail the Vandermonde row at its first repeated value.
        monkeypatch.setattr(exact_linalg, "rank", lambda matrix: min(matrix.rows, matrix.cols))
        results = {r.name: r for r in run_selfcheck(budget=10)}
        vandermonde = results["vandermonde_determinant_and_rank"]
        assert not vandermonde.passed
        assert vandermonde.counterexample.endswith("rank != distinct count")

    def test_detects_a_corrupted_enumeration(self, monkeypatch):
        original = pluricoh.hirzebruch.dim_enumerated

        def corrupted(surface, k):
            value = original(surface, k)
            return value - 1 if (surface.m, k) == (3, 2) else value

        monkeypatch.setattr(pluricoh.hirzebruch, "dim_enumerated", corrupted)
        results = run_selfcheck(budget=10)
        failed = {r.name for r in results if not r.passed}
        assert "hirzebruch_formula_vs_enumeration" in failed or (
            "enumeration_vs_lattice_walk" in failed
        )
