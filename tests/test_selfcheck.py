"""Tests for the oracle implementations and the runtime check suite,
including deliberate fault injection to prove the suite can catch a
corrupted formula."""

import dataclasses
import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pluricoh.blowup
import pluricoh.hirzebruch
import pluricoh.surface_invariants
from pluricoh import exact_linalg
from pluricoh.blowup import PointConfiguration, _polytope, generate_configuration, jet_matrix, monomial_count
from pluricoh.cli import main
from pluricoh.exact_linalg import RatMatrix
from pluricoh.hirzebruch import FormulaEvaluation
from pluricoh.selfcheck import (
    CheckResult,
    _check_jet_rank_cross_check,
    _jet_corpus,
    _run,
    count_sections_by_lattice_points,
    naive_rank,
    run_selfcheck,
)
from test_golden_cli import ENTRIES as GOLDEN_ENTRIES
from test_golden_cli import _run as golden_run


# Integer entries with determinant -1: float elimination would call it singular.
NEAR_SINGULAR_INT = RatMatrix(2, 2, (2**60, 2**60 + 1, 2**60 + 1, 2**60 + 2))


def fraction_rank(matrix):
    """Rank by Gaussian elimination over Fraction, the reference for `naive_rank`."""
    rows = [[Fraction(x) for x in matrix.row(i)] for i in range(matrix.rows)]
    r = 0
    for c in range(matrix.cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            factor = rows[i][c] / rows[r][c]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


@st.composite
def rank_inputs(draw):
    """Matrices of up to 7x7 with entries of up to 210 bits, some with zero or dependent rows."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    bits = draw(st.sampled_from((3, 64, 210)))
    entries = st.integers(-(2**bits), 2**bits)
    grid = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows >= 3:
        plant = draw(st.sampled_from(("none", "zero", "dependent")))
        if plant == "zero":
            grid[draw(st.integers(0, rows - 1))] = [0] * cols
        elif plant == "dependent":
            a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            grid[rows - 1] = [a * x + b * y for x, y in zip(grid[0], grid[1])]
    return RatMatrix(rows, cols, tuple(x for row in grid for x in row))


class TestOracles:
    def test_naive_rank_on_small_matrices(self):
        assert naive_rank(RatMatrix(0, 4, ())) == 0
        assert naive_rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert naive_rank(RatMatrix.from_rows([[0, 1], [1, 0]])) == 2
        assert naive_rank(NEAR_SINGULAR_INT) == 2

    @given(rank_inputs())
    @settings(max_examples=200)
    def test_naive_rank_matches_fraction_elimination_and_production(self, matrix):
        expected = fraction_rank(matrix)
        assert naive_rank(matrix) == expected
        assert exact_linalg.rank(matrix) == expected

    @pytest.mark.parametrize("name", ["jet_matrix", "naive_rank"])
    def test_leaves_no_cyclic_garbage(self, name):
        # Cyclic garbage waits for the collector, and generation-2 collections
        # are rare, so every call that leaves some makes the heap grow.
        config = PointConfiguration(n=2, points=((Fraction(1, 2), Fraction(3)), (Fraction(-2), Fraction(5, 3))))
        jet = jet_matrix(2, config.lifts, 6, [2] * config.v).matrix
        call = {
            "jet_matrix": lambda: jet_matrix(2, config.lifts, 9, [3] * config.v),
            "naive_rank": lambda: naive_rank(jet),
        }[name]
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_naive_nullspace_dimension(self):
        # cols - naive_rank: the free columns after naive elimination.
        assert 2 - naive_rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert 3 - naive_rank(RatMatrix(0, 3, ())) == 3
        assert 2 - naive_rank(NEAR_SINGULAR_INT) == 0

    def test_lattice_walk_base_cases(self):
        assert count_sections_by_lattice_points(5, 0) == 1
        assert count_sections_by_lattice_points(0, 1) == 9
        assert count_sections_by_lattice_points(2, 1) == 9

    def test_lattice_walk_is_one_at_k_zero_for_every_twist(self):
        # At k = 0 the walk visits only (i, d) = (0, 0), whatever the twist.
        assert [count_sections_by_lattice_points(m, 0) for m in range(40)] == [1] * 40


class TestRunSelfcheck:
    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_small_budget_passes(self, budget):
        results = run_selfcheck(budget=budget)
        assert results
        assert all(r.passed for r in results)
        assert all(r.cases > 0 for r in results)

    def test_a_check_without_cases_fails(self):
        assert _run("empty", iter(())) == CheckResult("empty", False, 0, "no case ran")

    def test_a_case_that_raises_is_its_counterexample(self):
        def cases():
            yield None
            raise RuntimeError("library check failed")

        assert _run("raises", cases()) == CheckResult("raises", False, 2, "library check failed")

    def test_a_refused_count_is_its_counterexample(self):
        # Riemann-Roch refusing a negative h1 is a library check failing.
        def cases():
            yield pluricoh.surface_invariants.h1_from_rr(2, 0, 0, pluricoh.surface_invariants.invariants_hirzebruch(4))

        result = _run("refused", cases())
        assert (result.passed, result.cases) == (False, 1)
        assert result.counterexample.startswith("h1(2K) evaluated to -9 < 0")

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
                full = len(log[0][1][0]) == min(matrix.rows, matrix.cols)
                certified = any(name == "_kernel_certificate" and out is not None for name, out in log)
                route = "full" if full else "certified" if certified else "fallback"
                outcomes.append((route, sum(name == "_bareiss_rank" for name, _ in log)))
            return result

        monkeypatch.setattr(exact_linalg, "rank", recording_rank)
        results = {r.name: r for r in run_selfcheck(10)}
        assert results["production_rank_vs_naive_elimination"].passed
        assert set(outcomes) == {("full", 0), ("certified", 0)}

    def test_a_sampler_failure_fails_only_the_jet_rows(self, capsys, monkeypatch):
        # The jet corpus is built inside the suite, so a sampler out of
        # attempts fails the two rows that read it and the other ten still run.
        monkeypatch.setattr(pluricoh.blowup, "GENERIC_SAMPLE_ATTEMPTS", 0)
        assert main(["selfcheck", "--budget", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        rows = {line.split()[0]: line for line in lines if line.split()[1:2] in (["True"], ["False"])}
        assert len(rows) == 12
        failed = {name for name, line in rows.items() if line.split()[1] == "False"}
        assert failed == {"jet_rank_production_vs_naive", "blowup_h1_2K_within_range"}
        for name in failed:
            assert rows[name].endswith("  1  no sample reached h0(-1K) = 5 within 0 attempts")

    def test_the_jet_corpus_is_built_once_per_run(self, monkeypatch):
        # Both jet rows read one corpus of seven configurations.
        calls = []
        original = pluricoh.blowup.generate_configuration

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pluricoh.blowup, "generate_configuration", counting)
        results = {r.name: r for r in run_selfcheck(budget=1)}
        assert results["jet_rank_production_vs_naive"].passed
        assert results["blowup_h1_2K_within_range"].passed
        assert len(calls) == 7

    def test_the_jet_corpus_checks_the_residue_route(self, monkeypatch):
        # generic-10's seven moved points give one 7 x 7 block at k = 1 whose
        # images have 40-bit coordinates: 7 * 3 * 40 exceeds MODULAR_RULE_BITS,
        # so its residues are built and have full rank mod p, and
        # jet_rank_production_vs_naive checks that route against naive
        # elimination on every run.
        routed = []
        original_rank = pluricoh.blowup.rank_from_residues
        original_generate = pluricoh.blowup.generate_configuration

        def spy(residues, rest, build):
            routed[-1][1].append((residues.rows, residues.cols))
            return original_rank(residues, rest, build)

        def generate(kind, v, **kwargs):
            routed.append(((kind, v), []))
            return original_generate(kind, v, **kwargs)

        monkeypatch.setattr(pluricoh.blowup, "rank_from_residues", spy)
        monkeypatch.setattr(pluricoh.blowup, "generate_configuration", generate)
        corpus = _jet_corpus(12)
        assert [shapes for (kind, _), shapes in routed if kind == "generic"] == [[], [(7, 7)]]
        assert all(case is None for case in _check_jet_rank_cross_check(lambda: corpus))

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

    @pytest.mark.parametrize("fault", ["one column dropped", "caps of 2k + 1"])
    def test_detects_a_wrong_polytope(self, monkeypatch, fault):
        # Fault injection: the normalized route ranks the polytope's columns,
        # while the naive oracle and the golden corpus saw the matrix on all
        # monomials, so a wrong polytope must fail both.
        def polytope(n, degree, caps):
            if fault == "one column dropped":
                return _polytope(n, degree, caps)[1:]
            return _polytope(n, degree, [cap + 1 for cap in caps])

        # The corpus entries that rank a polytope or peel to none, the generic
        # ones sampled before the fault as the corpus samples them.
        corpus = {
            "conic-6-k2": (PointConfiguration.from_coordinates([(t, t * t) for t in range(1, 7)]), 2),
            "generic-5": (generate_configuration("generic", 5, seed=1)[0], 1),
            "generic-10": (generate_configuration("generic", 10, seed=2)[0], 1),
            "collinear-12": (PointConfiguration.from_coordinates([(t, 0) for t in range(1, 13)]), 1),
            "collinear-12-k2": (PointConfiguration.from_coordinates([(t, 0) for t in range(1, 13)]), 2),
        }
        monkeypatch.setattr(pluricoh.blowup, "_polytope", polytope)
        # conic-6-k2 does not peel, 6 * 2 <= 2 * 6, and the generic points are
        # moved at k = 1 too, so naive elimination of the unnormalized matrix
        # disagrees with the faulty count; generic-10's seven images have full
        # rank on six columns, so only the wider caps move its h0.  The
        # collinear entries peel to no point at all and rank no polytope.
        caught = {
            label
            for label, (config, k) in corpus.items()
            if pluricoh.blowup.h0_blowup(config, k)
            != monomial_count(2, k) - naive_rank(jet_matrix(2, config.lifts, 3 * k, [k] * config.v).matrix)
        }
        assert caught == {"conic-6-k2", "generic-5"} | ({"generic-10"} if fault == "caps of 2k + 1" else set())
        # A dropped column takes h0 below what Riemann-Roch allows, which fails
        # the corpus build and with it both jet rows.
        results = {r.name: r for r in run_selfcheck(budget=10)}
        assert not results["jet_rank_production_vs_naive"].passed
        assert any(golden_run(entry["argv"]) != (entry["exit"], entry["stdout"]) for entry in GOLDEN_ENTRIES)
        assert main(["selfcheck"]) == 1
        if fault == "one column dropped":
            # Riemann-Roch refuses the count in the CLI too, as a failed check.
            assert main(["blowup", "--generate", "on_conic", "--v", "6", "--k", "2"]) == 1

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
