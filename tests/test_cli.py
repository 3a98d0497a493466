"""End-to-end tests of the command-line interface: exit codes, output
formats, schema conformance, provenance completeness and determinism."""

import dataclasses
import gc
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pluricoh.blowup
import pluricoh.cli
import pluricoh.exact_linalg
import pluricoh.family
import pluricoh.hirzebruch
from pluricoh.blowup import generate_configuration
from pluricoh.cli import BASIS_MAX_K, FAMILY_MAX_KMAX, JET_MAX_CELLS, JET_MAX_DIMENSION, SELFCHECK_MAX_BUDGET, main
from pluricoh.hirzebruch import FormulaEvaluation
from pluricoh.selfcheck import run_selfcheck
from test_golden_cli import ENTRIES, _run

DATA = Path(__file__).resolve().parent / "data"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output-schema.json").read_text()
)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    record = json.loads(out)
    jsonschema.validate(record, SCHEMA)
    _assert_provenance_complete(record)
    return code, record


def _assert_usage_error(code: int, out: str, err: str) -> None:
    """Exit 2 with nothing on stdout and one `error:` line, no traceback, on stderr."""
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def _assert_check_error(code: int, out: str, err: str) -> None:
    """Exit 1 with nothing on stdout and one `error:` line, no traceback, on stderr."""
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def _more_sections(row, extra):
    return dataclasses.replace(
        row, h0_minus_kK=row.h0_minus_kK + extra, h2_kp1K=row.h2_kp1K + extra
    )


def _assert_provenance_complete(record: dict) -> None:
    """Every number in results must carry a provenance entry.

    Scalar numbers are keyed by name; numbers inside row objects are keyed
    by their column name.
    """
    provenance = record["provenance"]
    for key, value in record["results"].items():
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            assert key in provenance, key
        elif key == "rows":
            for row in value:
                for column, cell in row.items():
                    if isinstance(cell, int) and not isinstance(cell, bool):
                        assert column in provenance, column
        elif isinstance(value, list):
            assert key in provenance, key


class TestHirzebruchCommand:
    def test_in_regime(self, capsys):
        code, record = run_json(capsys, "hirzebruch", "--m", "4", "--k", "1")
        assert code == 0
        results = record["results"]
        assert results["dim_enumerated"] == 10
        assert results["dim_formula"] == 10
        assert results["formula_in_regime"] is True
        assert results["h1_kK_rr_chain"] == 0
        assert record["warnings"] == []

    def test_out_of_regime_warns_but_succeeds(self, capsys):
        code, record = run_json(capsys, "hirzebruch", "--m", "1", "--k", "1")
        assert code == 0
        assert record["results"]["dim_enumerated"] == 9
        assert record["results"]["dim_formula"] == 10
        assert record["results"]["formula_in_regime"] is False
        assert any("out of regime" in w for w in record["warnings"])

    def test_product_surface_has_no_formula(self, capsys):
        code, record = run_json(capsys, "hirzebruch", "--m", "0", "--k", "3")
        assert code == 0
        assert record["results"]["dim_enumerated"] == 49
        assert "dim_formula" not in record["results"]
        assert any("product surface" in w for w in record["warnings"])

    def test_h1_cross_check_reported_both_ways(self, capsys):
        code, record = run_json(capsys, "hirzebruch", "--m", "4", "--k", "2")
        assert code == 0
        assert record["results"]["h1_kK_closed_form"] == 1
        assert record["results"]["h1_kK_rr_chain"] == 1
        assert record["results"]["h2_kK"] == 10

    def test_huge_power_is_constant_time(self, capsys):
        code, record = run_json(capsys, "hirzebruch", "--m", "4", "--k", "100000000")
        assert code == 0
        assert record["results"]["dim_enumerated"] == 45000000450000001
        assert record["results"]["dim_formula"] == 45000000450000001

    def test_basis_flag(self, capsys):
        code, record = run_json(capsys, "hirzebruch", "--m", "4", "--k", "1", "--basis")
        assert code == 0
        assert record["results"]["section_basis"] == [[1, 2], [2, 6]]
        assert record["results"]["section_basis_dimension"] == 10

    def test_basis_cap(self, capsys):
        code, record = run_json(capsys, "hirzebruch", "--m", "1", "--k", str(BASIS_MAX_K), "--basis")
        assert code == 0
        assert len(record["results"]["section_basis"]) == 2 * BASIS_MAX_K + 1
        code, out, err = run_cli(capsys, "hirzebruch", "--m", "1", "--k", str(BASIS_MAX_K + 1), "--basis")
        assert (code, out) == (2, "")
        assert f"2k+1 = {2 * BASIS_MAX_K + 3} terms" in err

    def test_basis_flag_invalid_on_product_surface(self, capsys):
        code, _, err = run_cli(capsys, "hirzebruch", "--m", "0", "--k", "1", "--basis")
        assert code == 2
        assert "error" in err

    def test_invalid_parameters(self, capsys):
        assert run_cli(capsys, "hirzebruch", "--m", "-1", "--k", "1")[0] == 2
        assert run_cli(capsys, "hirzebruch", "--m", "2", "--k", "0")[0] == 2

    def test_corrupted_formula_fails_cross_check(self, capsys, monkeypatch):
        monkeypatch.setattr(
            pluricoh.cli, "dim_formula", lambda surface, k: FormulaEvaluation(99, True)
        )
        code, record = run_json(capsys, "hirzebruch", "--m", "4", "--k", "1")
        assert code == 1
        assert any("cross-check failed" in w for w in record["warnings"])


class TestBlowupCommand:
    def test_point_file(self, capsys, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("# five on a line\n1 0\n2 0\n3 0\n4 0\n5 0\n")
        code, record = run_json(capsys, "blowup", "--points", str(path), "--k", "1")
        assert code == 0
        results = record["results"]
        assert results["v"] == 5
        assert results["jet_rank"] == 4
        assert results["h0_minus_kK"] == 6
        assert results["h2_2K"] == 6
        assert results["h1_2K"] == 1

    def test_generic_ten_points(self, capsys):
        code, record = run_json(
            capsys, "blowup", "--generate", "generic", "--v", "10", "--seed", "7"
        )
        assert code == 0
        assert record["results"]["h0_minus_kK"] == 0

    def test_single_point_power_two(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 0\n")
        code, record = run_json(capsys, "blowup", "--points", str(path), "--k", "2")
        assert code == 0
        results = record["results"]
        assert results["monomial_count"] == 28
        assert results["jet_rank"] == 3
        assert results["h0_minus_kK"] == 25
        assert "h1_2K" not in results

    def test_rational_coordinates(self, capsys, tmp_path):
        path = tmp_path / "rat.txt"
        path.write_text("1/2 -3/4\n2/3 5\n")
        code, record = run_json(capsys, "blowup", "--points", str(path))
        assert code == 0
        assert record["results"]["h0_minus_kK"] == 8

    def test_duplicate_points_are_usage_error(self, capsys, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1 2\n1 2\n")
        code, _, err = run_cli(capsys, "blowup", "--points", str(path))
        assert code == 2
        assert "distinct" in err

    @pytest.mark.parametrize("text", ["1\n", "1\n2\n"])
    def test_projective_line_is_usage_error(self, capsys, tmp_path, text):
        # One or two points of P^1 are independent, a lattice count with no jet
        # matrix to refuse them, so h0_blowup refuses n = 1 itself.
        path = tmp_path / "line.txt"
        path.write_text(text)
        for k in ("1", "2"):
            code, out, err = run_cli(capsys, "blowup", "--points", str(path), "--k", k)
            assert (code, out) == (2, "")
            assert "blow-ups require n >= 2" in err

    # "1e200000" is refused by its syntax; Fraction() would take it and the
    # k = 2 rank would run before echoing the point failed.
    @pytest.mark.parametrize("line", ["foo bar", "1e200000 0"])
    def test_parse_failure_is_usage_error(self, capsys, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\n{line}\n")
        code, out, err = run_cli(capsys, "blowup", "--points", str(path), "--k", "2")
        assert (code, out) == (2, "")
        assert "line 2: invalid coordinate" in err

    def test_missing_source_is_usage_error(self, capsys):
        assert run_cli(capsys, "blowup", "--k", "1")[0] == 2
        assert run_cli(capsys, "blowup", "--generate", "generic")[0] == 2

    def test_conflicting_sources_are_usage_error(self, capsys):
        path = str(DATA / "plane_points.txt")
        code, out, err = run_cli(capsys, "blowup", "--points", path, "--generate", "collinear", "--v", "5")
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    def test_nonpositive_k_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "blowup", "--generate", "generic", "--v", "5", "--k", "0")
        _assert_usage_error(code, out, err)
        assert "--k" in err

    def test_v_with_a_point_file_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "blowup", "--points", str(DATA / "plane_points.txt"), "--v", "99")
        assert (code, out) == (2, "")
        assert "--v" in err

    def test_jet_matrix_cap_is_accepted(self, capsys):
        # k = 1 has 10 columns, so JET_MAX_CELLS // 10 points fill the cap exactly.
        v = JET_MAX_CELLS // 10
        assert v * 10 == JET_MAX_CELLS
        code, out, _ = run_cli(capsys, "blowup", "--generate", "collinear", "--v", str(v), "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].split(",")[-3:] == ["6", "6", f"{v - 4}"]

    def test_jet_matrix_above_cap_names_the_shape(self, capsys, monkeypatch):
        # With the cap one below it, the same matrix has cap + 1 cells; nothing is sampled.
        v = JET_MAX_CELLS // 10
        monkeypatch.setattr(pluricoh.cli, "JET_MAX_CELLS", JET_MAX_CELLS - 1)

        def forbidden(*args, **kwargs):
            raise AssertionError("sampled a configuration above the cap")

        monkeypatch.setattr(pluricoh.cli, "generate_configuration", forbidden)
        code, out, err = run_cli(capsys, "blowup", "--generate", "generic", "--v", str(v))
        assert (code, out) == (2, "")
        assert f"capped at {JET_MAX_CELLS - 1}" in err
        assert f"{v} x 10 = {JET_MAX_CELLS}" in err

    def test_jet_matrix_cap_message_with_a_huge_k(self, capsys):
        # rows x cols has about 8,800 digits, past Python's int-to-str limit,
        # so the cap is compared before the shape is formatted.
        code, out, err = run_cli(capsys, "blowup", "--generate", "generic", "--v", "1", "--k", "9" * 2200)
        _assert_usage_error(code, out, err)
        assert f"capped at {JET_MAX_CELLS}: v = 1, k = {'9' * 2200} gives at least 10^18 cells" in err

    def test_space_jet_matrix_above_cap(self, capsys):
        # Five points of P^3 at k = 3: 5 * C(8, 3) rows against C(15, 3) columns.
        code, out, err = run_cli(capsys, "blowup", "--points", str(DATA / "space_points.txt"), "--k", "3")
        assert (code, out) == (2, "")
        assert "280 x 455 = 127400" in err

    @pytest.mark.parametrize("n", [JET_MAX_DIMENSION + 1, 10**4])
    def test_point_dimension_above_cap_is_refused_before_the_shape(self, capsys, tmp_path, monkeypatch, n):
        # From n = 6 on one point at k = 1 exceeds the cell cap; the binomials
        # of a large n alone would take seconds, so none is formed.
        def forbidden(*args):
            raise AssertionError("jet_shape ran above the dimension cap")

        monkeypatch.setattr(pluricoh.cli, "jet_shape", forbidden)
        path = tmp_path / "wide.txt"
        path.write_text("0 " * n + "\n")
        code, out, err = run_cli(capsys, "blowup", "--points", str(path))
        _assert_usage_error(code, out, err)
        assert f"capped at {JET_MAX_DIMENSION}: one point with n = {n} coordinates" in err

    def test_point_file_at_the_dimension_cap_runs(self, capsys, tmp_path):
        # One point in dimension 5 at k = 1: 56 x 462 cells, under the cap.
        assert JET_MAX_DIMENSION == 5
        path = tmp_path / "five.txt"
        path.write_text("1 2 3 4 5\n")
        code, record = run_json(capsys, "blowup", "--points", str(path))
        assert code == 0
        assert (record["results"]["jet_rank"], record["results"]["h0_minus_kK"]) == (56, 406)

    @pytest.mark.parametrize("name, k", [("plane_points.txt", 1), ("plane_points.txt", 3), ("space_points.txt", 2)])
    def test_jet_matrix_cap_counts_the_built_shape(self, capsys, monkeypatch, name, k):
        monkeypatch.setattr(pluricoh.cli, "JET_MAX_CELLS", 0)
        path = DATA / name
        code, _, err = run_cli(capsys, "blowup", "--points", str(path), "--k", str(k))
        config = pluricoh.blowup.parse_point_file(path.read_text())
        n = config.n
        matrix = pluricoh.blowup.jet_matrix(n, config.lifts, (n + 1) * k, [(n - 1) * k] * config.v).matrix
        assert code == 2
        assert f"gives {matrix.rows} x {matrix.cols} = {matrix.rows * matrix.cols}" in err


def _record_calls(monkeypatch, original) -> list[tuple]:
    """Record the arguments of every call to `original`, wherever pluricoh binds it."""
    calls: list[tuple] = []

    def recording(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "pluricoh" or name.startswith("pluricoh."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    return calls


class TestEachMatrixBuiltOnce:
    @pytest.fixture
    def work(self, monkeypatch):
        """Jet builds and ranks, and the attempts the generic sampler makes for v = 5."""
        builds = _record_calls(monkeypatch, pluricoh.blowup.jet_matrix)
        ranks = _record_calls(monkeypatch, pluricoh.exact_linalg.rank)
        generate_configuration("generic", 5, seed=0)
        attempts = len(builds)
        assert attempts >= 1
        assert len(ranks) == attempts
        builds.clear()
        ranks.clear()
        return builds, ranks, attempts

    def test_blowup_builds_one_matrix(self, capsys, work):
        # Five points on a conic: two images of order 1 against the cubics.
        builds, ranks, _ = work
        code, _, _ = run_cli(capsys, "blowup", "--generate", "on_conic", "--v", "5")
        assert code == 0
        assert [(degree, orders) for _, _, degree, orders, _ in builds] == [(3, [1, 1])]
        assert len(ranks) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # The line through the first two points holds all five: (3; 1^5) peels to (2; ).
            ["--generate", "collinear", "--v", "5"],
            # Its first two points lie on y = 0 with three more: (3; 1^6) peels to (2; 1).
            ["--points", str(DATA / "plane_points.txt")],
        ],
    )
    def test_blowup_peeled_to_a_count_builds_no_matrix(self, capsys, work, argv):
        builds, ranks, _ = work
        code, _, _ = run_cli(capsys, "blowup", *argv)
        assert code == 0
        assert builds == ranks == []

    def test_generic_blowup_ranks_each_sampler_attempt_once(self, capsys, work):
        builds, ranks, attempts = work
        code, _, _ = run_cli(capsys, "blowup", "--generate", "generic", "--v", "5")
        assert code == 0
        assert len(builds) == len(ranks) == attempts

    def test_family_blowup_builds_sampler_attempts_plus_one(self, capsys, work):
        builds, ranks, attempts = work
        code, _, _ = run_cli(capsys, "family", "--blowup", "--special", "on_conic", "--v", "5")
        assert code == 0
        assert len(builds) == len(ranks) == attempts + 1


class TestNormalizationScope:
    """What each input ranks once its points are peeled and moved to coordinate points."""

    @pytest.fixture
    def spies(self, monkeypatch):
        builds = _record_calls(monkeypatch, pluricoh.blowup.jet_matrix)
        return builds, _record_calls(monkeypatch, pluricoh.exact_linalg.rank)

    def test_collinear_points_rank_the_line_polytope_once(self, capsys, spies):
        # Bezout: (9; 3^5) -> (8; 2^5) -> (7; 1^5), where the line's 5 <= 7 stops the peeling.
        # Two of the five points go to e_0 and e_1, so the line becomes y = 0 and only the
        # exponents of x_0 and x_1 are capped, at 7 - 1.
        builds, ranks = spies
        code, record = run_json(capsys, "blowup", "--generate", "collinear", "--v", "5", "--k", "3")
        assert code == 0
        ((n, images, degree, orders, columns),) = builds
        ((matrix,),) = ranks
        assert (n, len(images), degree, orders) == (2, 3, 7, [1, 1, 1])
        assert columns == pluricoh.blowup._polytope(2, 7, [6, 6])
        assert all(image[2] == 0 for image in images)
        assert (matrix.rows, matrix.cols) == (3, len(columns)) == (3, 34)
        assert record["results"]["h0_minus_kK"] == 31

    def test_conic_file_at_k_3_ranks_the_polytope_once(self, capsys, spies, tmp_path):
        # Bezout: the conic holds 7 * 3 > 2 * 9, so it is a fixed component once, leaving
        # (7; 2^7), where 7 * 2 <= 2 * 7 stops the peeling.
        builds, ranks = spies
        path = tmp_path / "conic.txt"
        path.write_text("".join(f"{t} {t * t}\n" for t in range(1, 8)))
        code, record = run_json(capsys, "blowup", "--points", str(path), "--k", "3")
        assert code == 0
        ((n, images, degree, orders, columns),) = builds
        ((matrix,),) = ranks
        assert (n, len(images), degree, orders) == (2, 4, 7, [2] * 4)
        assert columns == pluricoh.blowup._polytope(2, 7, [5, 5, 5])
        assert (matrix.rows, matrix.cols) == (12, len(columns)) == (12, 27)
        assert record["results"]["h0_minus_kK"] == 15
        assert record["results"]["jet_rank"] == record["results"]["monomial_count"] - 15

    @pytest.mark.parametrize(
        "argv, v, k",
        [
            # The Halphen grid: lines of three points and no conic through six; 3 * 2 <= 6.
            (["--points", "GRID", "--k", "2"], 9, 2),
            # Five points on a conic: 5 * 3 <= 2 * 9.
            (["--generate", "on_conic", "--v", "5", "--k", "3"], 5, 3),
            # Plane k = 1 is moved too, onto the 7 cubics of the hexagon: six points on a
            # conic, 6 <= 2 * 3, and four generic ones.
            (["--generate", "on_conic", "--v", "6", "--k", "1"], 6, 1),
            (["--generate", "generic", "--v", "4", "--k", "1", "--seed", "3"], 4, 1),
        ],
    )
    def test_unpeelable_points_rank_the_full_polytope_once(self, capsys, spies, tmp_path, argv, v, k):
        builds, ranks = spies
        grid = tmp_path / "grid.txt"
        grid.write_text("".join(f"{x} {y}\n" for x in range(3) for y in range(3)))
        code, _ = run_json(capsys, "blowup", *[str(grid) if arg == "GRID" else arg for arg in argv])
        assert code == 0
        ((n, images, degree, orders, columns),) = builds
        ((matrix,),) = ranks
        assert (n, len(images), degree, orders) == (2, v - 3, 3 * k, [k] * (v - 3))
        assert columns == pluricoh.blowup._polytope(2, 3 * k, [2 * k] * 3)
        assert (matrix.rows, matrix.cols) == ((v - 3) * math.comb(k + 1, 2), len(columns))

    def test_skew_lines_rank_the_space_polytope_once(self, capsys, spies):
        # Four of the six points go to e_0, ..., e_3.  The image of (0, 1, 3) has
        # x_0 = x_1 = 0, so its rows are taken in the chart of x_2.
        builds, ranks = spies
        code, record = run_json(capsys, "blowup", "--points", str(DATA / "skew_lines.txt"), "--k", "1")
        assert code == 0
        ((n, images, degree, orders, columns),) = builds
        ((matrix,),) = ranks
        assert (n, len(images), degree, orders) == (3, 2, 4, [2, 2])
        assert columns == pluricoh.blowup._polytope(3, 4, [2] * 4)
        assert images[1][:2] == (0, 0)
        assert (matrix.rows, matrix.cols) == (8, len(columns)) == (8, 19)
        assert record["results"]["h0_minus_kK"] == 13


class TestFamilyCommand:
    def test_kodaira_headline(self, capsys):
        code, record = run_json(
            capsys, "family", "--kodaira", "--m", "4", "--ell", "1", "--kmax", "3"
        )
        assert code == 0
        rows = record["results"]["rows"]
        assert len(rows) == 3
        assert all(row["jump"] for row in rows)
        assert rows[0]["h2_kp1K_central"] == 10
        assert rows[0]["h2_kp1K_general"] == 9
        assert all(row["h0_kp1K_central"] == 0 and row["h0_kp1K_general"] == 0 for row in rows)
        assert record["results"]["jump_found"] is True

    def test_kodaira_expect_jump_satisfied(self, capsys):
        code, record = run_json(
            capsys, "family", "--kodaira", "--m", "4", "--ell", "1", "--expect-jump"
        )
        assert code == 0
        assert record["parameters"]["kmax"] == 3

    def test_coincident_pair_never_jumps(self, capsys):
        code, record = run_json(
            capsys, "family", "--kodaira", "--m", "2", "--ell", "1", "--kmax", "5"
        )
        assert code == 0
        assert all(not row["jump"] for row in record["results"]["rows"])

    def test_expect_jump_failure_exit_code(self, capsys):
        code, record = run_json(
            capsys,
            "family", "--kodaira", "--m", "2", "--ell", "1", "--kmax", "5", "--expect-jump",
        )
        assert code == 1
        assert any("no jump" in w for w in record["warnings"])

    def test_blowup_collinear_five(self, capsys):
        code, record = run_json(capsys, "family", "--blowup", "--special", "collinear", "--v", "5")
        assert code == 0
        results = record["results"]
        assert (results["h2_2K_special"], results["h2_2K_generic"]) == (6, 5)
        assert (results["h1_2K_special"], results["h1_2K_generic"]) == (1, 0)
        assert results["jump"] is True
        assert any("boundary case" in w for w in record["warnings"])

    def test_blowup_six_points_has_no_boundary_note(self, capsys):
        code, record = run_json(capsys, "family", "--blowup", "--special", "collinear", "--v", "6")
        assert code == 0
        assert record["results"]["jump"] is True
        assert not any("boundary case" in w for w in record["warnings"])

    def test_blowup_special_file(self, capsys, tmp_path):
        path = tmp_path / "special.txt"
        path.write_text("1 1\n2 4\n3 9\n4 16\n5 25\n6 36\n7 49\n8 64\n")
        code, record = run_json(capsys, "family", "--blowup", "--special-file", str(path))
        assert code == 0
        assert record["results"]["h0_minus_K_special"] == 3
        assert record["results"]["h0_minus_K_generic"] == 2

    def test_invalid_family_is_usage_error(self, capsys):
        assert run_cli(capsys, "family", "--kodaira", "--m", "2", "--ell", "2")[0] == 2
        assert run_cli(capsys, "family", "--kodaira", "--m", "4")[0] == 2
        assert run_cli(capsys, "family", "--blowup", "--special", "collinear")[0] == 2
        assert run_cli(capsys, "family", "--blowup", "--v", "5")[0] == 2

    def test_conflicting_special_sources_are_usage_error(self, capsys):
        path = str(DATA / "plane_points.txt")
        argv = ["family", "--blowup", "--special", "on_conic", "--v", "9", "--special-file", path]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--kodaira", "--m", "4", "--ell", "1", "--special", "collinear"], "--special"),
            (["--kodaira", "--m", "4", "--ell", "1", "--special-file", str(DATA / "plane_points.txt")], "--special-file"),
            (["--kodaira", "--m", "4", "--ell", "1", "--v", "3"], "--v"),
            (["--blowup", "--special", "collinear", "--v", "5", "--kmax", "7"], "--kmax"),
            (["--blowup", "--special", "collinear", "--v", "5", "--m", "9", "--ell", "2"], "--m and --ell"),
            (["--blowup", "--special-file", str(DATA / "plane_points.txt"), "--v", "4"], "--v"),
        ],
    )
    def test_flags_the_mode_ignores_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "family", *argv)
        assert (code, out) == (2, "")
        assert flag in err

    def test_blowup_special_file_off_the_plane_is_usage_error(self, capsys):
        path = str(DATA / "space_points.txt")
        code, out, err = run_cli(capsys, "family", "--blowup", "--special-file", path)
        assert code == 2
        assert out == ""
        assert "plane only" in err

    def test_kmax_cap_is_accepted(self, capsys):
        code, record = run_json(
            capsys, "family", "--kodaira", "--m", "4", "--ell", "1", "--kmax", str(FAMILY_MAX_KMAX)
        )
        assert code == 0
        assert len(record["results"]["rows"]) == FAMILY_MAX_KMAX

    def test_kmax_above_cap_names_the_size(self, capsys):
        kmax = FAMILY_MAX_KMAX + 1
        code, out, err = run_cli(
            capsys, "family", "--kodaira", "--m", "4", "--ell", "1", "--kmax", str(kmax)
        )
        assert code == 2
        assert out == ""
        assert f"capped at {FAMILY_MAX_KMAX}" in err
        assert f"{kmax} rows" in err


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
class TestRaisedCheck:
    """A library check that raises RuntimeError is a failed check: exit 1, one `error:` line."""

    def test_sampler_out_of_attempts(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(pluricoh.blowup, "GENERIC_SAMPLE_ATTEMPTS", 0)
        code, out, err = run_cli(capsys, "blowup", "--generate", "generic", "--v", "5", "--format", fmt)
        _assert_check_error(code, out, err)
        assert "within 0 attempts" in err

    def test_kodaira_general_fiber_with_more_sections(self, capsys, monkeypatch, fmt):
        original = pluricoh.family.hirzebruch_row

        def inflated(surface, k):
            row = original(surface, k)
            return _more_sections(row, 100) if surface.m == 2 else row

        monkeypatch.setattr(pluricoh.family, "hirzebruch_row", inflated)
        argv = ["family", "--kodaira", "--m", "4", "--ell", "1", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        _assert_check_error(code, out, err)
        assert err == "error: semicontinuity violated at k = 1: central 10 < general 109\n"

    def test_blowup_generic_fiber_with_more_sections(self, capsys, monkeypatch, fmt):
        original = pluricoh.family.generate_configuration

        def inflated(*args, **kwargs):
            config, row = original(*args, **kwargs)
            return config, _more_sections(row, 100)

        monkeypatch.setattr(pluricoh.family, "generate_configuration", inflated)
        argv = ["family", "--blowup", "--special", "collinear", "--v", "5", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        _assert_check_error(code, out, err)
        assert err == "error: semicontinuity violated at k = 1: central 6 < general 105\n"


class TestSelfcheckCommand:
    def test_default_budget_passes(self, capsys):
        code, record = run_json(capsys, "selfcheck", "--budget", "4")
        assert code == 0
        assert record["results"]["all_passed"] is True
        assert record["results"]["checks_run"] > 0

    def test_budget_zero_warns(self, capsys):
        code, record = run_json(capsys, "selfcheck", "--budget", "0")
        assert code == 0
        assert record["results"]["rows"] == []
        assert any("nothing was verified" in w for w in record["warnings"])

    def test_budget_cap_is_accepted(self, capsys, monkeypatch):
        # The sweep at the cap takes seconds; a budget-1 sweep stands in for it.
        budgets = []

        def small_sweep(budget, seed):
            budgets.append(budget)
            return run_selfcheck(1, seed=seed)

        monkeypatch.setattr(pluricoh.cli, "run_selfcheck", small_sweep)
        code, record = run_json(capsys, "selfcheck", "--budget", str(SELFCHECK_MAX_BUDGET))
        assert code == 0
        assert budgets == [SELFCHECK_MAX_BUDGET]
        assert record["parameters"]["budget"] == SELFCHECK_MAX_BUDGET

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "selfcheck", "--budget", "-1")
        _assert_usage_error(code, out, err)
        assert "--budget" in err

    def test_budget_above_cap_names_the_size(self, capsys):
        budget = SELFCHECK_MAX_BUDGET + 1
        code, out, err = run_cli(capsys, "selfcheck", "--budget", str(budget))
        assert code == 2
        assert out == ""
        assert f"capped at {SELFCHECK_MAX_BUDGET}" in err
        assert f"{4 * budget} random cases" in err

    def test_corrupted_formula_fails_with_counterexample(self, capsys, monkeypatch):
        original = pluricoh.hirzebruch.dim_formula

        def corrupted(surface, k):
            value, in_regime = original(surface, k)
            bump = 1 if (surface.m, k) == (6, 2) else 0
            return FormulaEvaluation(value + bump, in_regime)

        monkeypatch.setattr(pluricoh.hirzebruch, "dim_formula", corrupted)
        code, record = run_json(capsys, "selfcheck", "--budget", "10")
        assert code == 1
        failing = [row for row in record["results"]["rows"] if not row["passed"]]
        assert failing
        assert "m=6, k=2" in failing[0]["counterexample"]


    def test_a_check_that_raises_is_a_failed_row(self, capsys, monkeypatch):
        # 100 extra sections on the twist-1 surface: the Kodaira sweep's first
        # family (3, 1) raises on semicontinuity, and every other row still runs.
        original = pluricoh.hirzebruch.dim_enumerated

        def inflated(surface, k):
            value = original(surface, k)
            return value + 100 if surface.m == 1 else value

        monkeypatch.setattr(pluricoh.hirzebruch, "dim_enumerated", inflated)
        code, record = run_json(capsys, "selfcheck", "--budget", "3")
        assert code == 1
        rows = {row["check"]: row for row in record["results"]["rows"]}
        assert len(rows) == 12
        assert not rows["twist_one_formula_overcounts"]["passed"]
        assert not rows["enumeration_vs_lattice_walk"]["passed"]
        kodaira = rows["kodaira_family_jump_exists"]
        assert (kodaira["passed"], kodaira["cases"]) == (False, 1)
        assert kodaira["counterexample"] == "semicontinuity violated at k = 1: central 9 < general 109"


class TestOutputContract:
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_byte_identical_reruns(self, capsys, fmt):
        argv = ["blowup", "--generate", "generic", "--v", "6", "--seed", "3", "--format", fmt]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_json_round_trips(self, capsys):
        _, record = run_json(capsys, "family", "--kodaira", "--m", "5", "--ell", "1")
        assert json.loads(json.dumps(record)) == record

    def test_csv_column_order_is_stable(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "family", "--kodaira", "--m", "4", "--ell", "1", "--kmax", "2", "--format", "csv",
        )
        header, first_row = out.splitlines()[:2]
        assert header == (
            "k,h0_minus_kK_central,h0_minus_kK_general,"
            "h0_kp1K_central,h0_kp1K_general,"
            "h2_kp1K_central,h2_kp1K_general,"
            "h1_kp1K_central,h1_kp1K_general,jump"
        )
        assert first_row == "1,10,9,0,0,10,9,1,0,True"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "record.json"
        code, out, _ = run_cli(
            capsys,
            "hirzebruch", "--m", "4", "--k", "1", "--format", "json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        record = json.loads(target.read_text())
        assert record["results"]["dim_enumerated"] == 10

    def test_output_to_a_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "hirzebruch", "--m", "4", "--k", "1", "--output", str(tmp_path))
        _assert_usage_error(code, out, err)
        assert "Is a directory" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_numbers_above_the_digit_limit_are_usage_error(self, capsys, fmt):
        # h0 grows like k^2, so a 2,200-digit k prints numbers past 4,300 digits.
        code, out, err = run_cli(capsys, "hirzebruch", "--m", "4", "--k", "9" * 2200, "--format", fmt)
        _assert_usage_error(code, out, err)
        assert "digits" in err

    def test_json_leaves_no_cyclic_garbage(self, capsys):
        argv = ("hirzebruch", "--m", "4", "--k", "5", "--format", "json")
        # The first call builds the parser, which leaves cycles of its own.
        run_cli(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                assert run_cli(capsys, *argv)[0] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_usage_errors_from_argparse(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_help_and_version_exit_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "--version")[0] == 0


class TestParserReuse:
    def test_importing_the_cli_builds_no_parser(self):
        src = Path(pluricoh.cli.__file__).resolve().parents[1]
        code = f"import sys; sys.path.insert(0, {str(src)!r}); import pluricoh.cli as cli; assert cli._PARSER is None"
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_one_build_serves_every_call_and_leaks_no_state(self, capsys, monkeypatch):
        """Errors, --version and call order leave later outputs byte-identical to the corpus."""
        builds = []

        def counting(original=pluricoh.cli.build_parser):
            builds.append(None)
            return original()

        monkeypatch.setattr(pluricoh.cli, "_PARSER", None)
        monkeypatch.setattr(pluricoh.cli, "build_parser", counting)
        assert run_cli(capsys, "hirzebruch", "--m", "4", "--k", "1", "--basis")[0] == 0
        assert run_cli(capsys, "blowup", "--points", "F", "--generate", "generic")[0] == 2
        assert run_cli(capsys, "--version") == (0, f"pluricoh {pluricoh.__version__}\n", "")
        assert run_cli(capsys, "family", "--kodaira", "--m", "4", "--ell", "1")[0] == 0
        assert len(builds) == 1

        for entry in ENTRIES[::-1][::13]:
            assert _run(entry["argv"]) == (entry["exit"], entry["stdout"]), entry["argv"]
        assert len(builds) == 1


def _dumps(value) -> str:
    out = []
    pluricoh.cli._write_json(value, "", out)
    return "".join(out)


# Quotes, backslashes, control, non-ASCII, a lone surrogate and astral characters.
_TRICKY = st.sampled_from('"\\/\x00\x08\n\x1f\x7f\u00e9\u2028\ud800\U0001F600')
_LEAVES = st.one_of(
    st.text(st.one_of(_TRICKY, st.characters()), max_size=8),
    st.integers(),
    st.builds(lambda sign, low: sign * (10**3999 + low), st.sampled_from((1, -1)), st.integers(0, 10**20)),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from(([], (), {})),
)


def _containers(children, min_size=0, max_size=3):
    keys = st.text(st.one_of(_TRICKY, st.characters()), max_size=4)
    return st.one_of(
        st.lists(children, min_size=min_size, max_size=max_size),
        st.lists(children, min_size=min_size, max_size=max_size).map(tuple),
        st.dictionaries(keys, children, min_size=min_size, max_size=max_size),
    )


# Three nonempty levels over recursively nested containers and leaves.
_NESTED = _containers(_containers(_containers(st.recursive(_LEAVES, _containers, max_leaves=4), 1, 2), 1, 2), 1, 2)


class TestJsonWriter:
    """`render`'s writer against the stdlib encoder it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(_NESTED)
    def test_matches_json_dumps_with_indent_2(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    def test_an_unserializable_leaf_raises_type_error_as_json_dumps(self):
        value = {"results": [1, {"x": Fraction(1, 2)}]}
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as raised:
            _dumps(value)
        assert str(raised.value) == str(expected.value)


def _resolve(argv: list[str]) -> list[str]:
    return [str(DATA / arg[1:]) if arg.startswith("@") else arg for arg in argv]


_PARSE_CORPUS = [entry["argv"] for entry in ENTRIES] + [
    ["hirzebruch", "--m", "4", "--k", "1", "--no-such-option"],
    ["hirzebruch", "--m", "4", "--k", "1", "extra"],
    ["hirzebruch", "--m", "4", "--k", "1", "--form", "json"],
    ["hirzebruch", "--m", "4", "--k", "1", "--fo=json"],
    ["hirzebruch", "--m", "4", "--k", "-1"],
    ["hirzebruch", "--m", "4"],
    ["blowup", "--generate", "grid", "--v", "3"],
    ["blowup", "--generate", "generic", "--ver", "3"],
    ["family", "--kodaira", "--m", "4", "--ell", "1", "--s", "collinear"],
    ["hirzebruch", "-h"],
    ["hirzebruch", "--version"],
    ["blowup", "--version"],
    ["--seed", "7", "hirzebruch", "--m", "4", "--k", "1"],
    ["hirzebruch", "--", "--m", "4", "--k", "1"],
    ["--"],
    [],
    ["-h"],
    ["--version"],
    ["no-such-command"],
]


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
def test_parse_matches_the_top_level_parser(capsys, monkeypatch, argv):
    """Parsing a command with its own parser prints and exits exactly as `build_parser().parse_args`."""
    argv = _resolve(argv)
    shipped = run_cli(capsys, *argv)
    monkeypatch.setattr(pluricoh.cli, "_parse_args", lambda args: pluricoh.cli.build_parser().parse_args(args))
    assert run_cli(capsys, *argv) == shipped
