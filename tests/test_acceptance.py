"""Acceptance suite.

One test per criterion, asserted exactly (all arithmetic is exact, so the
tolerance is zero everywhere) and one printed PASS line per criterion; run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  On
failure, pytest's own report is the FAIL line.

Derived expectations are re-checked here against the independent oracles
(naive integer elimination, lattice walks), never against the code path
under test.
"""

import random
from fractions import Fraction

import pytest

from pluricoh.blowup import (
    PointConfiguration,
    achievable_dims,
    blowup_row,
    generate_configuration,
    h0_blowup,
    jet_matrix,
)
from pluricoh.exact_linalg import rank
from pluricoh.family import (
    KodairaFamily,
    noninvariance_report_blowup,
    noninvariance_report_hirzebruch,
)
from pluricoh.hirzebruch import (
    HirzebruchSurface,
    dim_enumerated,
    dim_formula,
    h1_pluricanonical_formula,
)
from pluricoh.selfcheck import count_sections_by_lattice_points, naive_rank
from pluricoh.surface_invariants import (
    h1_from_rr,
    invariants_blowup_p2,
    invariants_hirzebruch,
)

TWIST_RANGE = range(2, 13)
POWER_RANGE = range(1, 11)


def _report(criterion: int, message: str) -> None:
    print(f"acceptance criterion {criterion:02d}: PASS - {message}")


@pytest.fixture(scope="module")
def forced_corpus():
    """100 seeded random configurations of at most four distinct rational points."""
    configs = []
    for index in range(100):
        v = index % 4 + 1
        rng = random.Random(f"acceptance-forced:{index}")
        points: set[tuple[Fraction, Fraction]] = set()
        while len(points) < v:
            points.add(
                (
                    Fraction(rng.randint(-90, 90), rng.randint(1, 16)),
                    Fraction(rng.randint(-90, 90), rng.randint(1, 16)),
                )
            )
        configs.append(PointConfiguration(n=2, points=tuple(sorted(points))))
    return configs


@pytest.fixture(scope="module")
def witness_corpus():
    """Achievable-dimension witnesses plus stock configurations, v = 5..12."""
    corpus = {}
    for v in range(5, 13):
        corpus[v] = {
            "witnesses": achievable_dims(v, seed=v),
            "collinear": generate_configuration("collinear", v)[0],
            "generic": generate_configuration("generic", v, seed=100 + v)[0],
        }
    return corpus


def test_criterion_01_hirzebruch_formula_vs_oracle():
    checked = 0
    for m in TWIST_RANGE:
        surface = HirzebruchSurface(m)
        for k in POWER_RANGE:
            evaluated = dim_formula(surface, k)
            assert evaluated.in_regime, (m, k)
            assert evaluated.value == dim_enumerated(surface, k), (m, k)
            checked += 1
    assert checked == 110
    _report(1, "closed formula = enumeration with in_regime on all 110 pairs")


def test_criterion_02_formula_regime_boundary():
    surface = HirzebruchSurface(1)
    for k in POWER_RANGE:
        enumerated = dim_enumerated(surface, k)
        evaluated = dim_formula(surface, k)
        assert enumerated == (2 * k + 1) ** 2, k
        assert not evaluated.in_regime, k
        assert evaluated.value > enumerated, k
        # The overshoot must equal the computed phantom-index contribution.
        q = (2 * k) // 1
        phantom = sum(max(0, 2 * k - j * 1 + 1 - k * 1) for j in range(1, q - k + 1))
        assert evaluated.value - enumerated == phantom, k
    _report(2, "twist-1 formula overcounts enumeration by the phantom-index sum, flagged out of regime")


def test_criterion_03_h1_closed_form_consistency():
    checked = 0
    inv = invariants_hirzebruch(0)
    assert (inv.K2, inv.chi_top, inv.chi_O) == (8, 4, 1)
    for m in TWIST_RANGE:
        surface = HirzebruchSurface(m)
        for k in range(2, 11):
            chained = h1_from_rr(k, 0, dim_enumerated(surface, k - 1), inv)
            assert h1_pluricanonical_formula(surface, k) == chained, (m, k)
            checked += 1
    assert checked == 99
    _report(3, "h1 closed form = Riemann-Roch chain on all 99 in-regime pairs")


def test_criterion_04_noether_exactness():
    for m in range(0, 13):
        inv = invariants_hirzebruch(m)
        assert inv.K2 + inv.chi_top == 12 * inv.chi_O, m
    for v in range(0, 13):
        inv = invariants_blowup_p2(v)
        assert inv.K2 + inv.chi_top == 12 * inv.chi_O, v
    _report(4, "K^2 + chi_top = 12 chi(O) exactly for all twists and point counts")


def test_criterion_05_blowup_forced_regime(forced_corpus):
    assert len(forced_corpus) == 100
    for config in forced_corpus:
        assert h0_blowup(config, 1) == 10 - config.v, config
    _report(5, "100 random configurations with v <= 4 all give h0(-K) = 10 - v")


def test_criterion_06_achievable_dimension_witnesses(witness_corpus):
    for v, data in witness_corpus.items():
        expected_dims = list(range(max(10 - v, 0), 7))
        assert [dim for dim, _ in data["witnesses"]] == expected_dims, v
        for dim, config in data["witnesses"]:
            assert config.v == v
            # Certify each witness through the independent elimination route.
            assert 10 - naive_rank(jet_matrix(config.n, config.lifts, 1).matrix) == dim, (v, dim)
        assert h0_blowup(data["collinear"], 1) == 6, v
        assert h0_blowup(data["generic"], 1) == max(10 - v, 0), v
    _report(6, "witnesses found and certified for every dimension in [max(10-v,0), 6], v = 5..12")


def test_criterion_07_h1_2K_range(forced_corpus, witness_corpus):
    for config in forced_corpus:
        assert blowup_row(config, 1).h1_kp1K == 0, config
    for v, data in witness_corpus.items():
        configurations = [config for _, config in data["witnesses"]]
        configurations.append(data["collinear"])
        configurations.append(data["generic"])
        for config in configurations:
            value = blowup_row(config, 1).h1_kp1K
            assert max(0, v - 10) <= value <= v - 4, (v, value)
    _report(7, "h1(2K) = 0 for v <= 4 and within [max(0, v-10), v-4] for v = 5..12")


def test_criterion_08_kodaira_family_headline():
    rows = noninvariance_report_hirzebruch(KodairaFamily(m=4, ell=1), k_max=3)
    assert rows[0].central.h2_kp1K == 10
    assert rows[0].general.h2_kp1K == 9
    for row in rows:
        assert row.jump, row
        assert row.central.h0_kp1K == 0 and row.general.h0_kp1K == 0, row
        assert row.central.h2_kp1K >= row.general.h2_kp1K, row
    _report(8, "twist-4 family: h2(2K) jumps 10 vs 9, plurigenera constant 0, semicontinuity holds")


def test_criterion_09_blowup_family_headline():
    report = noninvariance_report_blowup(generate_configuration("collinear", 5))
    assert (report.central.h2_kp1K, report.general.h2_kp1K) == (6, 5)
    assert (report.central.h1_kp1K, report.general.h1_kp1K) == (1, 0)
    assert report.jump
    _report(9, "five collinear vs generic points: h2(2K) 6 vs 5, h1(2K) 1 vs 0")


def test_criterion_10_oracle_redundancy(forced_corpus, witness_corpus):
    jets = [jet_matrix(config.n, config.lifts, 1).matrix for config in forced_corpus[:40]]
    for data in witness_corpus.values():
        configs = [config for _, config in data["witnesses"]] + [data["collinear"]]
        jets.extend(jet_matrix(config.n, config.lifts, 1).matrix for config in configs)
    for kind, v, seed in [("collinear", 12, 0), ("on_conic", 8, 0), ("generic", 12, 5)]:
        config = generate_configuration(kind, v, seed=seed)[0]
        jets.append(jet_matrix(config.n, config.lifts, 2).matrix)
    assert max((m.rows, m.cols) for m in jets) == (36, 28)
    for matrix in jets:
        assert rank(matrix) == naive_rank(matrix), (matrix.rows, matrix.cols)
    for m in range(0, 13):
        surface = HirzebruchSurface(m)
        for k in range(0, 11):
            assert dim_enumerated(surface, k) == count_sections_by_lattice_points(m, k), (m, k)
    _report(
        10,
        f"production rank = naive elimination on {len(jets)} jet matrices; "
        "enumeration = lattice walk on the full sweep",
    )
