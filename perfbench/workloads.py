"""The benchmark's workloads: fixed case lists whose inputs come from a seed.

The seed reaches pluricoh in two ways: as the CLI's ``--seed`` (the generic
sampler, the family report's generic side and selfcheck draw from it), and
through the point files written here.  Each point file is a seeded,
invertible integer affine image of a fixed special configuration (a signed
permutation of the coordinates plus a translation), with its points
shuffled.  An invertible affine change of coordinates maps the
polynomials of degree <= d onto themselves and keeps every vanishing order,
so h0 is the same for every seed while the matrices pluricoh ranks are not.
"""

from __future__ import annotations

import random
from pathlib import Path

import golden
from harness import Case

GENERIC_CASES = ((8, 3), (9, 3), (12, 3), (16, 3), (9, 4))

SPECIAL_CASES = (
    [(kind, v, k) for kind in ("collinear", "on_conic") for v in (5, 8, 12) for k in (2, 3)]
    + [("grid", 9, k) for k in (1, 2, 3, 4)]
    + [("twisted_cubic", 4, 1), ("twisted_cubic", 6, 1), ("twisted_cubic", 8, 1)]
    + [("twisted_cubic", 3, 2), ("twisted_cubic", 5, 2)]
)

HIRZEBRUCH_BIG_K = 10**5


def _cli(case_id: str, argv: list[str], seed: int, expected: dict) -> Case:
    return Case(case_id, "cli", tuple(argv + ["--format", "json", "--seed", str(seed)]), expected)


def _special_points(kind: str, v: int) -> list[tuple[int, ...]]:
    if kind == "collinear":
        return [(i, 0) for i in range(1, v + 1)]
    if kind == "on_conic":
        return [(i, i * i) for i in range(1, v + 1)]
    if kind == "grid":
        return [(x, y) for x in range(3) for y in range(3)]
    if kind == "twisted_cubic":
        return [(t, t * t, t**3) for t in range(1, v + 1)]
    raise ValueError(f"unknown configuration {kind!r}")


def _affine_image(points: list[tuple[int, ...]], rng: random.Random) -> list[tuple[int, ...]]:
    # A signed permutation of the coordinates plus a small translation keeps
    # the entry sizes, and with them the work, nearly the same for every seed.
    n = len(points[0])
    order = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    shift = [rng.randint(-2, 2) for _ in range(n)]
    image = [tuple(signs[i] * p[order[i]] + shift[i] for i in range(n)) for p in points]
    rng.shuffle(image)
    return image


def _point_file(inputs: Path, seed: int, case_id: str, points: list[tuple[int, ...]]) -> Path:
    image = _affine_image(points, random.Random(f"{seed}:{case_id}"))
    path = inputs / f"{case_id}.txt"
    path.write_text("".join(" ".join(map(str, p)) + "\n" for p in image))
    return path


def generic_elimination(seed: int, inputs: Path) -> list[Case]:
    return [
        _cli(
            f"blowup-generic-v{v}-k{k}",
            ["blowup", "--generate", "generic", "--v", str(v), "--k", str(k)],
            seed,
            golden.blowup_record(2, v, k, golden.h0_generic_plane(v, k)),
        )
        for v, k in GENERIC_CASES
    ]


def special_structure(seed: int, inputs: Path) -> list[Case]:
    cases = []
    for kind, v, k in SPECIAL_CASES:
        case_id = f"blowup-{kind}-v{v}-k{k}"
        points = _special_points(kind, v)
        h0 = golden.h0_grid(k) if kind == "grid" else golden.CAPTURED_H0[kind, v, k]
        path = _point_file(inputs, seed, case_id, points)
        expected = golden.blowup_record(len(points[0]), v, k, h0)
        cases.append(_cli(case_id, ["blowup", "--points", str(path), "--k", str(k)], seed, expected))
    return cases


def interactive_mix(seed: int, inputs: Path) -> list[Case]:
    cases = []
    for m in range(1, 8):
        for k in (1, 5, 50):
            cases.append(
                _cli(
                    f"hirzebruch-m{m}-k{k}",
                    ["hirzebruch", "--m", str(m), "--k", str(k), "--basis"],
                    seed,
                    golden.hirzebruch_record(m, k, basis=True),
                )
            )
    cases.append(
        _cli(
            f"hirzebruch-m4-k{HIRZEBRUCH_BIG_K}",
            ["hirzebruch", "--m", "4", "--k", str(HIRZEBRUCH_BIG_K)],
            seed,
            golden.hirzebruch_record(4, HIRZEBRUCH_BIG_K, basis=False),
        )
    )
    for kind in ("generic", "collinear", "on_conic"):
        for v in range(5, 13):
            cases.append(
                _cli(
                    f"blowup-{kind}-v{v}-k1",
                    ["blowup", "--generate", kind, "--v", str(v)],
                    seed,
                    golden.blowup_record(2, v, 1, golden.h0_plane_k1(kind, v)),
                )
            )
    for m, ell, kmax in ((4, 1, 3), (7, 3, 6)):
        cases.append(
            _cli(
                f"family-kodaira-m{m}-ell{ell}",
                ["family", "--kodaira", "--m", str(m), "--ell", str(ell), "--kmax", str(kmax)],
                seed,
                golden.kodaira_family_record(m, ell, kmax),
            )
        )
    for special, v in (("collinear", 5), ("on_conic", 9)):
        cases.append(
            _cli(
                f"family-blowup-{special}-v{v}",
                ["family", "--blowup", "--special", special, "--v", str(v)],
                seed,
                golden.blowup_family_record(special, v),
            )
        )
    cases.append(_cli("selfcheck", ["selfcheck"], seed, golden.selfcheck_record()))
    for v in range(5, 13):
        cases.append(
            Case(f"achievable_dims-v{v}", "achievable_dims", (v, seed), golden.achievable_dims_record(v))
        )
    return cases


CASE_LISTS = {
    "generic_elimination": generic_elimination,
    "special_structure": special_structure,
    "interactive_mix": interactive_mix,
}


def build(workload: str, seed: int, inputs: Path) -> list[Case]:
    """The workload's case list; point files are written under `inputs`."""
    inputs.mkdir(parents=True, exist_ok=True)
    return CASE_LISTS[workload](seed, inputs)
