"""Command-line front end: reproducible dimension tables with explicit provenance.

Every command emits one output record (human table by default, JSON or CSV
on request) carrying the echoed parameters, the computed numbers, and a
provenance entry naming the computation path behind each number.  All
randomness flows from an explicit --seed, so identical invocations produce
byte-identical output.

Exit codes: 0 success; 1 a failed check, in one of two forms: a record whose
last warnings start with "cross-check failed:" (a closed form against its
second route, the h1(2K) window, --expect-jump with no jump found, a failing
selfcheck), or one "error:" line and no stdout when a library check raises
RuntimeError (a SamplingBudgetError, a semicontinuity violation in a
family report, or Riemann-Roch refusing a negative h1); 2 usage, parse or
output error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .blowup import (
    blowup_row,
    generate_configuration,
    h0_blowup,
    h1_2K_range,
    jet_shape,
    monomial_count,
    parse_point_file,
)
# Unused here; perfbench/tests checks that its tracer wraps this binding too.
from .exact_linalg import rank  # noqa: F401
from .family import (
    FiberReportRow,
    KodairaFamily,
    noninvariance_report_blowup,
    noninvariance_report_hirzebruch,
)
from .hirzebruch import (
    HirzebruchSurface,
    RegimeError,
    dim_formula,
    h1_pluricanonical_formula,
    hirzebruch_row,
    section_basis,
)
from .selfcheck import run_selfcheck
from .surface_invariants import PROV_ENUMERATION, PROV_FORMULA, PROV_INPUT, PROV_RANK, CohomologyRow

EXIT_OK = 0
EXIT_CROSSCHECK = 1
EXIT_USAGE = 2

# Largest k for `hirzebruch --basis`, which lists up to 2k+1 terms (the
# count itself has no cap: it is constant time in k).
BASIS_MAX_K = 10**4

# Largest `family --kodaira --kmax`: 10^4 rows take about 0.5 s and 3.4 MB of JSON.
FAMILY_MAX_KMAX = 10**4

# Largest `selfcheck --budget`: about 2.5 s at 50, doubling with every 10 above 30;
# most of it is the lattice-walk oracle, count_sections_by_lattice_points.
SELFCHECK_MAX_BUDGET = 50

# Largest blow-up jet matrix, in cells (rows x cols).  The slowest stock kind
# below it is on_conic: v = 9, k = 6 (35,910 cells) takes about 0.19 s on a
# 2-CPU host.  Its rank is taken on 126 x 127 rows of the six points left after
# three go to the coordinate points; the rank, 88, fails on the rows at two
# primes and is certified on the columns with five.  on_conic v = 7, k = 7
# (49,588 cells) takes about 0.16 s and generic v = 20, k = 5 (40,800 cells)
# about 0.1 s.  All are whole processes, min of 9, interpreter start included.
JET_MAX_CELLS = 5 * 10**4

# Largest point-file dimension n.  Above it one point at k = 1 already
# exceeds JET_MAX_CELLS (n = 6: 210 x 1,716), so such a file is refused
# before any binomial coefficient of its n is formed.
JET_MAX_DIMENSION = next(n for n in itertools.count(1) if math.prod(jet_shape(n + 1, 1, 1)) > JET_MAX_CELLS)

# Output column of each cohomology-row field in a family report, at general k and at k = 1.
_COLUMNS = {name: name for name in ("h0_minus_kK", "h0_kp1K", "h2_kp1K", "h1_kp1K")}
_K1_COLUMNS = {"h0_minus_kK": "h0_minus_K", "h0_kp1K": "h0_2K", "h2_kp1K": "h2_2K", "h1_kp1K": "h1_2K"}


@dataclass
class OutputRecord:
    command: str
    parameters: dict
    results: dict = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    # Failed cross-checks: rendered after the warnings, and any one makes `main` exit 1.
    failures: list[str] = field(default_factory=list)

    def put(self, key: str, value, tag: str | None = None) -> None:
        """Report one result; `tag` names the computation path behind a number."""
        self.results[key] = value
        if tag is not None:
            self.provenance[key] = tag

    def put_row(self, row: CohomologyRow, names: dict[str, str]) -> None:
        """Report row fields under output names, each with the row's own tag."""
        for column, key in names.items():
            self.put(key, getattr(row, column), row.provenance[column])

    def put_rows(self, rows: list[dict], **tags: str) -> None:
        """Report a table; `tags` gives the provenance of its numeric columns."""
        self.results["rows"] = rows
        self.provenance.update(tags)


def render(record: OutputRecord, fmt: str) -> str:
    warnings = record.warnings + [f"cross-check failed: {failure}" for failure in record.failures]
    if fmt == "json":
        # The schema's five keys: failures reach JSON only as warnings.
        fields = {key: getattr(record, key) for key in ("command", "parameters", "results", "provenance")}
        return json.dumps({**fields, "warnings": warnings}, indent=2) + "\n"
    # A nonempty rows table, and the rest of the results: CSV prints only the
    # table when there is one, else the rest that is not a list.
    results = dict(record.results)
    rows = results.pop("rows") if results.get("rows") else []
    if fmt == "csv":
        table = rows or [{key: value for key, value in results.items() if not isinstance(value, list)}]
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(table[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)
        return buffer.getvalue()
    lines = [f"{record.command}  " + " ".join(f"{k}={v}" for k, v in record.parameters.items())]
    if rows:
        headers = list(rows[0])
        cells = [headers] + [[str(row[h]) for h in headers] for row in rows]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines += ["  ".join(cell.rjust(width) for cell, width in zip(line, widths)) for line in cells]
    lines += [f"{key} = {value}" for key, value in results.items()]
    lines += [f"warning: {warning}" for warning in warnings]
    return "\n".join(lines) + "\n"


def _check_cap(option: str, value: int, cap: int, size: str) -> None:
    """Reject a value above its cap; `size` says what that value would have produced."""
    if value > cap:
        raise ValueError(f"{option} is capped at {cap}: {size}")


def cmd_hirzebruch(args: argparse.Namespace) -> OutputRecord:
    if args.m < 0:
        raise ValueError("--m must be nonnegative")
    if args.k < 1:
        raise ValueError("--k must be positive")
    if args.basis:
        _check_cap("--basis k", args.k, BASIS_MAX_K, f"k = {args.k} would list up to 2k+1 = {2 * args.k + 1} terms")
    surface = HirzebruchSurface(args.m)
    record = OutputRecord("hirzebruch", {"m": args.m, "k": args.k, "basis": bool(args.basis)})

    row = hirzebruch_row(surface, args.k)
    enum = row.h0_minus_kK
    record.put_row(row, {"h0_minus_kK": "dim_enumerated"})

    if args.m >= 1:
        evaluated = dim_formula(surface, args.k)
        record.put("dim_formula", evaluated.value, PROV_FORMULA)
        record.put("formula_in_regime", evaluated.in_regime)
        if not evaluated.in_regime:
            record.warnings.append(
                f"closed formula out of regime at m={args.m}: value {evaluated.value} "
                f"overcounts enumeration {enum}; enumeration is ground truth"
            )
        elif evaluated.value != enum:
            record.failures.append(f"closed formula {evaluated.value} != enumeration {enum} in regime")
    else:
        record.warnings.append("product surface (m = 0): closed formula undefined, enumeration only")

    # h2(kK) and h1(kK) are columns of the row of the previous power.
    previous = hirzebruch_row(surface, args.k - 1)
    record.put_row(previous, {"h2_kp1K": "h2_kK", "h1_kp1K": "h1_kK_rr_chain"})
    try:
        h1_closed = h1_pluricanonical_formula(surface, args.k)
        record.put("h1_kK_closed_form", h1_closed, PROV_FORMULA)
        if h1_closed != previous.h1_kp1K:
            record.failures.append(f"h1 closed form {h1_closed} != Riemann-Roch chain {previous.h1_kp1K}")
    except RegimeError:
        record.warnings.append("closed h1 form out of regime; reporting the Riemann-Roch chain value only")

    if args.basis:
        basis = section_basis(surface, args.k)
        dimension = sum(bound + 1 for _, bound in basis)
        record.put("section_basis", [[i, bound] for i, bound in basis], PROV_ENUMERATION)
        record.put("section_basis_dimension", dimension, PROV_ENUMERATION)
        if dimension != enum:
            record.failures.append(f"basis dimension {dimension} != enumeration {enum}")
    return record


def _refuse(args: argparse.Namespace, choice: str, *names: str) -> None:
    """Reject the given options that `choice` (a source or mode) would ignore."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{' and '.join(given)} cannot be used with {choice}")


def _load_configuration(path: str | None, kind: str | None, v: int | None, seed: int, k: int):
    """A configuration from a point file or of a stock kind, with its row at power k (None off the plane)."""
    n = 2
    if path:
        if v is not None:
            raise ValueError("--v cannot be used with a point file")
        config = parse_point_file(Path(path).read_text())
        n, v = config.n, config.v
        size = f"one point with n = {n} coordinates at k = 1 already exceeds {JET_MAX_CELLS} jet matrix cells"
        _check_cap("point dimension n", n, JET_MAX_DIMENSION, size)
    elif v is None:
        raise ValueError(f"a {kind} configuration requires --v")
    # Capped before sampling or building.
    rows, cols = jet_shape(n, v, k)
    cells = rows * cols
    if cells > JET_MAX_CELLS:
        # Compared before formatting: a huge k gives a shape too long to print.
        shape = f"{rows} x {cols} = {cells}" if cells < 10**18 else "at least 10^18 cells"
        _check_cap("jet matrix rows x cols", cells, JET_MAX_CELLS, f"v = {v}, k = {k} gives {shape}")
    if path:
        return config, blowup_row(config, k) if n == 2 else None
    return generate_configuration(kind, v, seed=seed, k=k)


def cmd_blowup(args: argparse.Namespace) -> OutputRecord:
    if args.k < 1:
        raise ValueError("--k must be positive")
    config, row = _load_configuration(args.points, args.generate, args.v, args.seed, args.k)
    generated = {"generate": args.generate, "v": args.v, "seed": args.seed}
    source = {"points_file": args.points} if args.points else generated
    h0 = row.h0_minus_kK if row else h0_blowup(config, args.k)
    count = monomial_count(config.n, args.k)

    points = [[str(c) for c in point] for point in config.points]
    record = OutputRecord("blowup", {"k": args.k, **source, "points": points})
    record.put("v", config.v, PROV_INPUT)
    record.put("n", config.n, PROV_INPUT)
    record.put("monomial_count", count, PROV_ENUMERATION)
    record.put("jet_rank", count - h0, PROV_RANK)
    record.put("h0_minus_kK", h0, PROV_RANK)
    if row and args.k == 1:
        record.put_row(row, {"h2_kp1K": "h2_2K", "h1_kp1K": "h1_2K"})
        low, high = h1_2K_range(config.v)
        if not low <= row.h1_kp1K <= high:
            record.failures.append(f"h1(2K) = {row.h1_kp1K} outside the admissible range [{low}, {high}]")
    return record


def _report_columns(
    report: FiberReportRow, columns: dict[str, str], fibers: tuple[str, str], **inputs: int
) -> tuple[dict, dict[str, str]]:
    """A family report row flattened to ``<column>_<fiber>`` keys, and their provenance tags.

    The `inputs` lead the values, tagged as input; the jump flag ends them.
    """
    values: dict = dict(inputs)
    tags = dict.fromkeys(inputs, PROV_INPUT)
    for name, column in columns.items():
        for fiber, row in zip(fibers, (report.central, report.general)):
            values[f"{column}_{fiber}"] = getattr(row, name)
            tags[f"{column}_{fiber}"] = row.provenance[name]
    values["jump"] = report.jump
    return values, tags


def cmd_family(args: argparse.Namespace) -> OutputRecord:
    if args.kodaira:
        if args.m is None or args.ell is None:
            raise ValueError("--kodaira requires --m and --ell")
        _refuse(args, "--kodaira", "special", "special_file", "v")
        kmax = 3 if args.kmax is None else args.kmax
        _check_cap("--kmax", kmax, FAMILY_MAX_KMAX, f"kmax = {kmax} would tabulate {kmax} rows")
        rows = noninvariance_report_hirzebruch(KodairaFamily(args.m, args.ell), kmax)
        jump_found = any(row.jump for row in rows)
        record = OutputRecord("family", {"mode": "kodaira", "m": args.m, "ell": args.ell, "kmax": kmax})
        table = [_report_columns(row, _COLUMNS, ("central", "general"), k=row.k) for row in rows]
        record.put_rows([values for values, _ in table], **table[0][1])
        record.put("jump_found", jump_found)
    else:
        if not (args.special or args.special_file):
            raise ValueError("--blowup requires --special or --special-file")
        _refuse(args, "--blowup", "m", "ell", "kmax")
        config, row = _load_configuration(args.special_file, args.special, args.v, args.seed, 1)
        if row is None:
            raise ValueError("family reports are implemented for blow-ups of the plane only")
        source = {"special_file": args.special_file} if args.special_file else {"special": args.special, "v": args.v}
        report = noninvariance_report_blowup((config, row), generic_seed=args.seed)
        jump_found = report.jump
        v = config.v
        parameters = {"mode": "blowup", **source, "seed": args.seed}
        record = OutputRecord(
            "family", parameters, *_report_columns(report, _K1_COLUMNS, ("special", "generic"), v=v)
        )
        if v == 5 and report.jump:
            record.warnings.append(
                "boundary case: the jump already appears at v = 5, "
                "the smallest point count where position matters"
            )

    if args.expect_jump and not jump_found:
        record.failures.append("--expect-jump set but no jump found")
    return record


def cmd_selfcheck(args: argparse.Namespace) -> OutputRecord:
    if args.budget < 0:
        raise ValueError("--budget must be nonnegative")
    budget = args.budget
    size = f"budget = {budget} would sweep twists up to {budget + 2} and {4 * budget} random cases per check"
    _check_cap("--budget", budget, SELFCHECK_MAX_BUDGET, size)
    checks = run_selfcheck(args.budget, seed=args.seed)
    rows = [
        {
            "check": result.name,
            "passed": result.passed,
            "cases": result.cases,
            "counterexample": result.counterexample or "",
        }
        for result in checks
    ]
    failed = [result for result in checks if not result.passed]
    record = OutputRecord("selfcheck", {"budget": args.budget, "seed": args.seed})
    record.put_rows(rows, cases=PROV_ENUMERATION)
    record.put("checks_run", len(checks), PROV_ENUMERATION)
    record.put("all_passed", not failed)
    if args.budget == 0:
        record.warnings.append("budget 0: empty suite, nothing was verified")
    if failed:
        record.failures.append(f"{failed[0].name}: {failed[0].counterexample}")
    return record


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness (default: 0)")
    common.add_argument("--output", metavar="FILE", help="write output to FILE instead of stdout")

    parser = argparse.ArgumentParser(
        prog="pluricoh",
        description="Exact cohomology dimensions for anticanonical and pluricanonical "
        "bundles on ruled surfaces and plane blow-ups.",
    )
    parser.add_argument("--version", action="version", version=f"pluricoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hirzebruch", parents=[common], help="section and cohomology counts on a twisted ruled surface")
    p.add_argument("--m", type=int, required=True, help="twist of the surface (m >= 0)")
    p.add_argument("--k", type=int, required=True, help="anticanonical power (k >= 1)")
    p.add_argument("--basis", action="store_true", help=f"include the section basis description (k <= {BASIS_MAX_K})")

    p = sub.add_parser("blowup", parents=[common], help="section counts on a blow-up of the plane")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--points", metavar="FILE", help="point file: one point per line, rational coordinates")
    source.add_argument("--generate", choices=("generic", "collinear", "on_conic"), help="generate a stock configuration")
    p.add_argument("--v", type=int, help="number of points for --generate")
    p.add_argument("--k", type=int, default=1, help="anticanonical power (default: 1)")

    p = sub.add_parser("family", parents=[common], help="non-invariance table across a deformation family")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--kodaira", action="store_true", help="twisted ruled surface family")
    mode.add_argument("--blowup", action="store_true", help="plane blow-up family")
    p.add_argument("--m", type=int, help="central-fiber twist (kodaira mode)")
    p.add_argument("--ell", type=int, help="twist drop parameter, 2*ell <= m (kodaira mode)")
    p.add_argument("--kmax", type=int, help=f"number of power rows, kodaira mode (default: 3; at most {FAMILY_MAX_KMAX})")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--special", choices=("collinear", "on_conic"), help="special configuration kind (blowup mode)")
    source.add_argument("--special-file", metavar="FILE", help="special configuration from a point file (blowup mode)")
    p.add_argument("--v", type=int, help="number of points for --special")
    p.add_argument("--expect-jump", action="store_true", help="exit 1 if no jump is found")

    p = sub.add_parser("selfcheck", parents=[common], help="run the internal cross-check suite")
    p.add_argument(
        "--budget", type=int, default=10,
        help=f"sweep size control (default: 10; 0 runs nothing; at most {SELFCHECK_MAX_BUDGET})",
    )

    return parser


_COMMANDS = {
    "hirzebruch": cmd_hirzebruch,
    "blowup": cmd_blowup,
    "family": cmd_family,
    "selfcheck": cmd_selfcheck,
}


# The parser `main` builds on its first call and reuses for every later one.
# It is filled lazily, not at import, because a build costs about 1 ms and
# importing this module should not pay it.  It is a plain global rather than a
# functools cache on `build_parser`: a decorated function carries `__wrapped__`,
# which perfbench's untraced run reads as a tracer left installed.  Parsing
# keeps no state in the parser, and every default is immutable.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        record = _COMMANDS[args.command](args)
        # Rendering fails on a number above Python's int-to-str digit limit,
        # writing on a bad --output path: both are usage errors.
        text = render(record, args.format)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_CROSSCHECK if record.failures else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
