"""Command-line interface.

Exit codes: 0 success, 1 domain error (bad mathematical input, failed solve)
or an output pipe closed by its reader (nothing is written to stderr then),
2 failed validation suite, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Sequence

from taulap.bell import reciprocal_coefficient, resolvent_coefficient
from taulap.boundary import (
    correlator,
    evaluate_correlator,
    generic_moments,
    lambda_exponent,
)
from taulap.laplacian import free_energy, tau_intersection
from taulap.ring import (
    RingError,
    UnknownVariable,
    ZLaurent,
    format_rational,
    render_str,
    render_terms,
    render_z,
)
from taulap.spectral import SpectralError, SpectralModel, solve

USAGE_EXIT = 64
CHECK_EXIT = 2
# Largest genus that --gmax, --genus and the indices of tau reach: the chain's
# cost roughly triples per genus; fg --gmax 12 takes about 2.2 s and 73 MB and
# fg --gmax 14 about 12-16 s and 226 MB (2 vCPUs, CPython 3.11).
MAX_GENUS = 14
# The most boundaries a correlator may have at genus g = 0..MAX_GENUS: the largest
# correlator --boundaries, and the most groups npoint --groups and model --eval
# may list (each group is a boundary). A correlator's written-out keys grow
# about fourfold per boundary and its peak RSS with them. Measured on the
# correlator command (2 vCPUs, CPython 3.11): every admitted pair peaks at 643 MB
# or less ((5, 7) 642 MB; (0, 12) takes about 1.2 s and 163 MB, (1, 11) about
# 3.9 s and 370 MB), and every pair one boundary further peaked at 679 MB or
# more ((8, 5)) or ran out of a 1.5 GB address space ((1, 12)) when the table
# was set.
MAX_BOUNDARIES = (12, 11, 9, 8, 7, 7, 6, 5, 4, 4, 3, 3, 2, 2, 1)
# Largest coeffs --mmax: R_m and S_m have a term per partition of m, and
# coeffs --mmax 40 takes about 3 s for S and 2.5 s for R.
MAX_MMAX = 40
# Most digits a number in npoint --groups, --moments and --coupling or model
# --eval may have, counting the size of its exponent: exact arithmetic on
# longer numbers is slow, and soon passes Python's int-to-str limit.
MAX_LITERAL_DIGITS = 100
# Largest model --lmax: each moment is one pass over the levels, and --lmax 100
# on a model of 100,001 levels (the generator's ceiling) takes about 5 s.
MAX_LMAX = 100


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fraction(value: object) -> Fraction:
    if isinstance(value, float):
        value = str(value)
    if not isinstance(value, str):
        raise RingError(f"cannot interpret {value!r} as a rational number")
    # the digits the literal is written with plus the size of its decimal exponent
    digits = sum(c.isdecimal() for c in value)
    _, marker, exponent = value.lower().partition("e")
    if marker and digits <= MAX_LITERAL_DIGITS:
        try:
            digits += abs(int(exponent))
        except ValueError:
            pass  # not a literal; Fraction says why
    if digits > MAX_LITERAL_DIGITS:
        shown = value if len(value) <= 24 else value[:20] + "..."
        raise RingError(f"number {shown!r} has more than {MAX_LITERAL_DIGITS} digits")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise RingError(f"bad rational literal {value!r}: {exc}") from exc


def _json(text: str, option: str) -> object:
    # integers stay strings, so that _fraction bounds them before one is built
    try:
        return json.loads(text, parse_int=str)
    except json.JSONDecodeError as exc:
        raise RingError(f"{option} must be JSON: {exc}") from exc


def _parse_groups(text: str, option: str = "--groups") -> list[list[Fraction]]:
    raw = _json(text, option)
    if not isinstance(raw, list) or not raw or not all(isinstance(g, list) and g for g in raw):
        raise RingError(f"{option} must be a nonempty list of nonempty lists")
    return [[_fraction(v) for v in grp] for grp in raw]


def _parse_moments(text: str) -> dict[int, Fraction]:
    raw = _json(text, "--moments")
    if not isinstance(raw, dict):
        raise RingError("--moments must be a JSON object of index: value")
    out: dict[int, Fraction] = {}
    for key, value in raw.items():
        try:
            index = int(key)
        except ValueError as exc:
            raise RingError(f"bad moment index {key!r}") from exc
        if index < 0:
            raise RingError(f"bad moment index {key!r}")
        out[index] = _fraction(value)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_fg(args: argparse.Namespace) -> int:
    tables: dict[str, dict[str, str]] = {}
    for g in range(2, args.gmax + 1):
        poly = free_energy(g, args.convention)
        tables[f"F{g}"] = dict(render_terms(poly, args.convention, normalized=True))
    if args.format == "json":
        print(json.dumps(tables, indent=2))
        return 0
    for name, table in tables.items():
        print(f"{name}:")
        for mono, value in table.items():
            print(f"  {mono}: {value}")
    return 0


def _cmd_tau(args: argparse.Namespace) -> int:
    print(format_rational(tau_intersection(args.indices)))
    return 0


def _cmd_coeffs(args: argparse.Namespace) -> int:
    build = reciprocal_coefficient if args.family == "S" else resolvent_coefficient
    for m in range(args.mmax + 1):
        print(f"{args.family}_{m} = {render_str(build(m), 'rho')}")
    return 0


def _cmd_correlator(args: argparse.Namespace) -> int:
    obj = correlator(args.genus, args.boundaries)
    rendered = render_z(obj, "rho") if isinstance(obj, ZLaurent) else str(obj)
    print(rendered)
    print(f"coupling power: lambda^{lambda_exponent(args.genus, args.boundaries)}")
    return 0


def _cmd_npoint(args: argparse.Namespace) -> int:
    if args.moments:
        moments = _parse_moments(args.moments)
        # G_{g,B} depends on every moment index 0..3g-3+B
        top = 3 * args.genus - 3 + len(args.groups)
        missing = [str(l) for l in range(top + 1) if l not in moments]
        if missing:
            raise UnknownVariable(
                f"--moments binds no value for index {', '.join(missing)}: "
                f"G_({args.genus},{len(args.groups)}) uses every index 0..{top}"
            )
    else:
        moments = generic_moments()
    coupling = _fraction(args.coupling)
    value = evaluate_correlator(args.genus, args.groups, coupling, moments)
    print(format_rational(value))
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SpectralError(f"cannot read model file: {exc}") from exc
    points = None
    if args.eval:
        points = [[float(v) for v in grp] for grp in args.eval]
    model = SpectralModel.from_json(text)
    solution = solve(model, tol=args.tol)
    moments = solution.moments(args.lmax)
    report = {
        "dimension": model.dimension,
        "coupling": model.coupling,
        "volume": model.volume,
        "levels": len(model.levels),
        "shift": solution.shift,
        "edge": solution.edge,
        "wave_renorm": solution.wave_renorm,
        "mass_shift": solution.mass_shift,
        "moments": {str(l): moments[l] for l in sorted(moments)},
    }
    if points is not None:
        report["correlator"] = solution.evaluate_correlator(args.genus, points)
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    for key in ("dimension", "coupling", "volume", "levels", "shift", "edge",
                "wave_renorm", "mass_shift"):
        print(f"{key}: {report[key]}")
    for l in sorted(moments):
        print(f"moment[{l}]: {moments[l]:.15g}")
    if "correlator" in report:
        print(f"correlator: {report['correlator']:.15g}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from taulap import recursion, virasoro

    failures: list[str] = []
    if args.suite == "oracle":
        gmax = 5 if args.gmax is None else args.gmax
        for g in range(1, gmax + 1):
            ok = recursion.one_point(g).terms == correlator(g, 1).terms
            print(f"one-point genus {g}: {'ok' if ok else 'MISMATCH'}")
            if not ok:
                failures.append(f"oracle g={g}")
    elif args.suite == "dse1":
        gmax = 4 if args.gmax is None else args.gmax
        for g in range(1, gmax + 1):
            ok = not recursion.one_point_residual(g).terms
            print(f"one-boundary loop equation genus {g}: {'ok' if ok else 'NONZERO'}")
            if not ok:
                failures.append(f"dse1 g={g}")
    elif args.suite == "dseB":
        for g, b in [(0, 3), (0, 4), (1, 2), (1, 3), (2, 2)]:
            ok = not recursion.dse_residual(g, b)
            print(f"loop equation ({g}, {b}): {'ok' if ok else 'NONZERO'}")
            if not ok:
                failures.append(f"dseB ({g},{b})")
    else:  # virasoro
        gmax = 5 if args.gmax is None else args.gmax
        series = virasoro.stable_series(gmax)
        for n in range(0, 18):
            ok = virasoro.constraint_satisfied(n, series)
            print(f"constraint {n}: {'ok' if ok else 'VIOLATED'}")
            if not ok:
                failures.append(f"virasoro n={n}")
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return CHECK_EXIT
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser


def _indices(text: str) -> list[int]:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise argparse.ArgumentTypeError(f"empty entry in index list {text!r}")
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="taulap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fg = sub.add_parser("fg", help="genus generating functions")
    fg.add_argument("--gmax", type=int, default=4)
    fg.add_argument("--convention", choices=("t", "rho", "iz", "eynard"), default="t")
    fg.add_argument("--format", choices=("text", "json"), default="text")
    fg.set_defaults(func=_cmd_fg)

    tau = sub.add_parser("tau", help="intersection number of psi classes")
    tau.add_argument("--indices", type=_indices, required=True,
                     help="comma-separated exponents, e.g. 2,2,2")
    tau.set_defaults(func=_cmd_tau)

    coeffs = sub.add_parser("coeffs", help="auxiliary coefficient families")
    coeffs.add_argument("--family", choices=("S", "R"), required=True)
    coeffs.add_argument("--mmax", type=int, default=6)
    coeffs.set_defaults(func=_cmd_coeffs)

    corr = sub.add_parser("correlator", help="stored correlation function")
    corr.add_argument("--genus", type=int, required=True)
    corr.add_argument("--boundaries", type=int, required=True)
    corr.set_defaults(func=_cmd_correlator)

    npoint = sub.add_parser("npoint", help="evaluate a grouped correlator exactly")
    npoint.add_argument("--genus", type=int, required=True)
    npoint.add_argument("--groups", required=True,
                        help='JSON list of groups, e.g. [["13/10","21/10"],["7/10"]]')
    npoint.add_argument("--moments", default=None,
                        help='JSON object {"0": "5/3", ...}; default generic moments')
    npoint.add_argument("--coupling", default="1/2")
    npoint.set_defaults(func=_cmd_npoint)

    model = sub.add_parser("model", help="solve a spectral model file")
    model.add_argument("--file", required=True, help="JSON model path or - for stdin")
    model.add_argument("--lmax", type=int, default=5)
    model.add_argument("--tol", type=float, default=1e-12)
    model.add_argument("--eval", default=None,
                       help="JSON groups of boundary points to evaluate")
    model.add_argument("--genus", type=int, default=0)
    model.add_argument("--format", choices=("text", "json"), default="text")
    model.set_defaults(func=_cmd_model)

    check = sub.add_parser("check", help="run a validation suite")
    check.add_argument("--suite", choices=("oracle", "dse1", "dseB", "virasoro"),
                       required=True)
    check.add_argument("--gmax", type=int, default=None)
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fg" and args.gmax < 2:
        parser.error("--gmax must be at least 2")
    if args.command == "check" and args.gmax is not None:
        if args.suite == "dseB":
            parser.error("--gmax does not apply to --suite dseB")
        if args.gmax < 1:
            parser.error("--gmax must be at least 1")
    if args.command in ("fg", "check") and args.gmax is not None and args.gmax > MAX_GENUS:
        parser.error(f"--gmax must be at most {MAX_GENUS}")
    if getattr(args, "genus", 0) > MAX_GENUS:
        parser.error(f"--genus must be at most {MAX_GENUS}")
    if args.command == "tau" and sum(d - 1 for d in args.indices) // 3 + 1 > MAX_GENUS:
        parser.error(f"--indices must imply a genus of at most {MAX_GENUS}")
    if args.command == "coeffs" and not 0 <= args.mmax <= MAX_MMAX:
        parser.error(f"--mmax must be between 0 and {MAX_MMAX}")
    if args.command == "model":
        if not 0 <= args.lmax <= MAX_LMAX:
            parser.error(f"--lmax must be between 0 and {MAX_LMAX}")
        # chained comparisons also reject nan
        if not 0 < args.tol < math.inf:
            parser.error("--tol must be finite and positive")
    # a negative genus is a domain error, reported once the command runs
    genus = getattr(args, "genus", -1)
    most = MAX_BOUNDARIES[genus] if genus >= 0 else math.inf
    if args.command == "correlator" and args.boundaries > most:
        parser.error(f"--boundaries must be at most {most} at genus {genus}")
    try:
        if args.command == "npoint":
            args.groups = _parse_groups(args.groups)
        elif args.command == "model" and args.eval:
            args.eval = _parse_groups(args.eval, "--eval")
        for option in ("groups", "eval"):
            if len(getattr(args, option, None) or ()) > most:
                parser.error(f"--{option} must list at most {most} groups at genus {genus}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except (RingError, SpectralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout goes to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
