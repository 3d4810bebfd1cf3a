"""Command-line front end.

Subcommands: construct, verify, partial-sums, decompose, orthogonality.
Exit codes: 0 all checks pass, 1 a property check failed, 2 usage or input
errors, 3 the verifier rejected the (eps, alpha, shift) of an h4p3 merge,
from its closed form or from --alpha/--eps/--shift.
Exit 2 has one path: argparse refusals (a --modulus below 1 among them) and
every ValueError or OSError a command raises, such as a malformed or
unreadable input file or an unwritable output path, print an error to stderr
and nothing to stdout.  ``construct`` refuses --p, --gamma, --alpha,
--eps and --shift for a family that does not read them, and verifies every
array before it writes it.  ``verify`` refuses --modulus, --p and --gamma at
a level that does not read them, and infers s and t from the grid's fills.
Where --modulus is optional (``verify --level globally-simple``,
``partial-sums`` and ``decompose``) it defaults to 2nk+1 for a square grid
with k fills in every row, and any other grid is refused with exit 2.
``decompose`` leaves no partial output: it writes both cycle files before
it renames either into place, so a failed run leaves an earlier file at
--rows-out or --cols-out as it was, and it refuses --rows-out and --cols-out
that name one file.  ``orthogonality`` reads only cycle files exactly as
``decompose`` writes them.  Identical invocations print identical
output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import construct4p, decompose, h3, merge, shifted
from .grid import HeffterGrid, diagonal_order, natural_order, partial_sums
from .gridio import grid_to_text, read_grid
from .verify import (
    VerificationReport,
    default_modulus,
    verify_globally_simple,
    verify_heffter,
    verify_integer,
    verify_support_shifted,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_ARRAY = 3


def _emit_report(report: VerificationReport, as_json: bool) -> int:
    if as_json:
        payload = {
            "checks": [
                {"name": c.name, "passed": c.passed, "certificate": c.certificate}
                for c in report.checks
            ],
            "overall": report.overall,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.to_text(), end="")
    return EXIT_PASS if report.overall else EXIT_FAIL


def _load_grid(path: str) -> HeffterGrid:
    try:
        return read_grid(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _verify_level(grid: HeffterGrid, level: str, s: int | None = None, t: int | None = None,
                  modulus: int | None = None, p: int | None = None,
                  gamma: int | None = None) -> VerificationReport:
    """Every check up to ``level``, the ladder shared by construct and verify.

    ``modulus`` replaces 2ms+1 for the line sums at levels heffter and
    globally-simple, and for the partial sums at level globally-simple.
    Levels integer and support-shifted check exact sums and their own
    modulus, so ``verify`` refuses it there.
    """
    if level == "support-shifted":
        if p is None or gamma is None:
            raise ValueError("--p and --gamma are required at level support-shifted")
        return verify_support_shifted(grid, p, gamma)
    report = verify_heffter(grid, s, t, modulus)
    if level != "heffter":
        report.extend(verify_integer(grid))
    if level == "globally-simple":
        report.extend(verify_globally_simple(grid, modulus))
    return report


# -- construct -----------------------------------------------------------

# the optional construction flags each family reads
_FAMILY_FLAGS = {"h4p": ("p",), "shifted": ("p", "gamma", "alpha"), "h3": (),
                 "h4p3": ("p", "alpha", "eps", "shift")}


def cmd_construct(args) -> int:
    ignored = [f"--{flag}" for flag in ("p", "gamma", "alpha", "eps", "shift")
               if getattr(args, flag) is not None and flag not in _FAMILY_FLAGS[args.family]]
    if ignored:
        raise ValueError(f"family {args.family} does not use {', '.join(ignored)}")
    params: dict[str, int] = {"n": args.n}
    if args.family == "h4p":
        if args.p is None:
            raise ValueError("--p is required for family h4p")
        grid = construct4p.build_h4p(args.n, args.p)
        k = 4 * args.p
        params.update(p=args.p, k=k, M=2 * args.n * k + 1)
    elif args.family == "shifted":
        if args.p is None or args.gamma is None:
            raise ValueError("--p and --gamma are required for family shifted")
        alpha = args.alpha if args.alpha is not None else shifted.choose_alpha(args.n, args.p)
        grid = shifted.build_shifted(args.n, args.p, args.gamma, alpha)
        k = 4 * args.p
        params.update(p=args.p, gamma=args.gamma, alpha=alpha,
                      k=k, M=2 * (k + args.gamma) * args.n + 1)
    elif args.family == "h3":
        grid = h3.build_h3_base(args.n)
        params.update(k=3, M=6 * args.n + 1)
    else:  # h4p3; argparse restricts the choices
        if args.p is None:
            raise ValueError("--p is required for family h4p3")
        grid, mp = merge.build_h4p3(args.n, args.p, alpha=args.alpha,
                                    eps=args.eps, shift=args.shift)
        params.update(p=args.p, k=4 * args.p + 3, alpha=mp.alpha, eps=mp.eps,
                      beta=mp.beta, t=mp.shift, M=mp.modulus)

    level = "support-shifted" if args.family == "shifted" else "globally-simple"
    report = _verify_level(grid, level, params["k"], params["k"], params["M"],
                           args.p, params.get("gamma"))
    if not report.overall:
        print(report.to_text(), end="", file=sys.stderr)
        print("refusing to write unverified array", file=sys.stderr)
        return EXIT_FAIL

    text = grid_to_text(grid)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")

    param_line = " ".join(f"{key}={params[key]}" for key in sorted(params))
    if args.json:
        print(json.dumps({"family": args.family, "params": params,
                          "out": args.out, "verified": True}, indent=2))
    else:
        print(f"PARAMS family={args.family} {param_line}", file=sys.stderr)
    return EXIT_PASS


# -- verify --------------------------------------------------------------


# the optional flags each verify level reads
_LEVEL_FLAGS = {"heffter": ("modulus",), "integer": (), "globally-simple": ("modulus",),
                "support-shifted": ("p", "gamma")}


def cmd_verify(args) -> int:
    for flag in ("modulus", "p", "gamma"):
        if getattr(args, flag) is not None and flag not in _LEVEL_FLAGS[args.level]:
            raise ValueError(f"--{flag} is not used at level {args.level}")
    grid = _load_grid(args.path)
    report = _verify_level(grid, args.level, modulus=args.modulus, p=args.p, gamma=args.gamma)
    return _emit_report(report, args.json)


# -- partial sums --------------------------------------------------------


def cmd_partial_sums(args) -> int:
    grid = _load_grid(args.path)
    order = natural_order if args.order == "natural" else diagonal_order
    modulus = args.modulus if args.modulus is not None else default_modulus(grid)
    kinds = ("row", "col") if args.lines == "both" else (args.lines[:-1],)
    exit_code = EXIT_PASS
    for kind in kinds:
        count = grid.m if kind == "row" else grid.n
        for a in range(count):
            trace = partial_sums(grid, kind, a, order(grid, kind, a), modulus)
            sums = " ".join(str(v) for v in trace.sums)
            print(f"{kind} {a}: {sums}")
            if trace.collision is not None:
                i, j = trace.collision
                print(f"{kind} {a}: collision at positions {i},{j} mod {modulus}")
                exit_code = EXIT_FAIL
    return exit_code


# -- decomposition -------------------------------------------------------


def cmd_decompose(args) -> int:
    if os.path.realpath(args.rows_out) == os.path.realpath(args.cols_out):
        raise ValueError("--rows-out and --cols-out name the same file")
    grid = _load_grid(args.path)
    modulus = args.modulus if args.modulus is not None else default_modulus(grid)
    try:
        rows = decompose.line_system(grid, "row", modulus)
        cols = decompose.line_system(grid, "col", modulus)
    except (decompose.NotSimple, decompose.NotADecomposition) as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _write_systems([(args.rows_out, rows), (args.cols_out, cols)])
    for label, system in (("rows", rows), ("cols", cols)):
        status = "complete" if system.is_complete else f"missing {system.missing_edge_count()} edges"
        print(f"{label}: {system.count} cycles of length {system.k} on Z_{modulus}, {status}")
    if not (rows.is_complete and cols.is_complete):
        return EXIT_FAIL
    return EXIT_PASS


def _write_systems(outputs: list[tuple[str, decompose.CyclicSystem]]) -> None:
    """Write every cycle file to ``<path>.new`` first, then rename each into place.

    A failed write leaves every earlier file at its path untouched, and its
    error names the path asked for, not the staging file.
    """
    staged = []
    try:
        for path, system in outputs:
            staged.append(f"{path}.new")
            try:
                decompose.write_system(staged[-1], system)
            except OSError as exc:
                if exc.filename is not None:
                    exc.filename = path
                raise
        for (path, _), new in zip(outputs, staged):
            os.replace(new, path)
    except BaseException:
        for new in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(new)
        raise


def cmd_orthogonality(args) -> int:
    first = decompose.read_system(args.first)
    second = decompose.read_system(args.second)
    ok, worst, pair = decompose.orthogonality(first, second)
    verdict = "ORTHOGONAL" if ok else "NOT ORTHOGONAL"
    if args.json:
        print(json.dumps({"orthogonal": ok, "max_shared_edges": worst,
                          "worst_pair": list(pair)}, indent=2))
    else:
        print(f"{verdict} max-shared-edges={worst} worst-pair={pair[0]},{pair[1]}")
    return EXIT_PASS if ok else EXIT_FAIL


# -- argument parsing ----------------------------------------------------


def _modulus(text: str) -> int:
    """The argparse type of --modulus: an integer M >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"modulus must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heffter",
        description="Construct, verify and decompose globally simple Heffter arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build an array and write it as a grid file")
    p_con.add_argument("--family", required=True, choices=["h4p", "shifted", "h3", "h4p3"])
    p_con.add_argument("--n", type=int, required=True)
    p_con.add_argument("--p", type=int)
    p_con.add_argument("--gamma", type=int)
    p_con.add_argument("--alpha", type=int)
    p_con.add_argument("--eps", type=int)
    p_con.add_argument("--shift", type=int)
    p_con.add_argument("--out", help="output path (default: stdout)")
    p_con.add_argument("--json", action="store_true")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="check the defining properties of a grid file")
    p_ver.add_argument("path")
    p_ver.add_argument("--level", default="heffter",
                       choices=["heffter", "integer", "globally-simple", "support-shifted"])
    p_ver.add_argument("--p", type=int)
    p_ver.add_argument("--gamma", type=int)
    p_ver.add_argument("--modulus", type=_modulus)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_ps = sub.add_parser("partial-sums", help="print per-line partial sums")
    p_ps.add_argument("path")
    p_ps.add_argument("--lines", default="both", choices=["rows", "cols", "both"])
    p_ps.add_argument("--order", default="natural", choices=["natural", "diagonal"])
    p_ps.add_argument("--modulus", type=_modulus)
    p_ps.set_defaults(func=cmd_partial_sums)

    p_dec = sub.add_parser("decompose", help="develop row and column cycle systems")
    p_dec.add_argument("path")
    p_dec.add_argument("--modulus", type=_modulus)
    p_dec.add_argument("--rows-out", required=True)
    p_dec.add_argument("--cols-out", required=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_ort = sub.add_parser("orthogonality", help="join two cycle files and report shared edges")
    p_ort.add_argument("first")
    p_ort.add_argument("second")
    p_ort.add_argument("--json", action="store_true")
    p_ort.set_defaults(func=cmd_orthogonality)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except merge.NoParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ARRAY


if __name__ == "__main__":
    sys.exit(main())
