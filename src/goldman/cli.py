"""Command-line interface.

Subcommands: dims, gram, symplectic-basis, deform, closedness, verify,
random-rep, cocycle-basis.  All configuration is explicit flags; no
environment variables.  Exit statuses: 0 success, 1 property failure,
2 input/schema error, 3 numerical-conditioning error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .charts import (TRIVIALIZATION, Chart, closedness_check, deform,
                     deformation_correction)
from .cocycles import cocycle_basis
from .config import RunConfig
from .errors import EXIT_OK, EXIT_PROPERTY_FAILURE, GoldmanError, InputError
from .pairing import GoldmanGram, gram_matrix, symplectic_basis
from .reps import commutant_dimension, relator_defect
from .verify import render_report, run_suite


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by later calls."""
    parser = argparse.ArgumentParser(
        prog="goldman",
        description="Goldman symplectic form on surface-group character "
                    "varieties: representations, cocycles, pairings, and "
                    "finite-difference geometry checks.")
    parser.add_argument("--genus", type=int, default=2)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--flavor", choices=["unitary", "general-linear"],
                        default="unitary")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help="override the verification tolerance, the threshold "
                             "of the verify checks cocycle-law-on-basis, "
                             "gram-structure and symplectic-basis (NAME: verification)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for generated files")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("dims", help="cocycle space dimensions vs the closed formula")

    p = sub.add_parser("random-rep", help="write a seeded representation file")
    p.add_argument("--file", type=Path, default=None)

    p = sub.add_parser("cocycle-basis", help="write a basis of cocycle files")
    p.add_argument("--rep", type=Path, default=None)
    p.add_argument("--space", choices=["z1", "h1-complement"],
                   default="h1-complement")

    p = sub.add_parser("gram", help="Gram matrix of the pairing on cocycle files")
    p.add_argument("--rep", type=Path, required=True)
    p.add_argument("cocycles", nargs="+", type=Path)

    p = sub.add_parser("symplectic-basis",
                       help="reduce the pairing on cocycle files to standard form")
    p.add_argument("--rep", type=Path, required=True)
    p.add_argument("cocycles", nargs="+", type=Path)

    p = sub.add_parser("deform", help="move a representation along a cocycle")
    p.add_argument("--rep", type=Path, required=True)
    p.add_argument("--cocycle", type=Path, required=True)
    p.add_argument("--step", type=float, required=True)

    p = sub.add_parser("closedness", help="finite-difference exterior derivative")
    p.add_argument("--rep", type=Path, default=None,
                   help="chart center (defaults to the seeded representation)")
    p.add_argument("cocycles", nargs="*", type=Path,
                   help="frame cocycle files (defaults to a computed basis)")
    p.add_argument("--triple", default="0,1,2", metavar="I,J,K")
    p.add_argument("--steps", default="8e-3,4e-3,2e-3,1e-3",
                   help="comma-separated ladder of step sizes")

    p = sub.add_parser("verify", help="run the bundled property suite")
    p.add_argument("--mutate", choices=["dual-sign"], default=None,
                   help="test instrumentation: inject a known defect so the "
                        "suite must fail")
    return parser


def _config(args) -> RunConfig:
    overrides = []
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep:
            raise InputError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            overrides.append((name, float(value)))
        except ValueError:
            raise InputError(f"--tol value {value!r} is not a number")
    return RunConfig(genus=args.genus, rank=args.rank, flavor=args.flavor,
                     seed=args.seed, tolerance_overrides=tuple(overrides),
                     out=args.out, mutate=getattr(args, "mutate", None))


def _load_rep(config: RunConfig, path):
    return fileio.read_representation(path) if path else config.representation()


def _file_gram(rep_path, cocycle_paths) -> GoldmanGram:
    rep = fileio.read_representation(rep_path)
    cocycles = tuple(fileio.read_cocycle(p, rep) for p in cocycle_paths)
    return GoldmanGram(base=rep, vectors=cocycles, matrix=gram_matrix(cocycles))


def cmd_dims(config: RunConfig) -> int:
    basis = cocycle_basis(config.representation())
    z1, b1, h1 = basis.dims
    formula = (2 * config.genus - 2) * config.rank ** 2 + 2
    verdict = "MATCH" if h1 == formula else "MISMATCH"
    print(f"Z1={z1} B1={b1} H1={h1} formula={formula} {verdict}")
    if verdict == "MATCH":
        return EXIT_OK
    # the formula holds at irreducible points; a commutant above 1 names
    # the point as reducible
    print(f"commutant-dimension: {commutant_dimension(basis.base)}")
    return EXIT_PROPERTY_FAILURE


def cmd_random_rep(config: RunConfig, file: Path | None) -> int:
    rep = config.representation()
    target = file
    if target is None:  # --out is made only when the file goes there
        fileio.ensure_directory(config.out)
        target = config.out / "representation.txt"
    digest = fileio.write_representation(target, rep)
    print(f"file: {target}")
    print(f"hash: {digest}")
    print(f"relator-defect: {relator_defect(rep):.6e}")
    return EXIT_OK


def cmd_cocycle_basis(config: RunConfig, rep_path, space: str) -> int:
    rep = _load_rep(config, rep_path)
    basis = cocycle_basis(rep)
    vectors = basis.basis if space == "z1" else basis.h1_complement
    fileio.ensure_directory(config.out)
    for i, chi in enumerate(vectors):
        fileio.write_cocycle(config.out / f"cocycle-{i:03d}.txt", chi)
    z1, b1, h1 = basis.dims
    print(f"space: {space}")
    print(f"count: {len(vectors)}")
    print(f"Z1: {z1}")
    print(f"B1: {b1}")
    print(f"H1: {h1}")
    return EXIT_OK


def cmd_gram(config: RunConfig, rep_path, cocycle_paths) -> int:
    g = _file_gram(rep_path, cocycle_paths)
    skewness = g.skewness_residual
    fileio.ensure_directory(config.out)
    target = config.out / "gram.txt"
    fileio.write_matrix(target, g.matrix,
                        header_lines=[f"skewness-residual: {skewness:.6e}"])
    print(f"file: {target}")
    print(f"dimension: {len(g.vectors)}")
    print(f"skewness-residual: {skewness:.6e}")
    return EXIT_OK


def cmd_symplectic_basis(config: RunConfig, rep_path, cocycle_paths) -> int:
    sb = symplectic_basis(_file_gram(rep_path, cocycle_paths))
    fileio.ensure_directory(config.out)
    for i, chi in enumerate(sb.e):
        fileio.write_cocycle(config.out / f"basis-e-{i:03d}.txt", chi)
    for i, chi in enumerate(sb.f):
        fileio.write_cocycle(config.out / f"basis-f-{i:03d}.txt", chi)
    fileio.write_matrix(config.out / "symplectic-transform.txt", sb.transform)
    print(f"pairs: {sb.pair_count}")
    print(f"normal-form-residual: {sb.normal_form_residual:.6e}")
    return EXIT_OK


def cmd_deform(config: RunConfig, rep_path, cocycle_path, step: float) -> int:
    rep = fileio.read_representation(rep_path)
    chi = fileio.read_cocycle(cocycle_path, rep)
    moved = deform(rep, chi, step)
    correction = deformation_correction(rep, chi, step)
    correction_half = deformation_correction(rep, chi, step / 2)
    order = float(np.log2(correction / correction_half)) if correction_half else 2.0
    fileio.ensure_directory(config.out)
    target = config.out / "deformed.txt"
    fileio.write_representation(target, moved)
    print(f"file: {target}")
    print(f"trivialization: {TRIVIALIZATION}")
    print(f"step: {step:.6e}")
    print(f"relator-defect: {relator_defect(moved):.6e}")
    print(f"correction: {correction:.6e}")
    print(f"correction-half-step: {correction_half:.6e}")
    print(f"correction-order: {order:.3f}")
    return EXIT_OK


def cmd_closedness(config: RunConfig, rep_path, cocycle_paths,
                   triple_text: str, steps_text: str) -> int:
    try:
        triple = tuple(int(p) for p in triple_text.split(","))
        steps = [float(p) for p in steps_text.split(",")]
    except ValueError:
        raise InputError("closedness expects --triple I,J,K and numeric --steps")
    if len(triple) != 3:
        raise InputError("--triple needs exactly three indices")
    rep = _load_rep(config, rep_path)
    if cocycle_paths:
        frame = tuple(fileio.read_cocycle(p, rep) for p in cocycle_paths)
    else:
        frame = cocycle_basis(rep).h1_complement
    chart = Chart(center=rep, frame=frame)
    print(f"trivialization: {TRIVIALIZATION}")
    print(f"triple: {triple[0]} {triple[1]} {triple[2]}")
    residuals = []
    for h in steps:
        residual = closedness_check(chart, triple, h)
        residuals.append(residual)
        print(f"residual[h={h:.6e}]: {residual:.6e}")
    if len(steps) >= 2 and all(r > 0 for r in residuals):
        order = float(np.polyfit(np.log(steps), np.log(residuals), 1)[0])
        print(f"convergence-order: {order:.3f}")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    results = run_suite(config)
    report = render_report(config, results)
    fileio.ensure_directory(config.out)
    fileio.write_text(config.out / "verify-report.txt", report)
    sys.stdout.write(report)
    failed = sum(1 for r in results if not r.passed)
    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
        if args.command == "dims":
            return cmd_dims(config)
        if args.command == "random-rep":
            return cmd_random_rep(config, args.file)
        if args.command == "cocycle-basis":
            return cmd_cocycle_basis(config, args.rep, args.space)
        if args.command == "gram":
            return cmd_gram(config, args.rep, args.cocycles)
        if args.command == "symplectic-basis":
            return cmd_symplectic_basis(config, args.rep, args.cocycles)
        if args.command == "deform":
            return cmd_deform(config, args.rep, args.cocycle, args.step)
        if args.command == "closedness":
            return cmd_closedness(config, args.rep, args.cocycles,
                                  args.triple, args.steps)
        if args.command == "verify":
            return cmd_verify(config)
        raise InputError(f"unknown command {args.command!r}")
    except GoldmanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
