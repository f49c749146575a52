"""Command-line interface.

    isobispec verify-theorem1 [flags]   full family-B verification pipeline
    isobispec verify-remark2  [flags]   Robin-side (family-B1) pipeline
    isobispec crosscheck      [flags]   closed forms vs shooting oracle
    isobispec spectrum        [flags]   certified zeros as JSON
    isobispec charfn          [flags]   characteristic-function values as CSV
    isobispec family          [flags]   potential samples (CSV) + report (JSON)
    isobispec eig             [flags]   kernel matrix and eigenpair as JSON

Exit code is 0 iff the scenario verdict is PASS (or the dump succeeded).
ISOBISPEC_THREADS caps parallelism.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import charfn, integral_op, potential, spectra
from .errors import IsobispecError
from .grid import Grid, PiecewiseFn, write_csv
from .harness import (RunConfig, TOLERANCES, parse_h_spec,
                      run_crosscheck, run_verify_remark2,
                      run_verify_theorem1)


def _parse_alpha(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"alpha must be RE or RE,IM, got {text!r}")


def _parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}") from exc


def _parse_tol(text: str) -> tuple[str, float]:
    name, _, val = text.partition("=")
    if not val:
        raise argparse.ArgumentTypeError("tolerance must be NAME=VALUE")
    if name not in TOLERANCES:
        raise argparse.ArgumentTypeError(
            f"unknown tolerance {name!r}; known: {', '.join(sorted(TOLERANCES))}")
    return name, float(val)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a-frac", type=_parse_frac, default=Fraction(7, 20),
                        metavar="P/Q", help="delay as a rational multiple of pi")
    common.add_argument("--h", dest="h_spec", default="const:1",
                        help="seed function: const:C | sin:F | linear:C0,C1 | csv:PATH")
    common.add_argument("--eigsign", type=int, choices=(+1, -1), default=+1)
    common.add_argument("--alpha", type=_parse_alpha, action="append",
                        metavar="RE[,IM]", help="family parameter (repeatable)")
    common.add_argument("--grid-n", type=int, default=2048)
    common.add_argument("--nystrom-n", type=int, default=256)
    common.add_argument("--n-eigs", type=int, default=15)
    common.add_argument("--tol", type=_parse_tol, action="append",
                        metavar="NAME=VAL", help="override a named tolerance")
    common.add_argument("--out", choices=("json", "csv"), default="json")
    common.add_argument("--out-dir", default="isobispec-out")
    common.add_argument("--skip-normalize", action="store_true",
                        help="skip the eigenvalue normalization (negative control)")
    common.add_argument("--quiet", action="store_true")

    p = argparse.ArgumentParser(prog="isobispec", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("verify-theorem1", parents=[common])
    sub.add_parser("verify-remark2", parents=[common])
    sub.add_parser("crosscheck", parents=[common])
    sp = sub.add_parser("spectrum", parents=[common])
    sp.add_argument("--j", type=int, choices=(0, 1), default=None,
                    help="boundary-condition index (default: both)")
    sp.add_argument("--which", choices=("delta", "theta"), default="delta")
    cf = sub.add_parser("charfn", parents=[common])
    cf.add_argument("--which", choices=("delta0", "delta1", "theta0", "theta1"),
                    default="delta0")
    cf.add_argument("--lam-min", type=float, default=-5.0)
    cf.add_argument("--lam-max", type=float, default=120.0)
    cf.add_argument("--lam-count", type=int, default=200)
    cf.add_argument("--lam-im", type=float, default=0.0,
                    help="constant imaginary part of the lambda grid")
    sub.add_parser("family", parents=[common])
    ei = sub.add_parser("eig", parents=[common])
    ei.add_argument("--no-matrix", action="store_true",
                    help="omit the kernel matrix from the dump")
    return p


def _config(args) -> RunConfig:
    alphas = tuple(args.alpha) if args.alpha else (0, 1, -2, 0.5 + 1.5j)
    return RunConfig(
        a_frac=args.a_frac, h_spec=args.h_spec, eigsign=args.eigsign,
        alphas=alphas, grid_n=args.grid_n, nystrom_n=args.nystrom_n,
        n_eigs=args.n_eigs, tolerances=dict(args.tol or []),
        out=args.out, out_dir=args.out_dir,
        skip_normalize=args.skip_normalize)


def _emit(report, cfg, quiet: bool) -> int:
    path = report.write(cfg.out_dir, cfg.out)
    if not quiet:
        print(report.summary())
        print(f"report: {path}")
    return 0 if report.verdict else 1


def _first_alpha(cfg) -> complex:
    return next((complex(a) for a in cfg.alphas if a != 0), 1 + 0j)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        out_dir = Path(cfg.out_dir)
        if args.command == "verify-theorem1":
            return _emit(run_verify_theorem1(cfg), cfg, args.quiet)
        if args.command == "verify-remark2":
            cfg.eigsign = -1
            return _emit(run_verify_remark2(cfg), cfg, args.quiet)
        if args.command == "crosscheck":
            return _emit(run_crosscheck(cfg), cfg, args.quiet)

        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "spectrum":
            fam = cfg.make_family()
            records = []
            js = (0, 1) if args.j is None else (args.j,)
            for alpha in cfg.alphas:
                ev = charfn.make_evaluator(potential.build_potential(fam, alpha))
                for j in js:
                    sp = spectra.find_spectrum(ev, j, cfg.n_eigs,
                                               which=args.which)
                    for rec in sp.to_records():
                        rec["alpha"] = [complex(alpha).real, complex(alpha).imag]
                        rec["which"] = args.which
                        records.append(rec)
            path = out_dir / "spectrum.json"
            path.write_text(json.dumps(records, indent=2))
            if not args.quiet:
                print(f"wrote {len(records)} zeros to {path}")
            return 0

        if args.command == "charfn":
            fam = cfg.make_family()
            ev = charfn.make_evaluator(potential.build_potential(
                fam, _first_alpha(cfg)))
            lams = np.linspace(args.lam_min, args.lam_max,
                               args.lam_count) + 1j * args.lam_im
            fn = charfn.eval_delta if args.which.startswith("delta") \
                else charfn.eval_theta
            vals = fn(ev, int(args.which[-1]), lams)
            path = out_dir / f"charfn_{args.which}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("re_lambda,im_lambda,re_val,im_val\n")
                for lam, v in zip(lams, vals):
                    fh.write(f"{lam.real:.17g},{lam.imag:.17g},"
                             f"{v.real:.17g},{v.imag:.17g}\n")
            if not args.quiet:
                print(f"wrote {path}")
            return 0

        if args.command == "family":
            fam = cfg.make_family()
            reports = []
            for alpha in cfg.alphas:
                q = potential.build_potential(fam, alpha)
                label = f"{complex(alpha).real:g}_{complex(alpha).imag:g}"
                # family samples always carry the im column
                write_csv(q.fn.map(lambda v: v.astype(complex)),
                          out_dir / f"q_alpha_{label}.csv")
                reports.append(potential.structural_report(q))
            path = out_dir / "family_report.json"
            path.write_text(json.dumps(reports, indent=2))
            if not args.quiet:
                print(f"wrote {len(reports)} potentials + {path}")
            return 0

        if args.command == "eig":
            grid = Grid(cfg.a_frac, cfg.grid_n)
            h = PiecewiseFn.from_callable(grid, grid.idx_5a2, grid.n_panels,
                                          parse_h_spec(cfg.h_spec), dtype=float)
            op = integral_op.build_nystrom(h, cfg.nystrom_n)
            pair = integral_op.leading_real_eigenpair(op)
            rep = integral_op.eig_report(op, pair,
                                         include_matrix=not args.no_matrix)
            path = out_dir / "eigenpair.json"
            path.write_text(json.dumps(rep))
            if not args.quiet:
                print(f"eta = {pair.eta:.12g} (residual {pair.residual:.3e}); "
                      f"wrote {path}")
            return 0
        raise ValueError(f"unhandled command {args.command}")
    except IsobispecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
