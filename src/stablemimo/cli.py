"""Command-line front end.

Verbs:
    run PATH      run a sweep from a config file
    preset NAME   run a named experiment preset
    theory        emit closed-form bound curves only
    table         build and save an amplitude density table

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .amplitude import IsotropicAmplitudeSpec, build_amplitude_table
from .cliio import (
    OVERRIDE_KEYS,
    _publish,
    emit_csv,
    parse_config,
    run_experiment,
    run_preset,
    theory_curve,
)
from .stable import NoiseModel

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--seed", type=int, help="override master seed")
    sub.add_argument("--workers", type=int, help="parallel worker count")
    sub.add_argument("--out-dir", default=".", help="output directory")
    sub.add_argument("--min-errors", type=int, help="bit errors per point")
    sub.add_argument("--max-trials", type=int, help="trial cap per point")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stablemimo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    _add_common(p_run)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", help="preset name or figN alias")
    p_preset.add_argument("--full", action="store_true",
                          help="raise the trial cap to publication scale")
    _add_common(p_preset)

    p_theory = sub.add_parser("theory", help="emit bound curves only")
    p_theory.add_argument("--receiver", choices=("gar", "mdr"), required=True)
    p_theory.add_argument("--model", choices=("I", "II"), default="I")
    p_theory.add_argument("--alpha", type=float, required=True)
    p_theory.add_argument("--nt", type=int, default=2)
    p_theory.add_argument("--nr", type=int, default=1)
    p_theory.add_argument("--snr", required=True,
                          help="comma-separated SNR grid in dB")
    p_theory.add_argument("--out-dir", default=".")
    p_theory.add_argument("--out", help="output CSV name")

    p_table = sub.add_parser("table", help="build an amplitude density table")
    p_table.add_argument("--alpha", type=float, required=True)
    p_table.add_argument("--d", type=int, required=True,
                         help="real dimension count (2 per complex entry)")
    p_table.add_argument("--sigma", type=float, default=2.0**-0.5,
                         help="isotropic scale (default matches unit noise)")
    p_table.add_argument("--out", required=True, help="output .npz path")

    return parser


def _overrides(args) -> dict:
    return {k: getattr(args, k) for k in OVERRIDE_KEYS if getattr(args, k) is not None}


def _report(paths) -> int:
    print("wrote " + ", ".join(paths[k] for k in ("sim", "theory", "manifest")))
    return 0


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = parse_config(fh.read())
    stem = os.path.splitext(os.path.basename(args.config))[0]
    return _report(run_experiment(stem, [config], config.receivers, _overrides(args),
                                  args.out_dir, {"config_file": args.config}))


def _cmd_preset(args) -> int:
    return _report(run_preset(args.name, _overrides(args), out_dir=args.out_dir,
                              full=args.full))


def _cmd_theory(args) -> int:
    grid = tuple(float(v) for v in args.snr.split(","))
    curve = theory_curve(args.receiver, NoiseModel(args.model), args.nt,
                         args.nr, args.alpha, grid)
    os.makedirs(args.out_dir, exist_ok=True)
    name = args.out or f"theory_{args.receiver}_{args.model}.csv"
    path = os.path.join(args.out_dir, name)
    _publish([(path, lambda tmp: emit_csv(curve, tmp))])
    print(f"wrote {path}")
    return 0


def _cmd_table(args) -> int:
    spec = IsotropicAmplitudeSpec(alpha=args.alpha, sigma=args.sigma, d=args.d)
    table = build_amplitude_table(spec)
    _publish([(args.out, table.save)])
    print(f"wrote {args.out} (r_max = {table.grid[-1]:g})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "preset":
            return _cmd_preset(args)
        if args.verb == "theory":
            return _cmd_theory(args)
        if args.verb == "table":
            return _cmd_table(args)
        parser.error(f"unknown verb {args.verb!r}")
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"stablemimo: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
