"""Command-line front end.

Verbs:
    run PATH      run a sweep from a config file
    preset NAME   run a named experiment preset
    theory        emit closed-form bound curves only

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .cliio import (
    OVERRIDE_KEYS,
    _publish,
    emit_csv,
    parse_config,
    run_experiment,
    run_preset,
    theory_curve,
)
from .montecarlo import CONFIG_SCHEMA, SimConfig
from .stable import NoiseModel

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--out-dir", default=".", help="output directory")
    for key in OVERRIDE_KEYS:  # dest is the key; the value is parsed as in a config file
        sub.add_argument("--" + key.replace("_", "-"), type=CONFIG_SCHEMA[key][1],
                         help=f"override the config's {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stablemimo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    _add_common(p_run)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name", help="preset name or figN alias")
    _add_common(p_preset)

    defaults = SimConfig()
    # flags in full only: `--out NAME` would otherwise match --out-dir
    p_theory = sub.add_parser("theory", help="emit bound curves only", allow_abbrev=False,
                              description="Options left out take SimConfig's defaults.")
    p_theory.add_argument("--receiver", type=str.lower, required=True,  # as in a config's receivers
                          help="receiver with a closed form")
    p_theory.add_argument("--model", type=CONFIG_SCHEMA["model"][1], default=defaults.model,
                          metavar="|".join(m.value for m in NoiseModel))
    p_theory.add_argument("--alpha", type=CONFIG_SCHEMA["alpha"][1], required=True)
    p_theory.add_argument("--nt", type=CONFIG_SCHEMA["nt"][1], default=defaults.n_t)
    p_theory.add_argument("--nr", type=CONFIG_SCHEMA["nr"][1], default=defaults.n_r)
    p_theory.add_argument("--snr", type=CONFIG_SCHEMA["snr_db"][1], required=True,
                          help="comma-separated SNR grid in dB")
    p_theory.add_argument("--out-dir", default=".",
                          help="writes theory_<receiver>_<model>.csv there")

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
    return _report(run_preset(args.name, _overrides(args), out_dir=args.out_dir))


def _cmd_theory(args) -> int:
    curve = theory_curve(args.receiver, args.model, args.nt, args.nr, args.alpha, args.snr)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"theory_{args.receiver}_{args.model.value}.csv")
    _publish([(path, lambda tmp: emit_csv(curve, tmp))])
    print(f"wrote {path}")
    return 0


# verb -> command; the required subparsers reject any other verb
_COMMANDS = {"run": _cmd_run, "preset": _cmd_preset, "theory": _cmd_theory}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"stablemimo: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
