"""Command line front end.

Subcommands:

* point    evaluate one parameter point, print JSON
* sweep    vary one knob over a grid, emit CSV
* figures  run a named preset bundle of sweeps, one CSV per curve
* verify   run the self-check battery

Exit codes: 0 success; 1 runtime failure (a state could not be built, also
at a swept grid value outside its knob's range, which the error names; a
file could not be written; a self-check failed or could not run); 2 usage
error (bad flags, an empty --out, bad config, bad sweep bounds, a resolved
point out of range).

Parameter resolution per knob: specific flag, then generic flag, then
config file entry (keys named like the flags), then the built-in default.
The knobs, their flags and the config keys all come from
sweep_engine.KNOBS, and the figure presets from FIGURE_PRESETS.  All
lengths and times are in units of the switching width, which this
interface pins to 1.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .detector_state import AssemblyError, InitialState
from .field_correlators import QuadratureError
from .quantum_measures import spectrum_general
from .sweep_engine import (
    FIGURE_PRESETS,
    KNOBS,
    VARY_CHOICES,
    ModelParams,
    SweepError,
    SweepSpec,
    _point,
    detector_pair,
    emit_csv,
    figure_preset,
    run_sweep,
)
from .verify import run_all

__all__ = [
    "main",
    "cmd_point",
    "cmd_sweep",
    "cmd_figures",
    "cmd_verify",
]


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=float)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    for key, value in raw.items():
        if key not in KNOBS:
            raise ValueError(f"config {path} has unknown key {key!r}")
        # integers are read as floats; Infinity, NaN, 1e400 and integers
        # past the float range are read as floats that are not finite
        if not (isinstance(value, float) and math.isfinite(value)):
            raise ValueError(f"config {path} key {key!r} must be a finite number")
    return raw


def _resolve_params(args) -> ModelParams:
    """The config entries, then the flags, each layer applied in KNOBS
    order over the ModelParams defaults: a specific knob beats its generic
    form within a layer, and a flag beats the config.  The containers of
    detector_pair check the signs, so a bad fixed flag of a sweep is a
    usage error before any grid point runs."""
    values = {}
    for layer in (_load_config(args.config) if args.config else {}, vars(args)):
        for knob, (names, _) in KNOBS.items():
            if layer.get(knob) is not None:
                values.update(dict.fromkeys(names, layer[knob]))
    params = ModelParams(**values)
    detector_pair(params)
    InitialState(params.theta)  # raises ValueError outside [0, pi/2]
    return params


def cmd_point(params: ModelParams) -> int:
    # valid params whose correlators or state cannot be built: a runtime failure
    try:
        correlators, state, measures = _point(params)
    except (AssemblyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "correlators": {
            k: getattr(correlators, k) for k in ("f_a", "f_b", "kappa", "omega", "gamma")
        },
        "state": {
            k: [v.real, v.imag] if isinstance(v, complex) else v
            for k, v in asdict(state).items()
        },
        "spectrum": list(spectrum_general(state).as_tuple()),
        "measures": asdict(measures),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _run_and_write(spec: SweepSpec, out: str | None) -> int | None:
    """Run one sweep and write its CSV to the file out, or to stdout when
    out is None.  Returns the bytes written, or None once an error is
    reported."""
    try:
        rows = run_sweep(spec)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    except MemoryError:
        print(f"error: a sweep of {spec.steps} steps does not fit in memory", file=sys.stderr)
        return None
    if out is None:
        return emit_csv(rows, sys.stdout)
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            return emit_csv(rows, fh)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return None


def cmd_sweep(spec: SweepSpec, out: str | None) -> int:
    return 1 if _run_and_write(spec, out) is None else 0


def cmd_figures(which: str, out_dir: str) -> int:
    specs = figure_preset(which)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 1
    for spec in specs:
        path = os.path.join(out_dir, f"{spec.label}.csv")
        size = _run_and_write(spec, path)
        if size is None:
            return 1
        print(f"wrote {path} ({size} bytes)")
    return 0


def cmd_verify(seed: int = 0, points: int | None = None) -> int:
    # main has checked points, so whatever run_all raises is a runtime failure
    try:
        results = run_all(seed=seed, points=points)
    except MemoryError:
        draws = "the default draw counts" if points is None else f"{points} draws per check"
        print(f"error: verify with {draws} does not fit in memory", file=sys.stderr)
        return 1
    except (QuadratureError, SweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<26} max err {r.worst:11.4e}  tol {r.tolerance:.0e}  {status}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        ok = ok and r.passed
    return 0 if ok else 1


def _add_model_flags(parser) -> None:
    g = parser.add_argument_group("model parameters")
    for knob, (_, help_text) in KNOBS.items():
        g.add_argument(f"--{knob}", dest=knob, type=_finite_float, help=help_text)
    g.add_argument("--config", default=None, help="JSON file with flag-named defaults")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udwpair",
        description="Delta-switched detector pair: states, sweeps, self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point, print JSON")
    _add_model_flags(p_point)

    p_sweep = sub.add_parser("sweep", help="vary one knob over a grid, emit CSV")
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--vary", required=True, choices=VARY_CHOICES, help="knob to sweep")
    p_sweep.add_argument("--from", dest="start", type=float, required=True, help="grid start")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True, help="grid stop")
    p_sweep.add_argument("--steps", type=int, required=True, help="grid size (at least 2)")
    p_sweep.add_argument("--out", type=_path, default=None, help="CSV path (default: stdout)")

    p_fig = sub.add_parser("figures", help="run a preset sweep bundle, one CSV per curve")
    p_fig.add_argument("which", choices=FIGURE_PRESETS, help="preset name")
    p_fig.add_argument("--out", type=_path, default=".", help="output directory (default: .)")

    p_ver = sub.add_parser("verify", help="run the self-check battery")
    p_ver.add_argument("--seed", type=int, default=0, help="draw seed (default 0)")
    p_ver.add_argument("--points", type=int, default=None, help="override per-check draw counts")
    return parser


def _is_negative_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return text.startswith("-")


def _join_negative_values(argv) -> list:
    """argv with each `--flag -1e-3` written `--flag=-1e-3`: argparse takes
    a negative number in scientific notation for an option name.  Tokens
    after a bare `--` are left as they are."""
    out = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + list(argv[i:])
        flag = out[-1] if out else ""
        if flag[:2] == "--" and "=" not in flag and flag != "--help" and _is_negative_number(token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
            if args.command == "figures":
                return cmd_figures(args.which, args.out)
            if args.command == "verify":
                if args.points is not None and args.points < 1:
                    raise ValueError(f"points must be at least 1, got {args.points!r}")
                return cmd_verify(seed=args.seed, points=args.points)
            params = _resolve_params(args)
            if args.command == "point":
                return cmd_point(params)
            spec = SweepSpec(args.vary, params, start=args.start, stop=args.stop, steps=args.steps)
            return cmd_sweep(spec, args.out)
        finally:
            sys.stdout.flush()  # a reader that has gone fails here, not at exit
    except SystemExit as exc:  # from argparse: usage errors and --help
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader has gone: the rest, at exit too, goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
