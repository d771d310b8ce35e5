"""Command-line interface: single curves, the two reproduction sweeps,
model selection and config validation."""

import argparse
import os
import sys
from functools import partial

from .experiment import (DEFAULT_D_VALUES, DEFAULT_T_VALUES, DEFAULT_THRESHOLD, SweepSpec,
                         model_selection_report, render_svg, run_sweep, write_csv)
from .hamiltonian import EVOLUTION_MODELS, ChainConfig
from .otoc import TimeGrid


def _float_list(text):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


# Every flag once: (dest, type, default, help); the flag is --dest with
# dashes. A tuple type lists the choices of a string flag. A flag only some
# subcommands take gives its help as {subcommand: help}. The dests other
# than config are the config-file keys, and the type converts their values.
_FLAGS = (
    ("n", int, 6, "chain length in spins (default 6)"),
    ("j_ising", float, -1.0, "Ising coupling J, energy units (default -1)"),
    ("hx", float, 1.05, "transverse field amplitude, energy units (default 1.05)"),
    ("hz_amp", float, 0.375, "staggered longitudinal field amplitude (default 0.375)"),
    ("jx", float, 1.0, "in-plane Heisenberg coupling J_x = J_y (default 1)"),
    ("jz", float, -1.0, "z Heisenberg coupling, must be negative (default -1)"),
    ("d", float, 0.0, "DM interaction strength along z (default 0)"),
    ("temperature", float, 0.05, "temperature, energy units with k_B=1 (default 0.05)"),
    ("evolution_model", EVOLUTION_MODELS, "sum",
     "Hamiltonian generating U(t) (default sum)"),
    ("t_start", float, 0.0, "first grid time (default 0)"),
    ("t_max", float, 10.0, "last grid time (default 10)"),
    ("steps", int, 201, "number of grid points (default 201)"),
    ("threshold", float, DEFAULT_THRESHOLD,
     "F threshold defining the scrambling time (default 0.9)"),
    ("out", str, ".", "output directory for CSV/SVG (default current dir)"),
    ("jobs", int, None, "parallel sweep workers (default: available cores)"),
    ("config", str, None, "key=value config file; explicit flags override it"),
    ("d_values", _float_list, DEFAULT_D_VALUES, {
        "sweep-d": "comma-separated DM strengths (default 0,0.25,0.5,0.75,1)",
        "model-select": "DM strengths for the D-trend probe",
    }),
    ("temperatures", _float_list, DEFAULT_T_VALUES, {
        "sweep-t": "comma-separated temperatures (default 0.05,0.5,1,2)",
        "model-select": "temperatures for the T-trend probe",
    }),
)

_CONFIG_KEYS = {dest: str if isinstance(kind, tuple) else kind
                for dest, kind, _, _ in _FLAGS if dest != "config"}


def _parser(with_defaults):
    parser = argparse.ArgumentParser(
        prog="dmscramble",
        description="OTOC scrambling on thermal spin chains with DM interaction",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (subcommand_help, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=subcommand_help)
        for dest, kind, default, flag_help in _FLAGS:
            if isinstance(flag_help, dict):
                if name not in flag_help:
                    continue
                flag_help = flag_help[name]
            parse_as = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=flag_help,
                           default=default if with_defaults else argparse.SUPPRESS,
                           **parse_as)
    return parser


def build_parser():
    return _parser(with_defaults=True)


def _apply_config_file(args, explicit):
    """Fill each key of the flat key=value --config file (flag names, dashes
    or underscores) that this subcommand takes and ``explicit`` lacks."""
    values = {}
    try:
        with open(args.config, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{args.config}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {args.config}: {exc}")
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} in {args.config}")
        if not hasattr(args, key) or key in explicit:
            continue
        try:
            setattr(args, key, _CONFIG_KEYS[key](raw))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"bad value for {key} in {args.config}: {exc}")


def _chain_config(args):
    return ChainConfig(n=args.n, j_ising=args.j_ising, h_x=args.hx, h_z_amp=args.hz_amp,
                       j_x=args.jx, j_y=args.jx, j_z=args.jz, d_strength=args.d,
                       temperature=args.temperature, evolution_model=args.evolution_model)


def _time_grid(args):
    return TimeGrid(t_start=args.t_start, t_end=args.t_max, steps=args.steps)


def _sweep_spec(args, parameter="d_strength", values_dest=None):
    cfg = _chain_config(args)
    values = getattr(args, values_dest) if values_dest else (getattr(cfg, parameter),)
    return SweepSpec(base=cfg, swept_parameter=parameter, values=values,
                     grid=_time_grid(args), threshold=args.threshold)


def _run_sweep(parameter, values_dest, stem, args):
    spec = _sweep_spec(args, parameter, values_dest)
    result = run_sweep(spec, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, stem + ".csv")
    svg_path = os.path.join(args.out, stem + ".svg")
    write_csv(result, csv_path)
    render_svg(result, svg_path)
    for value, t_star in zip(spec.values, result.scrambling_times):
        shown = "never" if t_star is None else f"{t_star:.4f}"
        print(f"  {parameter}={value:g}: t* = {shown}")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _run_model_select(args):
    report = model_selection_report(
        base=_chain_config(args),
        grid=_time_grid(args),
        threshold=args.threshold,
        d_values=args.d_values,
        t_values=args.temperatures,
        jobs=args.jobs,
    )
    print("model      D-trend  T-trend")
    for row in report.rows:
        if row.error is not None:
            print(f"{row.model:<10} error: {row.error}")
        else:
            print(f"{row.model:<10} {str(row.d_trend_ok):<8} {row.t_trend_ok}")
    print(f"recommended: {report.recommended}")
    return 0 if report.recommended != "inconclusive" else 1


def _run_validate_config(args):
    spec = _sweep_spec(args)  # the checks a curve runs on the same flags
    grid = spec.grid
    print("configuration valid:")
    for name in ("n", "j_ising", "h_x", "h_z_amp", "j_x", "j_y", "j_z",
                 "d_strength", "temperature", "evolution_model"):
        print(f"  {name} = {getattr(spec.base, name)}")
    print(f"  grid = [{grid.t_start}, {grid.t_end}] x {grid.steps}")
    print(f"  threshold = {spec.threshold}")
    return 0


# name: (help, runner). A sweep runner is bound to the swept parameter, the
# dest holding its values (a curve sweeps the single --d value) and the
# output stem.
_SUBCOMMANDS = {
    "curve": ("single F(t) curve for one configuration",
              partial(_run_sweep, "d_strength", None, "curve")),
    "sweep-d": ("sweep DM strength at fixed temperature",
                partial(_run_sweep, "d_strength", "d_values", "sweep_d")),
    "sweep-t": ("sweep temperature at fixed DM strength",
                partial(_run_sweep, "temperature", "temperatures", "sweep_t")),
    "model-select": ("probe each evolution model against both sweep trends",
                     _run_model_select),
    "validate-config": ("check a parameter set and print the resolved values",
                        _run_validate_config),
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # A parse without defaults holds just the flags the command line
            # set, matched as argparse matches them (--temp for --temperature).
            _apply_config_file(args, vars(_parser(with_defaults=False).parse_args(argv)))
        return _SUBCOMMANDS[args.subcommand][1](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
