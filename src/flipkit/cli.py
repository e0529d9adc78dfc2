"""Command-line surface.

One subcommand per workflow: `cpw` and `transmon` are single-shot
calculators, `smatrix` synthesizes and re-extracts a notch response,
`match` runs the port-impedance study, `fieldsolve` solves a CPW
cross-section, `analyze` runs the full device report and `sweep` the
parametric tables.  Exit codes: 0 success, 1 invalid input, 2 numerical
failure.  All numbers print with 12 significant digits and no run ever
emits timestamps, so identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import cpw, device, fieldsolve, network, transmon
from .constants import PLANCK_H
from .numerics import RealInterval
from .tables import SweepTable
from .transmon import CutoffError
from .units import parse_quantity, round12

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2

class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-1fF" and "-1e-3" are values that reach their flag's type
        # check; before Python 3.13 argparse took them for flags
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with status 2 on bad flags; here 2 means a
    # numerical failure, so route usage problems through exit code 1
    def error(self, message):
        raise _UsageError(message)


def _quantity(dimension: str):
    """argparse type: SI number, or one with a unit suffix ("5.806um")."""

    def parse(text: str) -> float:
        try:
            return parse_quantity(text, dimension)[0]
        except ValueError as exc:  # argparse would drop the message
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = dimension
    return parse


_scalar = _quantity("scalar")
_length = _quantity("length")
_capacitance = _quantity("capacitance")
_inductance = _quantity("inductance")
_frequency = _quantity("frequency")


def _band(text: str) -> RealInterval:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"band must be lo:hi, got {text!r}")
    try:
        band = RealInterval(_frequency(parts[0]), _frequency(parts[1]))
    except ValueError as exc:  # argparse would drop the message
        raise argparse.ArgumentTypeError(str(exc)) from None
    if band.lo <= 0.0:
        raise argparse.ArgumentTypeError(
            f"band must lie above 0 Hz, got {text!r}")
    return band


def _parse_grid(text: str, dimension: str) -> list[float]:
    """Sweep grid of quantities: "start:stop:N", "start:stop:logN" or
    "a,b,c"; ValueError says what is wrong with it.

    A log grid starting at 0 keeps the zero point and log-spaces the
    rest over the four decades below the stop, which is the useful
    range for loss tangents.
    """
    def value(token: str) -> float:
        return parse_quantity(token, dimension)[0]

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"must be start:stop:count, got {text!r}")
        start, stop = value(parts[0]), value(parts[1])
        count = parts[2].strip()
        is_log = count.startswith("log")
        if is_log:
            count = count[3:]
        try:
            n = int(count)
        except ValueError:
            raise ValueError(f"bad count {parts[2]!r}") from None
        if n < 2:
            raise ValueError("needs at least 2 points")
        if n > network.MAX_GRID_POINTS:
            raise ValueError(f"takes at most {network.MAX_GRID_POINTS} points")
        if not is_log:
            return [float(x) for x in np.linspace(start, stop, n)]
        if start < 0.0 or stop <= 0.0 or start >= stop:
            raise ValueError("a log grid needs 0 <= start < stop, stop > 0")
        if start == 0.0:
            # geomspace of one point is its start, not the stop
            tail = np.geomspace(1e-4 * stop, stop, n - 1) if n > 2 else [stop]
            return [0.0] + [float(x) for x in tail]
        return [float(x) for x in np.geomspace(start, stop, n)]
    points = [value(tok) for tok in text.split(",") if tok.strip()]
    if not points:
        raise ValueError("has no values")
    return points


# output plumbing


def _jsonable(obj):
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _flat_lines(prefix: str, obj, out: list[str]):
    if isinstance(obj, dict):
        if set(obj) == {"value", "by"}:  # provenance pair: show the value
            _flat_lines(prefix, obj["value"], out)
            return
        for k, v in obj.items():
            _flat_lines(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flat_lines(f"{prefix}[{i}]", v, out)
    elif isinstance(obj, float):
        out.append(f"{prefix} = {obj:.12g}")
    else:
        out.append(f"{prefix} = {obj}")


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(_jsonable(payload), indent=2))
    else:
        lines: list[str] = []
        _flat_lines("", payload, lines)
        print("\n".join(lines))


def _name_flags(message: str, args) -> str:
    """message with each library field that a flag of this command feeds
    replaced by that flag."""
    return re.sub(r"\w+", lambda m: args.flags.get(m[0], m[0]), message)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# subcommands


def _cmd_cpw(args) -> dict:
    eps_eff = cpw.effective_permittivity(args.eps_substrate,
                                         args.eps_superstrate)
    if (args.gap is None) == (args.z_target is None):
        raise _UsageError("give exactly one of --s (analyze) or "
                          "--z0 (synthesize the gap)")
    if args.gap is not None:
        gap = args.gap
    else:
        gap = cpw.solve_gap_for_impedance(args.trace_width, eps_eff,
                                          args.z_target)
    return {
        "trace_width_m": args.trace_width,
        "gap_m": gap,
        "eps_eff": eps_eff,
        "z0_ohm": cpw.characteristic_impedance(args.trace_width, gap,
                                               eps_eff),
        "phase_velocity_m_per_s": cpw.phase_velocity(eps_eff),
    }


def _cmd_transmon(args) -> dict:
    pars = transmon.TransmonParams(c_junction=args.c_junction,
                                   c_shunt=args.c_shunt,
                                   l_junction=args.l_junction,
                                   c_eff=args.c_eff)
    nums = transmon.qubit_numbers(pars, args.flux_bias, args.ng, args.cutoff)
    ec, ej = nums["ec"], nums["ej"]
    out = {
        "c_total_f": pars.c_total,
        "ec_hz": ec / PLANCK_H,
        "ej_hz": ej / PLANCK_H,
        "ej_over_ec": transmon.ej_ec_ratio(ec, ej),
        "frequency_hz": nums["frequency"],
        "frequency_cpb_hz": nums["frequency_cpb"],
        "anharmonicity_hz": nums["anharmonicity"],
        "anharmonicity_cpb_hz": nums["anharmonicity_cpb"],
    }
    if args.c_eff is not None:
        out["frequency_c_eff_hz"] = nums["frequency_c_eff"]
    return out


def _cmd_smatrix(args) -> dict:
    res = network.NotchResonator(f_r=args.f_r, q_loaded=args.q_loaded,
                                 q_coupling=args.q_coupling, chi=args.chi)
    span = 20.0 * res.f_r / res.q_loaded if args.span is None else args.span
    if span <= 0.0:
        raise _UsageError("--span must be positive")
    centre = res.dressed_frequency(args.state)  # the dip the trace shows
    band = RealInterval(centre - 0.5 * span, centre + 0.5 * span)
    if band.lo <= 0.0:
        raise _UsageError(f"--span {span:.6g} Hz starts the grid at "
                          f"{band.lo:.6g} Hz: it must lie above 0 Hz, so "
                          "narrow --span")
    grid = network.frequency_grid(band, args.points)
    resp = network.notch_s21(res, grid, qubit_state=args.state)
    if args.out:
        _write_text(args.out, resp.to_csv())
    if args.plot:
        from .plot import emit_plot
        chart = SweepTable("freq_hz", resp.frequencies.tolist(),
                           {"s21_db": resp.magnitude_db().tolist()})
        emit_plot(chart, "freq_hz", ["s21_db"], args.plot)
    out = {
        "f_r_hz": res.f_r,
        "dressed_f_hz": centre,
        "q_loaded": res.q_loaded,
        "q_coupling": res.q_coupling,
        "points": args.points,
        "min_s21_db": float(np.min(resp.magnitude_db())),
    }
    if not args.no_extract:
        f_fit, q_fit, bw = network.extract_q_fwhm(resp)
        out["extracted_f_hz"] = f_fit
        out["extracted_q"] = q_fit
        out["bandwidth_hz"] = bw
    return out


def _cmd_match(args) -> dict:
    if args.zmin <= 0.0:
        raise _UsageError("--zmin must be positive")
    if args.zstep <= 0.0:
        raise _UsageError("--zstep must be positive")
    steps = (args.zmax - args.zmin) / args.zstep
    if not steps < network.MAX_GRID_POINTS - 0.5:  # also an infinite count
        raise _UsageError(f"--zstep {args.zstep!r} over the range "
                          f"{args.zmin:g} to {args.zmax:g} ohm gives more "
                          f"than {network.MAX_GRID_POINTS} port points")
    if abs(steps - round(steps)) > 1e-9:
        raise _UsageError(f"--zstep {args.zstep:g} does not divide the range "
                          f"{args.zmin:g} to {args.zmax:g} ohm")
    n = round(steps) + 1
    if n < 2:
        raise _UsageError("impedance range needs at least 2 points")
    table = SweepTable(param_name="z_port_ohm")
    for z in np.linspace(args.zmin, args.zmax, n):
        worst = network.worst_case_reflection(
            args.line_z0, float(z), args.band, args.line_length,
            args.eps_eff, args.points)
        table.add_row(float(z), worst_s11_db=worst)
    best = int(np.argmin(table.columns["worst_s11_db"]))
    if args.out:
        _write_text(args.out, table.to_csv())
    if args.plot:
        from .plot import emit_plot
        emit_plot(table, "z_port_ohm", ["worst_s11_db"], args.plot)
    return {
        "line_z0_ohm": args.line_z0,
        "band_lo_hz": args.band.lo,
        "band_hi_hz": args.band.hi,
        "grid_points": n,
        "best_z_port_ohm": table.param_values[best],
        "best_worst_s11_db": table.columns["worst_s11_db"][best],
    }


def _cmd_fieldsolve(args) -> dict:
    geometry = cpw.CpwGeometry(trace_width=args.trace_width, gap=args.gap,
                               eps_substrate=args.eps_substrate,
                               eps_superstrate=args.eps_superstrate)
    section = fieldsolve.cpw_cross_section(
        geometry, cell=args.cell, box_factor=args.box_factor,
        interlayer_thickness=args.interlayer_thickness)
    if args.interlayer_thickness is not None and not any(
            c.name == "facing_ground" for c in section.conductors):
        # a ground beyond the box the library leaves out: here it must fit
        raise _UsageError(
            f"--interlayer {args.interlayer_thickness:.6g} m puts the facing "
            f"ground beyond the box half-height ({0.5 * section.height:.6g} m)"
            ": lower --interlayer or raise --box-factor")
    sol = fieldsolve.solve_potential(section)
    if args.dump_potential:
        x, y = np.meshgrid(*section.cell_centers())  # rows run y, then x
        table = SweepTable("x_m", x.ravel().tolist(), {
            "y_m": y.ravel().tolist(), "v": sol.potential.T.ravel().tolist()})
        _write_text(args.dump_potential, table.to_csv())
    c = fieldsolve.capacitance_per_length(sol)
    participation = fieldsolve.energy_participation(sol)
    eps_eff, z0 = fieldsolve.extract_eps_eff_and_z0(section, solution=sol)
    return {
        "nx": section.nx,
        "ny": section.ny,
        "cell_m": section.hx,
        "iterations": sol.iterations,
        "c_per_m": c,
        "c_vacuum_per_m": c / eps_eff,
        "eps_eff": eps_eff,
        "z0_ohm": z0,
        "participation": participation,
    }


def _resolve_config(path: str) -> device.DeviceSpec:
    if os.path.isfile(path):
        return device.load_config(path)
    if os.path.basename(path) in ("paper-default", "paper-default.cfg"):
        return device.paper_default()
    raise _UsageError(f"config file not found: {path}")


def _cmd_analyze(args) -> dict:
    report = device.analyze(_resolve_config(args.config))
    if args.out:
        _write_text(args.out, report.to_json())
    return report.data


def _cmd_sweep(args) -> None:
    spec = _resolve_config(args.config)
    dimension = "length" if args.param == "interlayer_thickness" else "scalar"
    try:
        grid = _parse_grid(args.grid, dimension)
    except ValueError as exc:
        raise _UsageError(f"--grid: {exc}") from None
    table = device.sweep(spec, args.param, grid)
    csv_text = table.to_csv()
    if args.out:
        _write_text(args.out, csv_text)
    if args.plot:
        from .plot import emit_plot
        y_names = args.y.split(",") if args.y else [table.header()[1]]
        emit_plot(table, args.x or table.param_name, y_names, args.plot,
                  logx=args.logx, logy=args.logy)
    if args.json:
        payload = {
            "param_name": table.param_name,
            "columns": table.header(),
            "rows": [list(row) for row in zip(table.param_values,
                                              *table.columns.values())],
        }
        _emit(payload, as_json=True)
    elif not args.out:
        sys.stdout.write(csv_text)


def build_parser() -> _Parser:
    parser = _Parser(prog="flipkit",
                     description="flip-chip device design calculators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cpw", help="CPW impedance analysis / gap synthesis")
    p.add_argument("--w", dest="trace_width", type=_length, required=True,
                   help="trace width, e.g. 10um")
    p.add_argument("--s", dest="gap", type=_length,
                   help="gap; omit when giving --z0")
    p.add_argument("--z0", dest="z_target", type=_scalar,
                   help="target impedance (ohm) to synthesize the gap for")
    p.add_argument("--eps-sub", dest="eps_substrate", type=_scalar,
                   required=True)
    p.add_argument("--eps-sup", dest="eps_superstrate", type=_scalar,
                   default=1.0)
    p.set_defaults(func=_cmd_cpw)

    p = sub.add_parser("transmon", help="transmon energies and levels")
    p.add_argument("--cj", dest="c_junction", type=_capacitance,
                   required=True, help="junction capacitance, e.g. 8fF")
    p.add_argument("--cs", dest="c_shunt", type=_capacitance, required=True,
                   help="shunt capacitance")
    p.add_argument("--lj", dest="l_junction", type=_inductance,
                   required=True, help="junction inductance, e.g. 8.75nH")
    p.add_argument("--c-eff", type=_capacitance, default=None,
                   help="report an extra frequency at this capacitance")
    p.add_argument("--flux", dest="flux_bias", type=_scalar, default=0.0,
                   help="SQUID flux bias in units of Phi0")
    p.add_argument("--ng", type=_scalar, default=0.0)
    p.add_argument("--cutoff", type=int, default=transmon.DEFAULT_CUTOFF)
    p.set_defaults(func=_cmd_transmon)

    p = sub.add_parser("smatrix", help="notch-resonator S21 and Q recovery")
    p.add_argument("--fr", dest="f_r", type=_frequency, required=True,
                   help="resonance frequency, e.g. 7.1GHz")
    p.add_argument("--ql", dest="q_loaded", type=_scalar, required=True,
                   help="loaded Q")
    p.add_argument("--qc", dest="q_coupling", type=_scalar, required=True,
                   help="coupling Q")
    p.add_argument("--chi", type=_frequency, default=0.0,
                   help="dispersive shift for dressed states")
    p.add_argument("--state", type=int, choices=(0, 1), default=0)
    p.add_argument("--span", type=_frequency, default=None,
                   help="grid span (default 20 linewidths)")
    p.add_argument("--points", type=int,
                   default=network.DEFAULT_GRID_POINTS)
    p.add_argument("--no-extract", action="store_true",
                   help="skip the FWHM Q extraction")
    p.add_argument("--out", help="write the trace as CSV")
    p.add_argument("--plot", help="write |S21| in dB as SVG")
    p.set_defaults(func=_cmd_smatrix)

    p = sub.add_parser("match", help="worst-case reflection vs port Z")
    p.add_argument("--line-z0", type=_scalar, required=True,
                   help="impedance of the line under test (ohm)")
    p.add_argument("--band", type=_band, required=True,
                   help="frequency band lo:hi, e.g. 4GHz:8GHz")
    p.add_argument("--line-length", type=_length, default=2e-3)
    p.add_argument("--eps-eff", type=_scalar, default=6.45)
    p.add_argument("--zmin", type=_scalar, default=40.0)
    p.add_argument("--zmax", type=_scalar, default=60.0)
    p.add_argument("--zstep", type=_scalar, default=0.1)
    p.add_argument("--points", type=int, default=201,
                   help="frequency samples across the band")
    p.add_argument("--out", help="write the study as CSV")
    p.add_argument("--plot", help="write the study as SVG")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("fieldsolve", help="solve a CPW cross-section")
    p.add_argument("--w", dest="trace_width", type=_length, required=True)
    p.add_argument("--s", dest="gap", type=_length, required=True)
    p.add_argument("--eps-sub", dest="eps_substrate", type=_scalar,
                   required=True)
    p.add_argument("--eps-sup", dest="eps_superstrate", type=_scalar,
                   default=1.0)
    p.add_argument("--cell", type=_length, default=0.5e-6)
    p.add_argument("--box-factor", type=_scalar,
                   default=fieldsolve.MIN_BOX_FACTOR)
    p.add_argument("--interlayer", dest="interlayer_thickness", type=_length,
                   help="facing-chip ground height above the trace")
    p.add_argument("--dump-potential",
                   help="write the potential grid as x,y,V CSV rows")
    p.set_defaults(func=_cmd_fieldsolve)

    p = sub.add_parser("analyze", help="full device report from a config")
    p.add_argument("--config", default="paper-default",
                   help="config path or the packaged preset name")
    p.add_argument("--out", help="also write the JSON report to a file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="parametric sweep to CSV/SVG")
    p.add_argument("--config", default="paper-default")
    p.add_argument("--param", required=True,
                   choices=device.SWEEP_PARAMETERS)
    p.add_argument("--grid", required=True,
                   help="start:stop:N, start:stop:logN or v1,v2,...")
    p.add_argument("--out", help="write the table as CSV")
    p.add_argument("--plot", help="write an SVG chart")
    p.add_argument("--x", help="x column for the plot (default: parameter)")
    p.add_argument("--y", help="comma-separated y columns for the plot")
    p.add_argument("--logx", action="store_true")
    p.add_argument("--logy", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        # library field -> the value flag that feeds it, so that an error
        # names the flag; string flags stay out, their dests are words
        sp.set_defaults(flags={a.dest: a.option_strings[0]
                               for a in sp._actions if a.type is not None})
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`flipkit ... | head`): stop quietly, and
        # send what is still buffered to devnull so that the flush at
        # exit cannot fail again; 1 is Python's own exit code on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"flipkit: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        payload = args.func(args)
    except (CutoffError, fieldsolve.ConvergenceError,
            network.ExtractionError) as exc:
        print(f"flipkit: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:  # a closed stdout is main's to handle
        raise
    except _UsageError as exc:  # already names its flag
        print(f"flipkit: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, OSError) as exc:
        print(f"flipkit: {_name_flags(str(exc), args)}", file=sys.stderr)
        return EXIT_INVALID
    if payload is not None:
        _emit(payload, as_json=args.json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
