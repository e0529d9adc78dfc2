#!/usr/bin/env python3
"""Interchip-coupling study: sweep the interlayer gap from 0.1 to 4 mm."""

from __future__ import annotations

import argparse
import pathlib

import numpy as np

from flipkit import device
from flipkit.plot import emit_plot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip())
    parser.add_argument("--config", default=None)
    parser.add_argument("--points", type=int, default=40)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    spec = (device.paper_default() if args.config is None
            else device.load_config(args.config))
    # log grid: the capacitance falls off as 1/d so linear spacing wastes
    # most points on the flat tail
    grid = np.geomspace(0.1e-3, 4e-3, args.points)
    table = device.sweep(spec, "interlayer_thickness", grid)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "thickness_sweep.csv").write_text(table.to_csv())
    emit_plot(table, "interlayer_thickness_m", ["g_hz"],
              str(out / "g_vs_thickness.svg"), logx=True, logy=True)
    emit_plot(table, "interlayer_thickness_m", ["crosstalk_db"],
              str(out / "crosstalk_vs_thickness.svg"), logx=True)

    g = table.column("g_hz")
    xt = table.column("crosstalk_db")
    print(f"{table.n_rows} points, d = {grid[0] * 1e3:.3g}..{grid[-1] * 1e3:.3g} mm")
    print(f"g: {g[0] / 1e6:.4g} MHz -> {g[-1] / 1e6:.4g} MHz")
    print(f"crosstalk dip: {xt[0]:.4g} dB -> {xt[-1]:.4g} dB")
    print(f"wrote {out / 'thickness_sweep.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
