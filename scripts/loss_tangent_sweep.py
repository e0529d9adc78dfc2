#!/usr/bin/env python3
"""Loss study: qubit Q and T1 bound versus interlayer loss tangent.

Sweeps tan_delta over a log grid, writes the sweep CSV plus a log-log
plot, and prints the fitted Q-vs-tan_delta power-law slope (expected to
approach -1 once the dielectric term dominates the baseline).
"""

from __future__ import annotations

import argparse
import pathlib

import numpy as np

from flipkit import device
from flipkit.plot import emit_plot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None)
    parser.add_argument("--lo", type=float, default=1e-4)
    parser.add_argument("--hi", type=float, default=1e-2)
    parser.add_argument("--points", type=int, default=25)
    parser.add_argument("--out", default="out")
    args = parser.parse_args(argv)

    spec = (device.paper_default() if args.config is None
            else device.load_config(args.config))
    grid = np.geomspace(args.lo, args.hi, args.points)
    table = device.sweep(spec, "loss_tangent", grid)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "loss_tangent_sweep.csv").write_text(table.to_csv())
    emit_plot(table, "tan_delta", ["q_total_bottom", "q_total_top"],
              str(out / "q_vs_tan_delta.svg"), logx=True, logy=True)
    emit_plot(table, "tan_delta", ["t1_upper_bottom_s", "t1_upper_top_s"],
              str(out / "t1_vs_tan_delta.svg"), logx=True, logy=True)

    for side in ("bottom", "top"):
        q = np.asarray(table.column(f"q_total_{side}"))
        slope = np.polyfit(np.log10(grid), np.log10(q), 1)[0]
        t1 = table.column(f"t1_upper_{side}_s")
        print(f"{side}: slope d(log Q)/d(log tan_delta) = {slope:+.3f}, "
              f"T1 bound {t1[0] * 1e6:.4g} -> {t1[-1] * 1e6:.4g} us")
    print(f"wrote {out / 'loss_tangent_sweep.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
