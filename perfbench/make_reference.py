#!/usr/bin/env python3
"""Regenerate perfbench/reference/ from the flipkit sources in src/.

    python3 perfbench/make_reference.py

Writes the packaged preset's `analyze` report and its two sweep tables
on the CLI grids (interlayer_thickness 0.1mm:4mm:log25, loss_tangent
0:1e-3:log25).  The benchmark compares fresh results against these files
to 1e-9 relative, so regenerate them only for a documented change of
behaviour.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from flipkit import device  # noqa: E402
from workloads import LOSS_GRID, REFERENCE, THICKNESS_GRID  # noqa: E402


def main() -> int:
    spec = device.paper_default()
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "preset_analyze.json").write_text(
        device.analyze(spec).to_json(), encoding="utf-8")
    for name, param, grid in (("preset_thickness.csv",
                               "interlayer_thickness", THICKNESS_GRID),
                              ("preset_loss.csv", "loss_tangent", LOSS_GRID)):
        (REFERENCE / name).write_text(
            device.sweep(spec, param, grid).to_csv(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
