"""flipkit: desk-scale models for a two-chip flip-chip quantum device.

The package covers the quantities a designer wants before (and instead
of) a full-wave solve: coplanar-waveguide impedance and synthesis,
quarter-wave resonator bounds, transmon spectra with a charge-basis
cross-check, notch-style scattering responses, interchip coupling
through the interlayer, and loss/T1 budgets, plus a small 2-D
electrostatic solver for cross-section checks.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    constants,
    coupling,
    cpw,
    device,
    fieldsolve,
    loss,
    network,
    numerics,
    transmon,
)
