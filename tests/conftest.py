import pytest
from hypothesis import HealthCheck, settings

from flipkit.fieldsolve import Conductor, CrossSection, DielectricRegion, Rect

# field solves and CPB diagonalizations blow past the default deadline on
# loaded CI boxes; wall-time limits belong to the acceptance tests instead
settings.register_profile(
    "flipkit",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("flipkit")


@pytest.fixture
def plate_section():
    """Builder of two full-width plates separated by gap_cells of dielectric.

    The plates are strips on the face lines y_lo and y_hi.  Insulated
    walls remove fringing entirely, so C' = eps W / d holds exactly up
    to discretization, and the cells outside the plates hold their
    plate's potential.
    """

    def build(eps_r=1.0, nx=64, ny=32, gap_cells=16):
        w, h = 64e-6, 32e-6
        hy = h / ny
        y_lo = (ny - gap_cells) / 2 * hy
        y_hi = y_lo + gap_cells * hy
        return CrossSection(
            width=w, height=h, nx=nx, ny=ny,
            regions=[DielectricRegion("fill", Rect(0, w, 0, h), eps_r)],
            conductors=[Conductor("top", Rect(0, w, y_hi, y_hi), 1.0),
                        Conductor("bottom", Rect(0, w, y_lo, y_lo), 0.0)],
            x_bc="neumann", y_bc="neumann")

    return build
