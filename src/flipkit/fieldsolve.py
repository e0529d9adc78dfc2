"""2-D electrostatic cross-section solver.

Solves div(eps grad V) = 0 on a rectangular box of nx x ny cells with
piecewise-constant permittivity, by conjugate gradients on the
flux-conserving five-point stencil, preconditioned by one geometric
multigrid W-cycle per iteration, whose coarsest grid is solved by a
Cholesky factor formed in numpy.  Unknowns sit at cell centers.
Conductors are zero-thickness horizontal strips on a face line, as
thin-film metal is.  The discrete system has two parts: couplings
between neighbouring cells, each carrying the harmonic mean of the two
permittivities (the exact series composition for interfaces aligned
with the grid), and pins, one per face where a cell meets a fixed
potential (a grounded wall, or either side of a strip), which tie the
cell to that potential across half a cell.  The solver and the energy
extraction both read this one model.  Before it iterates, the solver
cuts the system down to the cells that carry field, exactly.  Rows
behind a face line cut by metal across the whole width, with no source
beyond it (the band behind a full-width facing ground), hold exactly
zero and are dropped.  A system whose halves about the middle of x or
of y are scaled mirror images has an even potential, so no flux
crosses that middle: it is solved on one half and mirrored.  An open
CPW is such an image in both axes, a section with a facing ground in
x only.

Each solve sums the discrete field energy of every dielectric region
once, over the cells it solved, each mirrored copy weighted by its fold
scale.  From it the module takes the per-unit-length capacitance (C =
2U/V^2), each region's share of the energy, and, with the all-vacuum
capacitance, the effective permittivity and characteristic impedance of
a transmission-line section.  A section whose permittivity depends on y
alone and changes only on face lines that carry metal, as a CPW's and
its all-vacuum copy's do, needs no iteration: a sine transform across x
and a closed form along y leave those lines' free faces as unknowns, one
small dense solve, and give the exact potential that CG starts from.

The box walls are grounded by default.  Tests and idealized parallel
plate sections may instead ask for insulated (zero normal flux) walls,
which kill fringing where a closed form is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import C_LIGHT, EPS_0
from .cpw import CpwGeometry

__all__ = [
    "Rect",
    "DielectricRegion",
    "Conductor",
    "CrossSection",
    "FieldSolution",
    "ConvergenceError",
    "solve_potential",
    "capacitance_per_length",
    "extract_eps_eff_and_z0",
    "energy_participation",
    "cpw_cross_section",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 100
MAX_CELLS_PER_SIDE = 2048  # a CPW section takes ~300 B per cell
MIN_BOX_FACTOR = 10.0  # CPW box width in apertures; also the default


class ConvergenceError(RuntimeError):
    """The solver failed to reach the residual tolerance."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle.  Zero height marks a horizontal strip."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("rectangle edges out of order")

    @property
    def is_strip(self) -> bool:
        return self.y1 == self.y0


@dataclass(frozen=True)
class DielectricRegion:
    name: str
    rect: Rect
    eps_r: float

    def __post_init__(self):
        if not 0.0 < self.eps_r < math.inf:
            raise ValueError(
                f"eps_r of {self.name!r} must be positive and finite")
        if self.rect.is_strip or self.rect.x1 == self.rect.x0:
            raise ValueError(f"region {self.name!r} must have area")


@dataclass(frozen=True)
class Conductor:
    """A zero-thickness strip at a fixed potential: rect has no height."""

    name: str
    rect: Rect
    potential: float

    def __post_init__(self):
        if not self.rect.is_strip:
            raise ValueError(f"conductor {self.name!r} must be a strip: "
                             "its rect has height")


@dataclass
class CrossSection:
    """Rectangular solve domain: geometry, materials, electrodes, walls.

    width and height are in meters, split into nx x ny equal cells.
    origin is the physical coordinate of the lower-left corner.  Every
    cell center must fall in exactly one dielectric region.  x_bc and
    y_bc are each grounded or neumann.
    """

    width: float
    height: float
    nx: int
    ny: int
    regions: list[DielectricRegion] = field(default_factory=list)
    conductors: list[Conductor] = field(default_factory=list)
    origin: tuple[float, float] = (0.0, 0.0)
    x_bc: str = "grounded"
    y_bc: str = "grounded"

    def __post_init__(self):
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("domain must have positive size")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("need at least one cell per direction")
        if self.x_bc not in ("grounded", "neumann"):
            raise ValueError(f"unknown x boundary {self.x_bc!r}")
        if self.y_bc not in ("grounded", "neumann"):
            raise ValueError(f"unknown y boundary {self.y_bc!r}")
        if not self.regions:
            raise ValueError("at least one dielectric region is required")

    @property
    def hx(self) -> float:
        return self.width / self.nx

    @property
    def hy(self) -> float:
        return self.height / self.ny

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        ox, oy = self.origin
        xs = ox + (np.arange(self.nx) + 0.5) * self.hx
        ys = oy + (np.arange(self.ny) + 0.5) * self.hy
        return xs, ys


@dataclass
class FieldSolution:
    """Converged potential with the assembled problem kept for reuse.

    iterations counts conjugate-gradient steps of the reduced solve
    (folded and cut down, see solve_potential), 0 when the direct start
    already met the tolerance; residual is the final
    |b - A v| / |b| of the full system, which the reduced one shares.
    energy is the field energy of each region of section.regions over
    the whole section, in J/m, summed once by the solve over the cells
    it solved (see _region_energies).  _cells names those cells (see
    _copies).
    """

    section: CrossSection
    potential: np.ndarray
    iterations: int
    residual: float
    energy: np.ndarray
    _problem: "_Problem"
    _cells: tuple


class _Problem:
    """The section's discrete system: cell couplings plus pins.

    fx and fy couple neighbouring cells across interior x and y faces,
    zero across a strip; links lists each with the index of its cells on
    either side.  pin_cell (flat cell index), pin_coef and pin_val list
    every face of a cell that touches a grounded wall or a strip.  diag
    and b are the operator diagonal and right-hand side, pins the part
    of diag that the pins make up.  strips lists each conductor as
    (columns it covers, face line, potential), and grounded says per
    axis, x then y, whether its walls are grounded.  Couplings and pins
    are in units of EPS_0 and include the cell aspect ratio.  This is
    the only place that reads the wall types.
    """

    def __init__(self, section: CrossSection):
        self.section = section
        nx, ny = section.nx, section.ny
        hx, hy = section.hx, section.hy
        xs, ys = section.cell_centers()

        # paint dielectric regions; every cell must be claimed once
        region_id = np.full((nx, ny), -1, dtype=int)
        eps = np.zeros((nx, ny))
        self.region_names = [r.name for r in section.regions]
        if len(set(self.region_names)) != len(self.region_names):
            raise ValueError("region names must be unique")
        xg = xs[:, None]
        yg = ys[None, :]
        for ridx, reg in enumerate(section.regions):
            inside = ((xg >= reg.rect.x0) & (xg <= reg.rect.x1) &
                      (yg >= reg.rect.y0) & (yg <= reg.rect.y1))
            clash = inside & (region_id >= 0)
            if clash.any():
                raise ValueError(f"region {reg.name!r} overlaps another")
            region_id[inside] = ridx
            eps[inside] = reg.eps_r
        if (region_id < 0).any():
            raise ValueError("dielectric regions do not cover the domain")
        self.region_id = region_id
        self.eps = eps

        # electrodes: a strip cuts its face line, so no coupling crosses
        # it, and pins the cell on either side
        self.potentials = [cond.potential for cond in section.conductors]
        self.grounded = [bc == "grounded" for bc in (section.x_bc,
                                                     section.y_bc)]
        if any(self.grounded):
            self.potentials.append(0.0)
        if not self.potentials:
            raise ValueError("no electrodes in the section")
        strips: list[tuple[np.ndarray, int, float]] = []
        cut = np.zeros((nx, ny - 1), dtype=bool)  # face below row m at m - 1
        for cond in section.conductors:
            r = cond.rect
            fy = (r.y0 - section.origin[1]) / hy
            m = round(fy)
            if abs(fy - m) > 1e-6:
                raise ValueError(
                    f"strip {cond.name!r} does not sit on a face line")
            if not 1 <= m <= ny - 1:
                raise ValueError(
                    f"strip {cond.name!r} lies on or outside the walls")
            cols = (xs >= r.x0) & (xs <= r.x1)
            if not cols.any():
                raise ValueError(f"strip {cond.name!r} covers no cells")
            if cut[cols, m - 1].any():
                raise ValueError("strips overlap on a shared face")
            cut[cols, m - 1] = True
            strips.append((cols, int(m), cond.potential))

        self.strips = strips
        cells = np.arange(nx * ny).reshape(nx, ny)
        pins = []

        def pin(at, ratio, value):
            """Pin the cells at index `at` to value across half a cell."""
            coef = ratio * (2.0 * eps[at])
            pins.append((cells[at], coef, np.full_like(coef, value)))

        def couple(a, b, ratio):
            """Harmonic-mean couplings between the cells a and b, eps
            itself where equal: 2 e e / (e + e) misses 6.45 by an ulp."""
            ea, eb = eps[a], eps[b]
            t, mixed = ratio * ea, ea != eb
            ea, eb = ea[mixed], eb[mixed]
            t[mixed] = ratio * (2.0 * ea * eb / (ea + eb))
            return t

        every = slice(None)
        x_faces = ((slice(None, -1), every), (slice(1, None), every))
        y_faces = ((every, slice(None, -1)), (every, slice(1, None)))
        self.fx = couple(*x_faces, hy / hx)
        self.fy = np.where(cut, 0.0, couple(*y_faces, hx / hy))
        self.links = [(self.fx, *x_faces), (self.fy, *y_faces)]
        if self.grounded[0]:
            for i in (0, -1):
                pin((i, every), hy / hx, 0.0)
        if self.grounded[1]:
            for j in (0, -1):
                pin((every, j), hx / hy, 0.0)
        for cols, m, pot in strips:
            for j in (m - 1, m):
                pin((cols, j), hx / hy, pot)
        self.pin_cell, self.pin_coef, self.pin_val = (
            np.concatenate(group) for group in zip(*pins))

        self.pins = np.bincount(self.pin_cell, weights=self.pin_coef,
                                minlength=nx * ny).reshape(nx, ny)
        self.diag = self.pins.copy()
        self.b = np.bincount(self.pin_cell, self.pin_coef * self.pin_val,
                             nx * ny).reshape(nx, ny)
        for t, a, b in self.links:
            self.diag[a] += t
            self.diag[b] += t


# neighbours west, east, south, north; quadrants of red, black cells
_SHIFTS = ((-1, 0), (1, 0), (0, -1), (0, 1))
_QUADS = (((0, 0), (1, 1)), ((1, 0), (0, 1)))


class _Level:
    """One grid of the multigrid hierarchy: a five-point SPD operator.

    diag, fx and fy are as in _Problem.  Padding cells have zero
    diagonal and couplings, so they stay at zero.
    Sides are padded to a multiple of 4, so that this grid and the
    coarse one split into whole quadrants.
    A vector holds cell (2i + a, 2j + b) at [a, b, i, j]; an iterate,
    with a ghost ring, at [a, b, i + 1, j + 1].  Then one neighbour of
    all cells of a colour (red is a + b even) is one view contiguous
    along y, and a 2 x 2 block is one [i, j] across the quadrants.  The
    level owns the cycle's iterate x and right-hand side r.
    """

    def __init__(self, diag: np.ndarray, fx: np.ndarray, fy: np.ndarray):
        self.nx, self.ny = nx, ny = diag.shape
        self.mx, self.my = mx, my = 4 * -(-nx // 4), 4 * -(-ny // 4)
        self.h, self.w = h, w = mx // 2, my // 2
        # couplings to _SHIFTS neighbours, diag, 1 / diag; per colour in coef
        self.c = c = np.zeros((6, mx, my))
        c[0, 1:nx, :ny] = c[1, :nx - 1, :ny] = fx
        c[2, :nx, 1:ny] = c[3, :nx, :ny - 1] = fy
        c[4, :nx, :ny] = diag
        np.divide(1.0, c[4], out=c[5], where=c[4] > 0.0)
        self.diag = c[4]
        quads = c.reshape(6, h, 2, w, 2).transpose(0, 2, 4, 1, 3).copy()
        self.coef = [[self._view(q, k) for q in quads] for k in (0, 1)]
        self.x, self.r = np.zeros((2, 2, h + 2, w + 2)), np.zeros((2, 2, h, w))
        self.xv = self.bind(self.x)
        self.rv = [self._view(self.r, colour) for colour in (0, 1)]
        self.num, self.tmp = np.empty((2, h, w)), np.empty((2, h, w))
        self.up = np.empty((h, w))

    def _view(self, a: np.ndarray, colour: int, shift=(0, 0)) -> np.ndarray:
        """(2, h, w) view of the contiguous quadrant array a at the cells
        of one colour, each moved to its neighbour at shift."""
        pad, (dx, dy), st = (a.shape[2] - self.h) // 2, shift, a.strides
        o0, o1 = (((p + dx) % 2) * st[0] + ((q + dy) % 2) * st[1] +
                  (pad + (p + dx) // 2) * st[2] + (pad + (q + dy) // 2) * st[3]
                  for p, q in _QUADS[colour])
        return np.ndarray((2, self.h, self.w), a.dtype, a, o0,
                          (o1 - o0,) + st[2:])

    def bind(self, u: np.ndarray):
        """Per colour, views of u at the _SHIFTS neighbours and in place."""
        return [[self._view(u, colour, s) for s in (*_SHIFTS, (0, 0))]
                for colour in (0, 1)]

    def split(self, v: np.ndarray) -> np.ndarray:
        """The nx x ny array v in quadrant storage."""
        v = np.pad(v, ((0, self.mx - self.nx), (0, self.my - self.ny)))
        return v.reshape(self.h, 2, self.w, 2).transpose(1, 3, 0, 2).copy()

    def join(self, u: np.ndarray) -> np.ndarray:
        """The quadrant array u, an iterate or not, as an nx x ny array."""
        p = (u.shape[2] - self.h) // 2
        return u[:, :, p:p + self.h, p:p + self.w].transpose(
            2, 0, 3, 1).reshape(self.mx, self.my)[:self.nx, :self.ny]

    def _pull(self, colour: int, bound, out: np.ndarray) -> np.ndarray:
        """out = sum of coupling x neighbour over the four faces."""
        c, v = self.coef[colour], bound[colour]
        np.multiply(c[0], v[0], out=out)
        for k in (1, 2, 3):
            out += np.multiply(c[k], v[k], out=self.tmp)
        return out

    def apply(self, bound, out: np.ndarray) -> np.ndarray:
        """out = A u for the iterate u that bound came from."""
        for colour in (0, 1):
            pull = self._pull(colour, bound, self.num)
            res = np.multiply(self.coef[colour][4], bound[colour][4],
                              out=self._view(out, colour))
            res -= pull
        return out

    def sweep(self, colour: int, zero: bool = False) -> None:
        """A Gauss-Seidel half-sweep of A x = r over one colour; zero
        says x is zero on the other one, so there are no neighbours."""
        num = self.rv[colour]
        if not zero:
            num = self._pull(colour, self.xv, self.num)
            num += self.rv[colour]
        np.multiply(num, self.coef[colour][5], out=self.xv[colour][4])

    def restrict(self) -> None:
        """Coarse r = r - A x summed over 2 x 2 blocks, right after a
        black half-sweep, which leaves residual on red cells only."""
        blocks = (self.h // 2, 2, self.w // 2, 2)
        res = self._pull(0, self.xv, self.num)
        res += self.rv[0]
        res -= np.multiply(self.coef[0][4], self.xv[0][4], out=self.tmp)
        np.add(res[0].reshape(blocks), res[1].reshape(blocks),
               out=self.coarse_r)

    def prolong(self, gain: float) -> None:
        """x += gain times the coarse iterate, constant on each block."""
        np.multiply(self.coarse_x, gain,
                    out=self.up.reshape(self.h // 2, 2, self.w // 2, 2))
        self.x[:, :, 1:-1, 1:-1] += self.up

    def coarsen(self) -> "_Level":
        """Galerkin operator of 2 x 2 piecewise-constant aggregation: a
        coarse face coupling sums the fine ones across it, and those
        inside a block drop out of the diagonal.  Links this level to
        the coarse r and x in natural order."""
        ce, cn, d = (self.c[k].reshape(self.h, 2, self.w, 2)
                     for k in (1, 3, 4))  # indexed [i, a, j, b]
        diag = d.sum(axis=(1, 3)) - 2.0 * (ce[:, 0].sum(2) + cn[..., 0].sum(1))
        cx, cy = (self.nx + 1) // 2, (self.ny + 1) // 2
        coarse = _Level(diag[:cx, :cy], ce[:, 1].sum(2)[:cx - 1, :cy],
                        cn[..., 1].sum(1)[:cx, :cy - 1])
        blocks = (slice(self.h // 2), slice(None), slice(self.w // 2))
        self.coarse_r, self.coarse_x = (
            a.transpose(2, 0, 3, 1)[blocks]
            for a in (coarse.r, coarse.x[:, :, 1:-1, 1:-1]))
        return coarse


class _Multigrid:
    """One W-cycle from a zero guess, used as the CG preconditioner.

    Each level takes two half-sweeps of red-black Gauss-Seidel before
    its coarse correction (red, then black) and two after in reverse
    order, which keeps the cycle symmetric as conjugate gradients
    needs.  Aggregation makes each coarse operator about twice as stiff
    as a rediscretized one, so the coarse correction is scaled by
    COARSE_GAIN (below 2 the cycle stays positive definite).  Every
    coarse level but the last is cycled twice per visit, a W-cycle:
    a V-cycle compounds the scaling error level by level, and its CG
    iteration count grew from 12 to 27 between 2 and 0.25 um cells.
    A visit's first half-sweep has no neighbour terms, and only red
    cells have residual to restrict.  The coarsest grid, at most
    COARSEST_CELLS cells, is solved by its Cholesky factor, in numpy
    (_cholesky_inverse): LAPACK's at that size now and then stalls.
    """

    COARSE_GAIN = 1.9
    COARSEST_CELLS = 256

    def __init__(self, fine: _Level):
        self.levels = [fine]
        while self.levels[-1].nx * self.levels[-1].ny > self.COARSEST_CELLS:
            self.levels.append(self.levels[-1].coarsen())
        last = self.levels[-1]
        idx = np.arange(last.mx * last.my).reshape(last.mx, last.my)
        a = np.diag(last.diag.ravel())  # the operator, dense, row-major
        for c, (dx, dy) in zip(last.c, _SHIFTS):  # coupling past an edge: 0
            a[idx, np.roll(idx, (-dx, -dy), (0, 1))] -= c
        cells = np.flatnonzero(last.diag > 0.0)  # row-major: a narrow band
        self.factor = _cholesky_inverse(a[np.ix_(cells, cells)])
        xs, ys = np.divmod(cells, last.my)
        at = (xs % 2, ys % 2, xs // 2, ys // 2)
        self.rows = np.ravel_multi_index(at, last.r.shape)
        self.slots = np.ravel_multi_index(at[:2] + (at[2] + 1, at[3] + 1),
                                          last.x.shape)
        self.rhs, self.sol = last.r.reshape(-1), last.x.reshape(-1)

    def __call__(self, k: int = 0, zero: bool = True) -> np.ndarray:
        """Improve and return level k's x towards A_k x = r_k, where zero
        says x starts at zero: called bare, z = M r for the fine r."""
        lv, last = self.levels[k], len(self.levels) - 1
        if k == last:
            # einsum's own loops, not BLAS matrix-vector products (_dot)
            y = np.einsum("ij,j->i", self.factor, self.rhs[self.rows])
            self.sol[self.slots] = np.einsum("ji,j->i", self.factor, y)
            return lv.x
        lv.sweep(0, zero)
        lv.sweep(1)
        lv.restrict()
        for visit in range(1 if k + 1 == last else 2):
            self(k + 1, visit == 0)
        lv.prolong(self.COARSE_GAIN)
        lv.sweep(1)
        lv.sweep(0)
        return lv.x


def _cholesky_inverse(a: np.ndarray) -> np.ndarray:
    """X = L^-1 for the Cholesky factor A = L L^T of an SPD matrix, so
    A^-1 = X^T X.  With nonzeros at most `band` off the diagonal, L has
    that band too: step k factors the block of rows and columns k to
    k + band, and takes column k of L out of the rows of X below it
    (forward substitution on I).  A pivot not positive is a ValueError."""
    a = np.array(a, dtype=float)
    rows, cols = np.nonzero(a)
    band = int(np.abs(rows - cols).max(initial=0))
    x = np.eye(len(a))
    for k in range(len(a)):
        blk = a[k:k + band + 1, k:k + band + 1]
        if not blk[0, 0] > 0.0:  # also NaN
            raise ValueError(f"coarsest operator is not positive definite: "
                             f"pivot {k} is {blk[0, 0]:.6g}")
        pivot = math.sqrt(blk[0, 0])
        col = blk[1:, :1] / pivot  # column k of L, below the diagonal
        blk[1:, 1:] -= col * col.T
        x[k, :k + 1] /= pivot
        x[k + 1:k + band + 1, :k + 1] -= col * x[k, :k + 1]
    return x


def _check_limits(tol: float, max_sweeps: int) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # a numpy reduction, not np.vdot: pairwise summation gives the same
    # bits at any BLAS thread count, and no BLAS worker is left spinning
    return float((a * b).sum())


def solve_potential(section: CrossSection, tol: float = DEFAULT_TOL,
                    max_sweeps: int = DEFAULT_MAX_SWEEPS) -> FieldSolution:
    """Solve the section to a potential map.

    Conjugate gradients on the flux-conserving system, preconditioned
    by one multigrid W-cycle, stop once the relative residual
    |b - A v| / |b| is at most tol.  They start from the exact potential
    of a section layered in y (_direct_start), as every CPW section is,
    and take 0 iterations unless tol is below its rounding residual,
    ~1e-15; from zero, 8-11 at the default tol, 4 to 0.25 um cells.
    Only the cells that carry field are solved: rows behind a full-width
    strip with no source beyond it are dropped, where the potential is
    exactly zero, and a system whose halves are scaled mirror images in
    x or y is solved on one half (an open CPW on a quarter of its
    cells).  The residual is the full system's either way, and
    iterations are counted on the reduced one.  Raises ConvergenceError
    when max_sweeps iterations do not get there.
    """
    prob = _Problem(section)
    return _solve(prob, _direct_start(prob), tol, max_sweeps)


def _live_rows(fy: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """Rows lo:hi outside which the potential is exactly zero.

    A face line cut by metal across the whole width (fy zero on every
    face of it) couples nothing across it, so the rows beyond it form a
    system of their own.  When b is zero on all of them, the potential
    there is zero: the band behind a full-width facing ground.  The band
    kept runs from the last such line before the first row with a
    source to the first one after the last.
    """
    ny = b.shape[1]
    cut = np.flatnonzero(~fy.any(axis=0))  # line m lies below row m + 1
    live = np.flatnonzero(b.any(axis=0))
    if not live.size:
        return 0, ny
    below, above = np.searchsorted(cut, live[[0, -1]])
    return (cut[below - 1] + 1 if below else 0,
            cut[above] + 1 if above < len(cut) else ny)


def _fold(axis: int, diag: np.ndarray, fx: np.ndarray, fy: np.ndarray,
          b: np.ndarray, pins: np.ndarray
          ) -> tuple[float, list[np.ndarray]] | None:
    """The system's upper half along axis, or None if it does not fold.

    pins is the pin part of diag.  When the lower half's couplings, pins
    and b are exactly s > 0 times the mirror image of the upper half's,
    the potential is even about the middle face line, so no flux crosses
    it: the upper half, with that line's coupling taken off its
    diagonal, has the same solution.  On an open CPW s is eps_sub /
    eps_il in y and 1 in x.  diag itself is not compared, since the
    order of its sums rounds differently in mirrored cells.  Returns s
    and [diag, fx, fy, b, pins] of the upper half.
    """
    n = diag.shape[axis]
    if n % 2:
        return None
    h = n // 2

    def lines(a: np.ndarray, start: int, stop: int | None = None):
        return a[(slice(None),) * axis + (slice(start, stop),)]

    halves = [(lines(a, 0, a.shape[axis] - h), np.flip(lines(a, h), axis))
              for a in (pins, b, fx, fy)]
    low, up = halves[0]
    k = np.argmax(up)
    if not up.flat[k] > 0.0:
        return None
    s = low.flat[k] / up.flat[k]
    if not (s > 0.0 and all(np.array_equal(low, s * up)
                            for low, up in halves)):
        return None
    upper = [lines(a, h) for a in (diag, fx, fy, b, pins)]
    upper[0] = upper[0].copy()
    lines(upper[0], 0, 1)[...] -= lines((fx, fy)[axis], h - 1, h)
    return s, upper


def _copies(a: np.ndarray, cells: tuple) -> list[tuple[float, np.ndarray]]:
    """Views of the full-grid cell array a, one per copy of the solved
    cells, each with the product of its fold scales; the solved cells
    first.  cells is (rows, folds): the live rows, then each fold taken
    as (axis, s).  A mirror half is flipped onto the upper one.
    """
    rows, folds = cells
    views = [(1.0, a[:, rows])]
    for axis, s in folds:
        views = [pair for w, view in views
                 for low, up in [np.split(view, 2, axis)]
                 for pair in ((w, up), (w * s, np.flip(low, axis)))]
    return views


def _solve(prob: _Problem, start: np.ndarray | None, tol: float,
           max_sweeps: int) -> FieldSolution:
    """Multigrid-preconditioned conjugate gradients on the cells.

    The system is first reduced to the smallest one with the same
    solution: the rows behind a full-width cut with no source are
    dropped (_live_rows), and what is left is folded once in x and once
    in y where it is a scaled mirror image (_fold).  The solution of
    that system is expanded back to the full grid.
    Convergence is |b - A v| <= tol |b| in the 2-norm, confirmed on the
    recomputed residual so that drift in the recurrence cannot stop it
    early.  start, when given, is a full potential map to iterate from,
    cut down as the system is; one that already meets the tolerance is
    returned unchanged.  The residual is the fine level's r, which the
    preconditioner reads.  It is also the full system's: the dropped
    rows have r = b = 0, and folding with scale s scales |b - A v| and
    |b| alike by sqrt(1 + s^2), so the stop test reads the same number.
    """
    _check_limits(tol, max_sweeps)
    lo, hi = _live_rows(prob.fy, prob.b)
    rows, faces = slice(lo, hi), slice(lo, hi - 1)
    system = [prob.diag[:, rows], prob.fx[:, rows], prob.fy[:, faces],
              prob.b[:, rows], prob.pins[:, rows]]
    folds = []
    for axis in (0, 1):
        fold = _fold(axis, *system)
        if fold is not None:
            folds.append((axis, fold[0]))
            system = fold[1]
    cells = (rows, folds)
    diag, fx, fy, b, _ = system
    fine = _Level(diag, fx, fy)
    b, x, p = fine.split(b), np.zeros_like(fine.x), np.zeros_like(fine.x)
    if start is not None:
        x[:, :, 1:-1, 1:-1] = fine.split(_copies(start, cells)[0][1])
    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0.0:
        x[:] = 0.0
        bnorm = 1.0
    r, q, x_at, p_at = fine.r, np.empty_like(b), fine.bind(x), fine.bind(p)

    def recomputed() -> float:
        np.subtract(b, fine.apply(x_at, r), out=r)
        return math.sqrt(_dot(r, r)) / bnorm

    rel = recomputed()
    precondition, rz_old, iterations = None, 0.0, 0
    while rel > tol and iterations < max_sweeps:
        if precondition is None:
            precondition = _Multigrid(fine)
        z = precondition()
        rz = _dot(r, z[:, :, 1:-1, 1:-1])
        if rz_old:
            p *= rz / rz_old
            p += z
        else:
            p[...] = z
        fine.apply(p_at, q)
        pq = _dot(p[:, :, 1:-1, 1:-1], q)
        if not (rz > 0.0 and pq > 0.0):  # breakdown, or non-finite values
            rel = math.nan
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rz_old = rz
        iterations += 1
        rel = math.sqrt(_dot(r, r)) / bnorm
        if rel <= tol:
            rel = recomputed()
            rz_old = 0.0  # restart the recurrence if the check failed
    if not rel <= tol:
        raise ConvergenceError(
            f"no convergence after {iterations} iterations: relative "
            f"residual {rel:.3e} above tol {tol:.3e}; raise max_sweeps "
            "(--max-sweeps), loosen tol (--tol) or change the cell size "
            "(--cell)")
    u = fine.join(x)
    for axis, _ in reversed(folds):
        u = np.concatenate([np.flip(u, axis), u], axis)
    v = np.zeros(prob.b.shape)
    v[:, rows] = u
    return FieldSolution(section=prob.section, potential=v,
                         iterations=iterations, residual=rel,
                         energy=_region_energies(prob, v, fx, fy, cells),
                         _problem=prob, _cells=cells)


def _region_energies(prob: _Problem, v: np.ndarray, fx: np.ndarray,
                     fy: np.ndarray, cells: tuple) -> np.ndarray:
    """Field energy of the map v in each region, in J/m, cell by cell.

    A coupling t stores t dv^2 / 2 across its face; for two dielectrics
    in series the drop splits inversely to eps, putting eps_b / (eps_a +
    eps_b) of that in the cell a.  A pin's energy is wholly its cell's.
    Faces are summed over the solved cells only, coupled by fx and fy:
    a mirror copy holds its fold scale times each cell's energy, in the
    region of the mirror cell; a fold's middle faces carry no drop, nor
    does the dead band.  While there are fewer tuples of the copies'
    regions than cells, the cells are first summed per tuple, keyed in
    one bincount.  The few pins are summed from v itself.
    """
    (_, u), (_, eps) = (_copies(a, cells)[0] for a in (v, prob.eps))
    cell = np.zeros(u.shape)
    for t, (_, a, b) in zip((fx, fy), prob.links):
        e = t * np.square(u[a] - u[b])  # twice the face energy
        share = eps[a] + eps[b]
        np.divide(eps[b], share, out=share)
        share *= e
        cell[a] += share
        e -= share
        cell[b] += e
    copies = _copies(prob.region_id, cells)
    n = len(prob.region_names)
    bins = n ** len(copies)
    if bins < cell.size:  # then each copy's region is a digit of the key
        key = np.zeros(cell.shape, dtype=np.intp)
        for _, rid in copies:
            key *= n
            key += rid
        cell = np.bincount(key.ravel(), cell.ravel(), bins)
        copies = zip((w for w, _ in copies),
                     np.indices((n,) * len(copies)).reshape(len(copies), -1))
    energy = sum(w * np.bincount(rid.ravel(), cell.ravel(), n)
                 for w, rid in copies)
    dv = v.ravel()[prob.pin_cell] - prob.pin_val
    energy += np.bincount(prob.region_id.ravel()[prob.pin_cell],
                          prob.pin_coef * dv * dv, n)
    return 0.5 * EPS_0 * energy


def capacitance_per_length(sol: FieldSolution) -> float:
    """C' = 2 U / V^2 in F/m from the discrete field energy."""
    pots = sol._problem.potentials
    span = max(pots) - min(pots)
    if span <= 0.0:
        raise ValueError("electrodes span no potential difference")
    return 2.0 * float(sol.energy.sum()) / (span * span)


def energy_participation(sol: FieldSolution) -> dict[str, float]:
    """Fraction of the stored energy per dielectric region.

    Sums to one exactly up to rounding.  Raises on a zero-energy
    solution, where fractions are undefined.
    """
    total = float(sol.energy.sum())
    if total <= 0.0:
        raise ValueError("zero field energy: participation undefined")
    return {name: float(u) / total
            for name, u in zip(sol._problem.region_names, sol.energy)}


def extract_eps_eff_and_z0(section: CrossSection, tol: float = DEFAULT_TOL,
                           max_sweeps: int = DEFAULT_MAX_SWEEPS,
                           solution: FieldSolution | None = None
                           ) -> tuple[float, float]:
    """(eps_eff, Z0) of a line cross-section: eps_eff = C / C_vac and Z0
    = 1 / (c sqrt(C C_vac)), C_vac with every region at eps_r = 1.

    C_vac is the exact discrete capacitance of the all-vacuum section,
    by the face solve that gives a layered section its potential
    (_vacuum_capacitance); only a section with more free faces than
    _Multigrid.COARSEST_CELLS solves it by conjugate gradients instead,
    from the section's solution.  For an already-all-vacuum section
    C_vac is C itself, so eps_eff is exactly one.  Pass a solution
    already computed for this section to skip the first solve.
    """
    if solution is not None and solution.section is not section:
        raise ValueError("solution belongs to a different section")
    _check_limits(tol, max_sweeps)
    sol = solution if solution is not None else solve_potential(
        section, tol=tol, max_sweeps=max_sweeps)
    c_actual = capacitance_per_length(sol)
    c_vac = (c_actual if all(r.eps_r == 1.0 for r in section.regions)
             else _vacuum_capacitance(sol._problem))
    if c_vac is None:
        vac = replace(section, regions=[replace(r, eps_r=1.0)
                                        for r in section.regions])
        c_vac = capacitance_per_length(
            _solve(_Problem(vac), sol.potential, tol, max_sweeps))
    eps_eff = c_actual / c_vac
    z0 = 1.0 / (C_LIGHT * math.sqrt(c_actual * c_vac))
    return eps_eff, z0


def _vacuum_capacitance(prob: _Problem) -> float | None:
    """C' in F/m of prob's section with every region at eps_r = 1, by
    _face_solve; None where that declines."""
    solved = _face_solve(prob, np.ones(prob.section.ny))
    span = max(prob.potentials) - min(prob.potentials)
    return solved and EPS_0 * solved[-1] / (span * span)


def _face_solve(prob: _Problem, eps: np.ndarray):
    """(lam, bands, modes, 2U / EPS_0) of prob's system with eps[j] in row
    j: bands as (lo, hi, pinned ends), modes each metal line's faces in
    the x basis; None if eps changes in a band or over COARSEST_CELLS
    faces are free.

    In a band between two face lines that carry metal, or a line and a
    y wall, the sine basis (cosine between insulated walls) diagonalizes
    the x operator, mode k with eigenvalue eps lam, lam = 4 rx sin^2(pi
    k / 2 nx).  A metal line's free face, 2 eps ry from each side in
    series, is split exactly through a face node, so each face pins its
    two cells to a strip or to the node.  Each mode of a band is then a
    chain, eps times _band_form's energy in its ends, and the nodes
    minimize the sum: a dense solve on the free faces, the capacitance-
    matrix method (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8,
    722, 1971).
    """
    sec = prob.section
    nx, rx, ry = sec.nx, sec.hy / sec.hx, sec.hx / sec.hy
    faces: dict[int, np.ndarray] = {}  # face line -> potentials, NaN free
    for cols, m, pot in prob.strips:
        faces.setdefault(m, np.full(nx, np.nan))[cols] = pot
    free_faces = sum(np.isnan(g).sum() for g in faces.values())
    if free_faces > _Multigrid.COARSEST_CELLS:
        return None
    k, wave, lone = ((np.arange(1, nx + 1), np.sin, nx) if prob.grounded[0]
                     else (np.arange(nx), np.cos, 0))
    lam = 4.0 * rx * np.square(np.sin(0.5 * np.pi / nx * k))
    norm = np.where(k == lone, math.sqrt(1.0 / nx), math.sqrt(2.0 / nx))

    lines = sorted(faces)
    diag, cross, bands = [np.zeros(nx) for _ in lines], [], []
    ends = [0, *lines, sec.ny]
    for lo, hi in zip(ends, ends[1:]):
        if np.any(eps[lo:hi] != eps[lo]):
            return None
        pinned = [m in faces or prob.grounded[1] for m in (lo, hi)]
        if not any(pinned):
            continue
        bands.append((lo, hi, pinned))
        own, across = (eps[lo] * f for f in _band_form(
            hi - lo, lam, ry, insulated=not all(pinned)))
        for m in (lo, hi):
            if m in faces:
                diag[lines.index(m)] += own
        if lo in faces and hi in faces:
            cross.append(across)

    # per line, the modes of its known potentials and the basis at its
    # free faces (columns at zero need neither); then the Hessian h and
    # gradient r of the energy in the free faces' potentials
    known, free = [], []
    for m in lines:
        cols = np.flatnonzero(faces[m] != 0.0)
        g = faces[m][cols]
        basis = norm * wave(np.outer(2 * cols + 1, k) % (4 * nx)
                            * (0.5 * np.pi / nx))
        fixed = ~np.isnan(g)
        known.append(np.einsum("ik,i->k", basis[fixed], g[fixed]))
        free.append(basis[~fixed])
    at = np.cumsum([0] + [len(q) for q in free])
    h, r = np.zeros((at[-1], at[-1])), np.zeros(at[-1])
    for j, q in enumerate(free):
        rows = slice(at[j], at[j + 1])
        h[rows, rows] = np.einsum("ik,k,jk->ij", q, diag[j], q)
        drive = diag[j] * known[j]
        if j:
            drive += cross[j - 1] * known[j - 1]
        if j + 1 < len(lines):
            drive += cross[j] * known[j + 1]
            above = slice(at[j + 1], at[j + 2])
            h[rows, above] = np.einsum("ik,k,jk->ij", q, cross[j], free[j + 1])
            h[above, rows] = h[rows, above].T
        r[rows] = np.einsum("ik,k->i", q, drive)
    x = _cholesky_inverse(h)
    f = -np.einsum("ji,j->i", x, np.einsum("ij,j->i", x, r))
    modes = [g + np.einsum("ik,i->k", q, f[at[j]:at[j + 1]])
             for j, (g, q) in enumerate(zip(known, free))]
    two_u = (sum(_dot(d, g * g) for d, g in zip(diag, modes)) +
             2.0 * sum(_dot(c, a * b)
                       for c, a, b in zip(cross, modes, modes[1:])))
    return lam, bands, dict(zip(lines, modes)), two_u


def _direct_start(prob: _Problem) -> np.ndarray | None:
    """The exact potential of a section whose eps depends on y alone, from
    _face_solve; None where that declines.  In a band of n rows, mode k
    at y = j + 1/2 above the lower face is (G_lo sinh((n - y) theta) +
    G_hi sinh(y theta)) / sinh(n theta), G = g / cosh(theta / 2) for the
    faces' modes g: the chain pinned across half a cell at each end.  A
    cosh replaces the sinh next to an insulated wall; at lam = 0 it is
    linear.  Bands with no drive (behind a facing ground) stay zero.  A
    real FFT (pocketfft, no BLAS) brings each row back across x.
    """
    eps = prob.eps
    solved = (eps == eps[:1]).all() and _face_solve(prob, eps[0])
    if not solved:
        return None
    lam, bands, modes, _ = solved
    nx, ny = eps.shape
    s = np.sqrt(lam / (4.0 * prob.section.hx / prob.section.hy))
    theta = 2.0 * np.arcsinh(s)  # s = sinh(theta / 2)
    c = np.zeros((ny, nx))  # per row, the potential's modes
    live = []
    for lo, hi, pinned in bands:
        if not any(modes[m].any() for m in (lo, hi) if m in modes):
            continue
        live += [lo, hi]
        n, y = hi - lo, np.arange(hi - lo) + 0.5
        # e^(-y theta) (1 -+ e^(-2 (n - y) theta)) / (1 -+ e^(-2 n theta)),
        # + next to an insulated wall
        shift = 0.0 if all(pinned) else 2.0
        p = np.expm1(2.0 * np.multiply.outer(y - n, theta))
        p += shift
        d = np.expm1(-2.0 * n * theta) + shift
        p *= np.divide(1.0 / np.sqrt(1.0 + s * s), d, out=np.zeros(nx),
                       where=d != 0.0)  # and 1 / cosh(theta / 2)
        p *= np.exp(-np.multiply.outer(y, theta))
        p[:, d == 0.0] = 1.0 - y[:, None] / n
        for m, prof in ((lo, p), (hi, p[::-1])):
            if m in modes:  # not a wall
                c[lo:hi] += modes[m] * prof
    # nx irfft of 2 nx points sums c_k norm_k e^(i pi k (2 i + 1) / 2 nx)
    # over k; the sine's part is the real part times -i
    k = np.arange(nx) + prob.grounded[0]
    w = math.sqrt(2.0 / nx) * np.exp(0.5j * np.pi / nx * k) * (
        -1j if prob.grounded[0] else 1.0)
    w[k % nx == 0] *= math.sqrt(2.0)  # norm 1 / sqrt(nx), counted once
    lo, hi = min(live, default=0), max(live, default=0)
    spec = np.zeros((hi - lo, nx + 1), dtype=complex)
    np.multiply(c[lo:hi], w, out=spec[:, k[0]:k[0] + nx])
    v = np.zeros((nx, ny))
    v[:, lo:hi] = nx * np.fft.irfft(spec, 2 * nx)[:, :nx].T
    return v


def _band_form(n: int, lam: np.ndarray, ry: float,
               insulated: bool) -> tuple[np.ndarray, np.ndarray]:
    """Energy form of a band of n rows per x mode of eigenvalue lam.

    Each mode of the band is a chain of n cells coupled by ry, alpha =
    2 + lam / ry = 2 cosh(theta) on the diagonal, pinned across half a
    cell (2 ry) to a face potential at either end.  Its least energy is
    U = (own (g_lo^2 + g_hi^2) + 2 across g_lo g_hi) / 2, with own =
    2 ry tanh(theta / 2) coth(n theta) and across = -2 ry tanh(theta /
    2) / sinh(n theta): at lam = 0, ry / n and -ry / n, n couplings ry
    in series.  With an insulated wall at one end, own is 2 ry
    tanh(theta / 2) tanh(n theta) at the other one.  Written in
    e^(-n theta), nothing overflows however long the chain.
    """
    s = np.sqrt(lam / (4.0 * ry))  # sinh(theta / 2)
    t = s / np.sqrt(1.0 + s * s)  # tanh(theta / 2)
    n_theta = 2.0 * n * np.arcsinh(s)
    e, d = np.exp(-n_theta), -np.expm1(-2.0 * n_theta)
    if insulated:
        return 2.0 * ry * t * d / (1.0 + e * e), np.zeros_like(lam)
    q = np.divide(t, d, out=np.full_like(t, 0.25 / n), where=d > 0.0)
    return 2.0 * ry * q * (1.0 + e * e), -4.0 * ry * q * e


def cpw_cross_section(geometry: CpwGeometry, cell: float,
                      box_factor: float = MIN_BOX_FACTOR,
                      interlayer_thickness: float | None = None
                      ) -> CrossSection:
    """Grounded-box cross-section of a CPW between two half-spaces.

    The metal plane sits at y = 0 as zero-thickness strips: the center
    trace at 1 V, the side grounds running to the walls at 0 V.  The
    region below it is named "substrate" and the one above "interlayer",
    the names the device loss budget looks up.  The box is box_factor
    times the (w + 2s) aperture on a side; rectangle edges snap to the
    cell grid.  When interlayer_thickness puts the facing chip's ground
    inside the box, a grounded strip is added at that height.  A box
    more than MAX_CELLS_PER_SIDE cells wide is refused.
    """
    if cell <= 0.0:
        raise ValueError("cell must be positive")
    if box_factor < MIN_BOX_FACTOR:
        raise ValueError(
            f"box must be at least {MIN_BOX_FACTOR:g} apertures wide")
    w, s = geometry.trace_width, geometry.gap
    reach = 0.5 * box_factor * (w + 2.0 * s) / cell  # half-width in cells
    if not reach <= MAX_CELLS_PER_SIDE // 2:  # also NaN
        raise ValueError(f"cell {cell:.6g} m makes the box {2.0 * reach:.6g} "
                         f"cells wide, above {MAX_CELLS_PER_SIDE}: raise "
                         "cell or lower box_factor")
    half_cells = math.ceil(reach)
    nx = ny = 2 * half_cells
    half = half_cells * cell

    def snap(x: float) -> float:
        return round(x / cell) * cell

    trace_half = snap(0.5 * w)
    ground_from = snap(0.5 * w + s)
    if not 0.0 < trace_half < ground_from < half:
        raise ValueError("cell too coarse for this geometry")

    regions = [
        DielectricRegion("substrate", Rect(-half, half, -half, 0.0),
                         geometry.eps_substrate),
        DielectricRegion("interlayer", Rect(-half, half, 0.0, half),
                         geometry.eps_superstrate),
    ]
    conductors = [
        Conductor("trace", Rect(-trace_half, trace_half, 0.0, 0.0), 1.0),
        Conductor("ground_left", Rect(-half, -ground_from, 0.0, 0.0), 0.0),
        Conductor("ground_right", Rect(ground_from, half, 0.0, 0.0), 0.0),
    ]
    if interlayer_thickness is not None:
        if interlayer_thickness <= 0.0:
            raise ValueError("interlayer_thickness must be positive")
        lid = snap(interlayer_thickness)
        if cell <= lid < half:
            conductors.append(
                Conductor("facing_ground", Rect(-half, half, lid, lid), 0.0))

    return CrossSection(width=2.0 * half, height=2.0 * half, nx=nx, ny=ny,
                        regions=regions, conductors=conductors,
                        origin=(-half, -half))
