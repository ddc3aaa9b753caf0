"""Frequency-domain machinery on the unit torus.

Conventions
-----------
Integer frequencies xi in prod_i [-n_i/2, n_i/2 - 1].  For a field sampled at
cell centers x_j = (j + 1/2) h the normalized DFT is c(xi) = fftn(u)[xi] / M;
the trigonometric interpolant through the samples has coefficients

    a(xi) = c(xi) * prod_i exp(-i pi xi_i / n_i),

and the *voxel* density (the piecewise-constant function equal to u_j on cell
j) has exact Fourier coefficients

    u_cell(xi) = a(xi) * prod_i sinc(xi_i / n_i)        for |xi_i| <= n_i/2.

Two weightings therefore coexist and are kept strictly apart:

* collocation (plain) weights: the solve v with v_hat = c / (4 pi^2 |xi|^2)
  inverts the Laplacian exactly on trigonometric interpolants, so a pure
  Fourier mode is solved to machine precision;
* voxel (cell-exact) weights: `nonlocal_energy` sums |u_cell|^2/(4 pi^2|xi|^2),
  i.e. the exact Green-function energy of the voxel set truncated at the
  Nyquist lattice.  For an indicator whose jumps sit on cell edges this equals
  the continuum nonlocal energy up to the O(n^-3) spectral tail, which is what
  the tight closed-form tolerances require.

Both the 1/k tiling law and the Parseval identities below are exact in either
weighting; tests pin them at 1e-12.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .torus_field import GridSpec, ScalarField

TWO_PI = 2.0 * np.pi
FOUR_PI_SQ = 4.0 * np.pi**2


class SpectralWorkspace:
    """Precomputed frequency lattice and multipliers for one grid.

    A workspace holds only read-only arrays; it may be shared across threads
    as long as each solve owns its own temporaries (numpy allocates per call).
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.freqs = []
        for a, n in enumerate(spec.sizes):
            shape = [1] * spec.dim
            shape[a] = n
            xi = np.fft.fftfreq(n, d=1.0 / n).reshape(shape)
            self.freqs.append(xi)
        self.lap_symbol = sum(FOUR_PI_SQ * xi**2 for xi in self.freqs)
        # 1/(4 pi^2 |xi|^2) with the zero mode exactly zero
        inv = np.zeros(spec.sizes)
        nz = self.lap_symbol > 0
        inv[nz] = 1.0 / self.lap_symbol[nz]
        inv.flags.writeable = False
        self.inv_lap = inv
        # per-axis voxel (cell-average) factors sinc(xi/n), product over axes
        cell = np.ones(spec.sizes)
        for a, n in enumerate(spec.sizes):
            cell = cell * np.sinc(self.freqs[a] / n)
        cell.flags.writeable = False
        self.cell_factor = cell
        # phase aligning fftn coefficients with the true center positions
        phase = np.ones(spec.sizes, dtype=complex)
        for a, n in enumerate(spec.sizes):
            phase = phase * np.exp(-1j * np.pi * self.freqs[a] / n)
        phase.flags.writeable = False
        self.center_phase = phase

    # -- coefficient views -------------------------------------------------

    def dft(self, u: ScalarField) -> np.ndarray:
        return np.fft.fftn(u.values) / self.spec.cells

    def interp_coeffs(self, u: ScalarField) -> np.ndarray:
        """Coefficients of the trigonometric interpolant through the samples."""
        return self.dft(u) * self.center_phase

    def voxel_coeffs(self, u: ScalarField) -> np.ndarray:
        """Exact Fourier coefficients of the voxel (cellwise-constant) density."""
        return self.interp_coeffs(u) * self.cell_factor


@lru_cache(maxsize=16)
def _workspace(sizes: tuple[int, ...]) -> SpectralWorkspace:
    return SpectralWorkspace(GridSpec(sizes))


def get_workspace(spec: GridSpec) -> SpectralWorkspace:
    return _workspace(spec.sizes)


# ---------------------------------------------------------------------------
# Solves and derivatives (collocation weights)
# ---------------------------------------------------------------------------


def poisson_zero_mean(rhs: ScalarField, ws: SpectralWorkspace | None = None) -> ScalarField:
    """Solve -lap v = rhs - mean(rhs) with mean(v) = 0 on the grid.

    v_hat = rhs_hat / (4 pi^2 |xi|^2) for xi != 0, v_hat(0) = 0.  The mean of
    rhs is removed by the zeroed 0-mode, so the solve is always well posed.
    """
    ws = ws or get_workspace(rhs.spec)
    vhat = np.fft.fftn(rhs.values) * ws.inv_lap
    v = np.fft.ifftn(vhat).real
    return ScalarField(rhs.spec, v, "generic")


def laplacian(u: ScalarField, ws: SpectralWorkspace | None = None) -> ScalarField:
    """Spectral Laplacian (full lattice, Nyquist included)."""
    ws = ws or get_workspace(u.spec)
    out = np.fft.ifftn(np.fft.fftn(u.values) * (-ws.lap_symbol)).real
    return ScalarField(u.spec, out, "generic")


def gradient(u: ScalarField, ws: SpectralWorkspace | None = None) -> list[ScalarField]:
    """Spectral partial derivatives, one field per axis.

    The Nyquist plane is zeroed per axis so derivatives of real fields are
    real and the induced Laplacian stays symmetric negative semidefinite.
    """
    ws = ws or get_workspace(u.spec)
    uhat = np.fft.fftn(u.values)
    out = []
    for a, n in enumerate(u.spec.sizes):
        mult = TWO_PI * 1j * ws.freqs[a] * (np.abs(ws.freqs[a]) != n // 2)
        out.append(ScalarField(u.spec, np.fft.ifftn(uhat * mult).real, "generic"))
    return out


def cell_average_potential(u: ScalarField, ws: SpectralWorkspace | None = None) -> ScalarField:
    """Cell averages of the potential generated by the voxel density of u.

    Multiplier sinc^2/(4 pi^2 |xi|^2): one sinc for the source voxel, one for
    the averaging cell.  Pairing this field with any other field under
    (1/M) sum reproduces the voxel Green-energy inner product exactly, which
    is what the sharpened Lipschitz bound tests rely on.
    """
    ws = ws or get_workspace(u.spec)
    vhat = np.fft.fftn(u.values) * ws.inv_lap * ws.cell_factor**2
    return ScalarField(u.spec, np.fft.ifftn(vhat).real, "generic")


def _trig_shift(values: np.ndarray, axis: int, disp: np.ndarray) -> np.ndarray:
    """Shift values along `axis` by disp (torus units) through the
    trigonometric interpolant: FFT along the axis, times exp(-2 pi i xi disp),
    inverse FFT.  disp broadcasts against values and has length 1 on `axis`."""
    n = values.shape[axis]
    xi = np.expand_dims(np.fft.fftfreq(n, d=1.0 / n), [a for a in range(values.ndim) if a != axis])
    vhat = np.fft.fft(values, axis=axis)
    return np.fft.ifft(vhat * np.exp(-2j * np.pi * xi * disp), axis=axis).real


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------


def nonlocal_energy(
    u: ScalarField, ws: SpectralWorkspace | None = None, *, cell_average: bool = True
) -> float:
    """The Green-function energy sum_{xi != 0} |u_hat(xi)|^2 / (4 pi^2 |xi|^2).

    With cell_average=True (default) u_hat is the exact coefficient of the
    voxel density, the right reading for indicator fields.  With
    cell_average=False the samples are treated as trigonometric collocation
    values (the convention the diffuse flow differentiates).
    """
    ws = ws or get_workspace(u.spec)
    c = np.abs(ws.dft(u)) ** 2
    if cell_average:
        c = c * ws.cell_factor**2
    return float(np.sum(c * ws.inv_lap))


def dirichlet_energy(
    v: ScalarField, ws: SpectralWorkspace | None = None, *, cell_average: bool = True
) -> float:
    """int |grad v|^2 evaluated spectrally, in the same weighting as above."""
    ws = ws or get_workspace(v.spec)
    c = np.abs(ws.dft(v)) ** 2
    if cell_average:
        c = c * ws.cell_factor**2
    return float(np.sum(c * ws.lap_symbol))


def gradient_energy(u: ScalarField, ws: SpectralWorkspace | None = None) -> float:
    """(1/M) sum_j |grad u|^2 from the Nyquist-zeroed spectral gradient fields."""
    ws = ws or get_workspace(u.spec)
    total = 0.0
    for g in gradient(u, ws):
        total += float(np.mean(g.values**2))
    return total


# ---------------------------------------------------------------------------
# Off-grid evaluation (voxel-exact trigonometric sampling)
# ---------------------------------------------------------------------------


# Byte budget of one chunk of points in the separable mode sum: the per-axis
# factor blocks plus the first partial contraction, counted per point.
_PHASE_BLOCK_BYTES = 2 * 2**20


def _mode_sum(
    coeffs: np.ndarray, points: np.ndarray, ws: SpectralWorkspace, gradient: bool
) -> np.ndarray:
    """Re sum_xi coeffs(xi) e^{2 pi i xi . x} (or its gradient) at each point.

    Separable: e^{2 pi i xi . x} = prod_a E_a[p, xi_a] with per-axis factors
    E_a = e^{2 pi i xi_a x_a}, so a chunk of points contracts axis 0 with one
    matrix product and every further axis with one per-point batched product;
    gradient component a replaces E_a by 2 pi i xi_a E_a.  Exact to rounding,
    O(P * cells) multiply-adds and no points x cells phase block.  The chunk
    keeps the factor blocks and the first partial contraction within
    _PHASE_BLOCK_BYTES.  Returns (P,) values or (P, dim) components.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sizes = ws.spec.sizes
    xis = [f.ravel() for f in ws.freqs]
    head = coeffs.reshape(sizes[0], -1)
    ncomp = len(sizes) if gradient else 1
    out = np.empty((pts.shape[0], ncomp))
    chunk = max(1, _PHASE_BLOCK_BYTES // (16 * (ws.spec.cells // sizes[0] + sum(sizes))))
    for lo in range(0, pts.shape[0], chunk):
        x = pts[lo : lo + chunk]
        factors = [np.exp(TWO_PI * 1j * np.outer(x[:, a], xi)) for a, xi in enumerate(xis)]
        for comp in range(ncomp):
            f = list(factors)
            if gradient:
                f[comp] = factors[comp] * (TWO_PI * 1j * xis[comp])
            t = f[0] @ head
            for a in range(1, len(sizes)):
                t = np.matmul(f[a][:, None, :], t.reshape(len(x), sizes[a], -1))[:, 0]
            out[lo : lo + chunk, comp] = t[:, 0].real
    return out if gradient else out[:, 0]


def sample_field(
    u: ScalarField, points: np.ndarray, ws: SpectralWorkspace | None = None
) -> np.ndarray:
    """Trigonometric interpolation of the samples of u at arbitrary points."""
    ws = ws or get_workspace(u.spec)
    return _mode_sum(ws.interp_coeffs(u), points, ws, gradient=False)


def sample_potential(
    u: ScalarField,
    points: np.ndarray,
    ws: SpectralWorkspace | None = None,
    *,
    gradient: bool = False,
) -> np.ndarray:
    """Evaluate the potential of u (or its gradient) at arbitrary torus points.

    points: (P, dim).  Returns (P,) values or (P, dim) gradient components.
    Separable mode sum (see _mode_sum); cost O(P * cells), chunked over points.
    """
    ws = ws or get_workspace(u.spec)
    return _mode_sum(ws.voxel_coeffs(u) * ws.inv_lap, points, ws, gradient)


def sample_potential_on_planes(
    u: ScalarField,
    axis: int,
    offsets: np.ndarray,
    chart_sizes: tuple[int, ...],
    ws: SpectralWorkspace | None = None,
    *,
    gradient: bool = False,
) -> np.ndarray:
    """Potential of u on planes x_axis = offset, tangential uniform chart grids.

    Chart points run over prod(chart_sizes) positions t_j = j / chart_size per
    tangential axis; the (offsets x chart grid) points go through
    sample_potential.  Returns shape (len(offsets), *chart_sizes) or (..., dim)
    when gradient=True.
    """
    spec = u.spec
    offsets = np.atleast_1d(np.asarray(offsets, dtype=np.float64))
    tangential = [a for a in range(spec.dim) if a != axis]
    if len(chart_sizes) != len(tangential):
        raise ValueError("one chart size per tangential axis required")
    grids = np.meshgrid(offsets, *[np.arange(res) / res for res in chart_sizes], indexing="ij")
    pts = np.empty(grids[0].shape + (spec.dim,))
    for a, g in zip([axis] + tangential, grids):
        pts[..., a] = g
    vals = sample_potential(u, pts.reshape(-1, spec.dim), ws, gradient=gradient)
    return vals.reshape(pts.shape[:-1] + vals.shape[1:])
