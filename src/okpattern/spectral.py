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

Layout
------
Every grid operation runs on the real-FFT half spectrum rfftn(u)/M, whose
last axis keeps the columns 0..n/2; the last column is the -n/2 one, as
`fftfreq` labels it.  Every multiplier is even in xi, so on the half
spectrum it is the full-lattice one cut to those columns, and a Parseval sum
counts the self-conjugate columns 0 and n/2 once and the others twice.  The
workspace keeps no full-grid array.  The off-grid samplers alone need the
full lattice, since off the grid the Nyquist row of every axis enters with
one sign only; they fill it from the half spectrum by Hermitian symmetry, so
a sampler call is one real transform.  `_trig_shift` keeps its one-axis
complex transform, since its displacement varies across the other axes.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .torus_field import GridSpec, ScalarField

TWO_PI = 2.0 * np.pi
FOUR_PI_SQ = 4.0 * np.pi**2


class SpectralWorkspace:
    """Half-spectrum multipliers and per-axis factors for one grid.

    freqs[a] and sinc[a] (the voxel factor sinc(xi/n)) broadcast over the
    half spectrum; phase[a] = exp(-i pi xi/n) runs over the full lattice, for
    the samplers.  A workspace holds only read-only arrays; it may be shared
    across threads as long as each solve owns its own temporaries.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.freqs, self.sinc, self.phase = [], [], []
        for a, n in enumerate(spec.sizes):
            xi = np.fft.fftfreq(n, d=1.0 / n).reshape([n if b == a else 1 for b in range(spec.dim)])
            self.phase.append(np.exp(-1j * np.pi * xi / n))
            if a == spec.dim - 1:
                xi = xi[..., : n // 2 + 1]  # 0..n/2-1, then -n/2
            self.freqs.append(xi)
            self.sinc.append(np.sinc(xi / n))
        lap = self.lap_symbol = sum(FOUR_PI_SQ * xi**2 for xi in self.freqs)
        # 1/(4 pi^2 |xi|^2) with the zero mode exactly zero
        inv = self.inv_lap = np.divide(1.0, lap, out=np.zeros_like(lap), where=lap > 0)
        # Parseval weights along the last axis: the self-conjugate 0 and n/2
        # columns count once, the others twice
        half = np.full(spec.sizes[-1] // 2 + 1, 2.0)
        half[[0, -1]] = 1.0
        self.half_weights = half
        for arr in (lap, inv, half, *self.freqs, *self.sinc, *self.phase):
            arr.flags.writeable = False

    def sinc_power(self, p: int) -> np.ndarray:
        """prod_a sinc(xi_a/n_a)^p on the half spectrum: p voxel factors."""
        return reduce(np.multiply, [s**p for s in self.sinc])


@lru_cache(maxsize=16)
def _workspace(sizes: tuple[int, ...]) -> SpectralWorkspace:
    return SpectralWorkspace(GridSpec(sizes))


def get_workspace(spec: GridSpec) -> SpectralWorkspace:
    return _workspace(spec.sizes)


# ---------------------------------------------------------------------------
# The one transform path
# ---------------------------------------------------------------------------


def half_spectrum(values: np.ndarray) -> np.ndarray:
    """Normalized half spectrum rfftn(values)/cells."""
    return np.fft.rfftn(values, axes=range(values.ndim), norm="forward")


def from_half_spectrum(uhat: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Real field whose normalized half spectrum is uhat."""
    return np.fft.irfftn(uhat, s=sizes, axes=range(len(sizes)), norm="forward")


def apply_multiplier(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Real field whose spectrum is that of values times an even multiplier."""
    return from_half_spectrum(half_spectrum(values) * multiplier, values.shape)


def parseval_sum(uhat: np.ndarray, multiplier: np.ndarray, ws: SpectralWorkspace) -> float:
    """sum over the full lattice of |c(xi)|^2 multiplier(xi), from the half
    spectrum c and an even multiplier."""
    return float(np.sum(np.abs(uhat) ** 2 * ws.half_weights * multiplier))


def real_space_kernel(ws: SpectralWorkspace, p: int) -> np.ndarray:
    """ifftn(inv_lap * sinc^p) over the full lattice: the grid kernel whose
    circular convolution applies the potential with p voxel factors."""
    return from_half_spectrum(ws.inv_lap * ws.sinc_power(p), ws.spec.sizes) / ws.spec.cells


# ---------------------------------------------------------------------------
# Solves and derivatives (collocation weights)
# ---------------------------------------------------------------------------


def poisson_zero_mean(rhs: ScalarField, ws: SpectralWorkspace | None = None) -> ScalarField:
    """Solve -lap v = rhs - mean(rhs) with mean(v) = 0 on the grid.

    v_hat = rhs_hat / (4 pi^2 |xi|^2) for xi != 0, v_hat(0) = 0.  The mean of
    rhs is removed by the zeroed 0-mode, so the solve is always well posed.
    """
    ws = ws or get_workspace(rhs.spec)
    return ScalarField(rhs.spec, apply_multiplier(rhs.values, ws.inv_lap), "generic")


def laplacian(u: ScalarField, ws: SpectralWorkspace | None = None) -> ScalarField:
    """Spectral Laplacian (full lattice, Nyquist included)."""
    ws = ws or get_workspace(u.spec)
    return ScalarField(u.spec, apply_multiplier(u.values, -ws.lap_symbol), "generic")


def _derivative_symbols(ws: SpectralWorkspace) -> list[np.ndarray]:
    """2 pi i xi_a per axis with the Nyquist plane zeroed, so derivatives of
    real fields are real and the induced Laplacian stays symmetric negative
    semidefinite."""
    return [TWO_PI * 1j * xi * (np.abs(xi) != n // 2) for xi, n in zip(ws.freqs, ws.spec.sizes)]


def gradient(u: ScalarField, ws: SpectralWorkspace | None = None) -> list[ScalarField]:
    """Spectral partial derivatives, one field per axis (Nyquist zeroed)."""
    ws = ws or get_workspace(u.spec)
    uhat = half_spectrum(u.values)
    return [
        ScalarField(u.spec, from_half_spectrum(uhat * d, u.spec.sizes), "generic")
        for d in _derivative_symbols(ws)
    ]


def cell_average_potential(u: ScalarField, ws: SpectralWorkspace | None = None) -> ScalarField:
    """Cell averages of the potential generated by the voxel density of u.

    Multiplier sinc^2/(4 pi^2 |xi|^2): one sinc for the source voxel, one for
    the averaging cell.  Pairing this field with any other field under
    (1/M) sum reproduces the voxel Green-energy inner product exactly, which
    is what the sharpened Lipschitz bound tests rely on.
    """
    ws = ws or get_workspace(u.spec)
    return ScalarField(u.spec, apply_multiplier(u.values, ws.inv_lap * ws.sinc_power(2)), "generic")


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
    mult = ws.inv_lap * ws.sinc_power(2) if cell_average else ws.inv_lap
    return parseval_sum(half_spectrum(u.values), mult, ws)


def dirichlet_energy(
    v: ScalarField, ws: SpectralWorkspace | None = None, *, cell_average: bool = True
) -> float:
    """int |grad v|^2 evaluated spectrally, in the same weighting as above."""
    ws = ws or get_workspace(v.spec)
    mult = ws.lap_symbol * ws.sinc_power(2) if cell_average else ws.lap_symbol
    return parseval_sum(half_spectrum(v.values), mult, ws)


def gradient_energy(u: ScalarField, ws: SpectralWorkspace | None = None) -> float:
    """(1/M) sum_j |grad u|^2 of the Nyquist-zeroed spectral gradient fields."""
    ws = ws or get_workspace(u.spec)
    mult = sum(np.abs(d) ** 2 for d in _derivative_symbols(ws))
    return parseval_sum(half_spectrum(u.values), mult, ws)


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
    gradient component a replaces E_a by 2 pi i xi_a E_a.  Each factor row is
    built in ascending xi = -n/2..n/2-1 (so the coefficients are fftshifted
    once) from about 2 sqrt(n) exponentials: with b dividing n/2, xi = b q + r
    and e^{2 pi i xi x} = e^{2 pi i b q x} e^{2 pi i r x}.  Exact to rounding,
    O(P * cells) multiply-adds and no points x cells phase block.  The chunk
    keeps the factor blocks and the first partial contraction within
    _PHASE_BLOCK_BYTES.  Returns (P,) values or (P, dim) components.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sizes = ws.spec.sizes
    head = np.fft.fftshift(coeffs).reshape(sizes[0], -1)
    xis = [np.arange(-n // 2, n // 2) for n in sizes]
    splits = []
    for n in sizes:
        b = min((d for d in range(1, n // 2 + 1) if (n // 2) % d == 0), key=lambda d: d + n // d)
        splits.append((b * np.arange(-n // (2 * b), n // (2 * b)), np.arange(b)))
    ncomp = len(sizes) if gradient else 1
    out = np.empty((pts.shape[0], ncomp))
    chunk = max(1, _PHASE_BLOCK_BYTES // (16 * (ws.spec.cells // sizes[0] + sum(sizes))))
    for lo in range(0, pts.shape[0], chunk):
        x = pts[lo : lo + chunk]
        factors = []
        for a, (coarse, fine) in enumerate(splits):
            e_coarse = np.exp(TWO_PI * 1j * np.outer(x[:, a], coarse))
            e_fine = np.exp(TWO_PI * 1j * np.outer(x[:, a], fine))
            factors.append((e_coarse[:, :, None] * e_fine[:, None, :]).reshape(len(x), -1))
        for comp in range(ncomp):
            f = list(factors)
            if gradient:
                f[comp] = factors[comp] * (TWO_PI * 1j * xis[comp])
            t = f[0] @ head
            for a in range(1, len(sizes)):
                t = np.matmul(f[a][:, None, :], t.reshape(len(x), sizes[a], -1))[:, 0]
            out[lo : lo + chunk, comp] = t[:, 0].real
    return out if gradient else out[:, 0]


def _interp_coeffs(uhat: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Full-lattice coefficients of the trigonometric interpolant of the real
    grid field whose normalized half spectrum is uhat, times the per-axis
    centre phases.  The last-axis columns n/2+1..n-1 are the conjugates of
    columns n/2-1..1 at negated frequencies along the other axes."""
    n = ws.spec.sizes[-1]
    mirror = np.ix_(*[-np.arange(m) % m for m in ws.spec.sizes[:-1]], np.arange(n // 2 - 1, 0, -1))
    coeffs = np.concatenate([uhat, np.conj(uhat[mirror])], axis=-1)
    for phase in ws.phase:
        coeffs *= phase
    return coeffs


def sample_field(
    u: ScalarField, points: np.ndarray, ws: SpectralWorkspace | None = None
) -> np.ndarray:
    """Trigonometric interpolation of the samples of u at arbitrary points."""
    ws = ws or get_workspace(u.spec)
    return _mode_sum(_interp_coeffs(half_spectrum(u.values), ws), points, ws, gradient=False)


def sample_potential(
    u: ScalarField,
    points: np.ndarray,
    ws: SpectralWorkspace | None = None,
    *,
    gradient: bool = False,
) -> np.ndarray:
    """Evaluate the potential of u (or its gradient) at arbitrary torus points.

    points: (P, dim).  Returns (P,) values or (P, dim) gradient components.
    The grid potential (one voxel factor over 4 pi^2 |xi|^2, on the half
    spectrum) has the same full-lattice coefficients as the potential, so it
    is sampled through its interpolant: a separable mode sum (see _mode_sum),
    cost O(P * cells), chunked over points.
    """
    ws = ws or get_workspace(u.spec)
    potential_hat = half_spectrum(u.values) * (ws.inv_lap * ws.sinc_power(1))
    return _mode_sum(_interp_coeffs(potential_hat, ws), points, ws, gradient)


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
