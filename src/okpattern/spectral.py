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
workspace keeps no full-grid array, and neither do the off-grid samplers:
off the grid the Nyquist row of every axis enters with one sign only, so
they need the full lattice's mode sum, but they contract the half spectrum
itself and apply the Hermitian mirror to their first partial sum, so a
sampler call is one real transform.  `_trig_shift` keeps its one-axis
complex transform, since its displacement varies across the other axes.

Real-space kernels
------------------
The grid kernels ifftn(inv_lap * sinc^p) need no transform: their
multiplier is real and even along each axis, so `kernel_table` sums cosines
over the even octant |xi_a| <= n_a/2 of the half spectrum, one matrix
product per axis, at the offsets -1..n_a/2+1 of every axis.  The Green
matrix and the minimality probes' block kernel gather from that table,
folding each offset d to min(d, n - d).

Off-grid evaluation
-------------------
`sample_field` and `sample_potential` evaluate the mode sum exactly (to
rounding) at arbitrary points, one axis at a time.  The per-axis factors of
the coefficients (the centre phase, the potential's voxel factor, the
derivative symbol) ride on the factor rows, so the coefficients are the half
spectrum (over 4 pi^2 |xi|^2 for the potential) and nothing else.  The query
sets the program builds are few points or lines along normals, sampled on
the grid of the axes the seed varies along, so some axis carries few
distinct coordinates.  The contraction runs over distinct coordinate
prefixes, axes with the fewest distinct values first, so its cost is the sum
over levels of (distinct prefixes x remaining modes): O(points x cells) for
scattered points, far less for grids and lines.  The first level reads the
half spectrum and mirrors its own output.  No program path reaches a tensor
grid level past the first; only `sample_potential_on_planes` and the tests
do.  Chunks of points keep its temporaries within a fixed byte budget.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .torus_field import GridSpec, ScalarField

TWO_PI = 2.0 * np.pi
FOUR_PI_SQ = 4.0 * np.pi**2


class SpectralWorkspace:
    """Half-spectrum multipliers and per-axis factors for one grid.

    freqs[a] and sinc[a] (the voxel factor sinc(xi/n)) broadcast over the
    half spectrum.  The off-grid samplers keep their per-axis factors (centre
    phase, voxel factor, derivative symbol) on the factor rows, cached per
    axis length (_axis_split), not here.  A workspace holds only read-only
    arrays; it may be shared across threads as long as each solve owns its
    own temporaries.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.freqs, self.sinc = [], []
        for a, n in enumerate(spec.sizes):
            xi = np.fft.fftfreq(n, d=1.0 / n).reshape([n if b == a else 1 for b in range(spec.dim)])
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
        for arr in (lap, inv, half, *self.freqs, *self.sinc):
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
    """Normalized half spectrum rfftn(values)/cells.

    The axes are transformed in rfftn's own order (a real FFT of the last
    axis, then complex FFTs of the others, last first), so the result is
    bitwise rfftn's; the complex passes run in place in the one output."""
    out = np.fft.rfft(values, axis=-1, norm="forward")
    for axis in range(values.ndim - 2, -1, -1):
        np.fft.fft(out, axis=axis, norm="forward", out=out)
    return out


def from_half_spectrum(uhat: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Real field whose normalized half spectrum is uhat, bitwise irfftn's:
    complex inverse FFTs of the leading axes in order (in place after the
    first, which leaves uhat alone), then a real inverse FFT of the last."""
    for axis in range(len(sizes) - 1):
        uhat = np.fft.ifft(uhat, axis=axis, norm="forward", out=uhat if axis else None)
    return np.fft.irfft(uhat, n=sizes[-1], axis=-1, norm="forward")


def apply_multiplier(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Real field whose spectrum is that of values times an even multiplier."""
    return from_half_spectrum(half_spectrum(values) * multiplier, values.shape)


def parseval_sum(uhat: np.ndarray, multiplier: np.ndarray, ws: SpectralWorkspace) -> float:
    """sum over the full lattice of |c(xi)|^2 multiplier(xi), from the half
    spectrum c and an even multiplier."""
    return float(np.sum(np.abs(uhat) ** 2 * ws.half_weights * multiplier))


def kernel_table(ws: SpectralWorkspace, p: int) -> np.ndarray:
    """The grid kernel K = ifftn(inv_lap * sinc^p) at the folded offsets
    -1..n_a/2+1 of every axis: entry t_a holds offset t_a - 1, so the guard
    entries 0 and n_a/2+2 repeat offsets 1 and n_a/2-1.

    The multiplier is real and even along each axis, so K is a cosine sum
    over the octant |xi_a| <= n_a/2 (a view of inv_lap), contracted one axis
    at a time with that axis's _cosine_rows.  No transform and no full-grid
    array; the cost is O(n^(dim+1)) in matrix products."""
    sizes = ws.spec.sizes
    rows = {n: _cosine_rows(n, p) for n in set(sizes)}
    table = ws.inv_lap[tuple(slice(0, n // 2 + 1) for n in sizes)]
    for n in sizes:
        # contract axis 0 and append the offset axis last: after dim steps
        # the axes are back in order
        table = (table.reshape(n // 2 + 1, -1).T @ rows[n].T).reshape(table.shape[1:] + (n // 2 + 3,))
    return table


def _cosine_rows(n: int, p: int) -> np.ndarray:
    """The (n/2+3) x (n/2+1) matrix m(xi) sinc(xi/n)^p cos(2 pi xi (t-1)/n) / n
    for t = 0..n/2+2 and xi = 0..n/2, where m counts the lattice modes
    folded onto xi (1 at 0 and n/2, else 2)."""
    half = n // 2
    j = np.arange(n)
    # cos(2 pi j / n) read at j = xi (t-1) mod n, from angles folded into
    # [0, pi], so offsets -t and t get the same row
    cosines = np.cos(TWO_PI / n * np.minimum(j, n - j))[np.arange(-1, half + 2)[:, None] * j[: half + 1] % n]
    weights = np.sinc(j[: half + 1] / n) ** p * (2.0 / n)
    weights[[0, -1]] *= 0.5
    return cosines * weights


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


def nonlocal_energy(u: ScalarField, ws: SpectralWorkspace | None = None) -> float:
    """The Green-function energy sum_{xi != 0} |u_hat(xi)|^2 / (4 pi^2 |xi|^2),
    u_hat the exact coefficient of the voxel density, the right reading for
    indicator fields.  The diffuse flow's term in ok_energy reads the samples
    as trigonometric collocation values instead."""
    ws = ws or get_workspace(u.spec)
    return parseval_sum(half_spectrum(u.values), ws.inv_lap * ws.sinc_power(2), ws)


# ---------------------------------------------------------------------------
# Off-grid evaluation (voxel-exact trigonometric sampling)
# ---------------------------------------------------------------------------


# Byte budget of one chunk of points in the prefix contraction: every
# temporary of the chunk (the factor rows, the gathered prefixes and every
# value and gradient variant of the partial contractions) is counted.
_PHASE_BLOCK_BYTES = 2 * 2**20


@lru_cache(maxsize=64)
def _axis_split(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The coarse/fine split of one axis's frequencies, its derivative
    symbol 2 pi i xi and its centre factors, the last two in fftfreq order.

    With b dividing n/2 and m = n/(2b), every xi is b q + r (-m <= q < m,
    0 <= r < b), so a factor row e^{2 pi i xi x} is the outer product of the
    coarse row e^{2 pi i b q x} and the fine row e^{2 pi i r x}.  Returns m,
    the frequencies b q (q = 0..m) and r (r = 0..b-1) whose exponentials
    give both rows (q < 0 by conjugation), the symbol, and the rows
    centre[p] = e^{-i pi xi/n} sinc(xi/n)^p for p = 0, 1: the axis's share
    of the centre phase and of p voxel factors.
    """
    b = min((d for d in range(1, n // 2 + 1) if (n // 2) % d == 0), key=lambda d: d + n // d)
    m = n // (2 * b)
    freqs = np.concatenate([b * np.arange(m + 1), np.arange(b)])
    xi = np.fft.fftfreq(n, d=1.0 / n)
    deriv = TWO_PI * 1j * xi
    centre = np.exp(-1j * np.pi * xi / n) * np.sinc(xi / n) ** np.arange(2)[:, None]
    for arr in (freqs, deriv, centre):
        arr.flags.writeable = False
    return m, freqs, deriv, centre


def _factor_rows(x: np.ndarray, n: int) -> np.ndarray:
    """(len(x), n) rows e^{2 pi i xi x}, xi in fftfreq order, from fewer
    than 2 sqrt(n) exponentials per row (see _axis_split)."""
    m, freqs = _axis_split(n)[:2]
    e = np.exp(TWO_PI * 1j * (x[:, None] * freqs))
    # coarse q = 0..m-1, then -m..-1 in fftfreq order
    coarse = np.concatenate([e[:, :m], np.conj(e[:, m:0:-1])], axis=1)
    return (coarse[:, :, None] * e[:, None, m + 1 :]).reshape(len(x), n)


def _mode_sum(
    uhat: np.ndarray, points: np.ndarray, ws: SpectralWorkspace, voxels: int, *, value: bool, gradient: bool
) -> np.ndarray:
    """Re sum_xi c(xi) e^{2 pi i xi . x} and/or its gradient at each point,
    over the full lattice: c(xi) = H(xi) prod_a e^{-i pi xi_a/n_a}
    sinc(xi_a/n_a)^voxels, H the half spectrum uhat extended by Hermitian
    symmetry.  The centre phase makes it the trigonometric interpolant of
    uhat's real grid field; `voxels` counts the voxel factors.

    Separable: c(xi) e^{2 pi i xi . x} is H(xi) prod_a E_a[x_a, xi_a]
    with per-axis factor rows E_a = e^{2 pi i xi_a x_a} times the axis's
    centre factors, so the sum contracts one axis at a time.  Each axis's
    distinct coordinates are found by exact float equality; the axes are
    contracted in ascending order of distinct count, and level l contracts
    one row per distinct prefix (x_{o_0}, ..., x_{o_l}), not one per point.
    The cost is the sum over levels of (distinct prefixes x remaining
    modes): O(P * cells) for scattered points, far less on grids and
    normal lines.

    The points are lexsorted by their coordinates, so every prefix is a run.
    Level 0 reads the half spectrum itself (_first_level): the full lattice
    is never formed, and the Hermitian mirror is applied to level 0's
    output, which is small when the first axis has few distinct values.
    A later level whose prefixes fill the product of its parents and the
    axis's distinct values (a tensor grid) is one matrix product of the
    factor table with each parent row; of the program's query sets, only
    sample_potential_on_planes' reach one.  Any other level contracts each
    prefix's own factor row with its parent's row, gathered only where a
    parent has more than one continuation.  Gradient component a replaces
    E_a by 2 pi i xi_a E_a and shares the prefix before axis a, so level 0
    contracts two stacked rows per prefix, not dim.
    Exact to rounding.  Chunks of sorted points keep every temporary within
    _PHASE_BLOCK_BYTES.  Returns (P, value + dim * gradient) columns: the
    value, then the gradient components by axis.
    """
    pts = np.asarray(points, dtype=np.float64)
    sizes, dim = ws.spec.sizes, ws.spec.dim
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (P, {dim}), got {pts.shape}")
    # distinct coordinates per axis, by exact float equality, in ascending order
    by_axis = np.sort(pts, axis=0)
    first = np.ones_like(by_axis, dtype=bool)
    np.not_equal(by_axis[1:], by_axis[:-1], out=first[1:])
    values = [by_axis[first[:, a], a] for a in range(dim)]
    distinct = [v.size for v in values]
    del by_axis, first
    # fewest distinct coordinates first; among equals the longest axis, which
    # leaves the fewest modes to the later levels
    order = sorted(range(dim), key=lambda a: (distinct[a], -sizes[a]))
    distinct = [distinct[a] for a in order]
    values = [values[a] for a in order]
    # new[i, l]: point perm[i] starts a prefix of level l.  The points are
    # lexsorted, first axis of the order as the primary key.
    perm = np.lexsort([pts[:, a] for a in order[::-1]])
    new = np.ones((len(pts), dim), dtype=bool)
    for l, a in enumerate(order):
        x = pts[perm, a]
        np.not_equal(x[1:], x[:-1], out=new[1:, l])
        if l:
            np.logical_or(new[:, l - 1], new[:, l], out=new[:, l])
    counts = [1] + np.count_nonzero(new, axis=0).tolist()
    n = [sizes[a] for a in order]
    cells = math.prod(sizes)
    rest = [cells // math.prod(n[: l + 1]) for l in range(dim)]
    # variants of a level, stacked: the plain sum while it is still needed,
    # then the derivatives along order[0], ..., order[l]
    keep = [value or (gradient and l < dim - 1) for l in range(dim)]
    n_var = [1] + [keep[l] + gradient * (l + 1) for l in range(dim)]
    grid = [l == 0 or counts[l] * distinct[l] == counts[l + 1] for l in range(dim)]
    fans_out = [counts[l + 1] > counts[l] for l in range(dim)]
    # bytes per prefix of each level, counting every temporary: the variant
    # rows, and the factor rows (with their temporaries and the derivative)
    # of a level that makes one per prefix; level 0's mirror holds at most
    # three times its rows (_first_level); a later grid level's full
    # product, before the rows a chunk cuts off are dropped, is at most
    # three times its rows; another level also holds, where a parent fans
    # out, the parents' gathered variant rows.  Summed over the levels, this
    # bounds what any level holds.
    shared = [grid[l] and l > 0 for l in range(dim)]
    factor_bytes = [16 * (2 + gradient) * n[l] for l in range(dim)]
    row_bytes = np.array(
        [
            16 * n_var[l + 1] * rest[l] * (4 if shared[l] else 3 if l == 0 else 1)
            + (0 if shared[l] else factor_bytes[l])
            + (0 if grid[l] else 16 * fans_out[l] * n_var[l] * rest[l - 1])
            for l in range(dim)
        ]
    )
    cost = np.cumsum(new @ row_bytes)
    # the first point of a chunk starts a prefix at every level; a grid level
    # past the first makes one factor row per distinct value the chunk
    # holds, at most distinct[l], charged once per chunk
    slack = _PHASE_BLOCK_BYTES - int(row_bytes.sum())
    slack -= sum(factor_bytes[l] * distinct[l] for l in range(dim) if shared[l])
    take = [0] * value + [value + order.index(a) for a in range(dim)] * gradient
    out = np.empty((len(pts), len(take)))
    head = np.ascontiguousarray(uhat.transpose(order))
    last = order.index(dim - 1)
    centre = [_axis_split(m)[3][voxels] for m in n]
    lo = 0
    while lo < len(pts):
        hi = max(lo + 1, int(np.searchsorted(cost, cost[lo] + slack, "right")))
        chunk = pts[perm[lo:hi]]
        starts_at = new[lo:hi].copy()
        starts_at[0] = True
        starts = np.flatnonzero(starts_at[:, 0])
        e = _factor_rows(chunk[starts, order[0]], n[0])
        e *= centre[0]
        rows = np.empty((n_var[1], starts.size, n[0]), dtype=complex)
        rows[: int(keep[0])] = e
        if gradient:
            np.multiply(e, _axis_split(n[0])[2], out=rows[-1])
        del e
        prev, n_prev = _first_level(rows, head, last), starts.size
        del rows
        for l in range(1, dim):
            starts = np.flatnonzero(starts_at[:, l])
            x = chunk[starts, order[l]]
            uniq, inv = x, None
            if grid[l]:
                # the axis's distinct values this chunk holds, ascending, and
                # the index of each prefix's value among them
                inv = np.searchsorted(values[l], x)
                held = np.zeros(distinct[l], dtype=bool)
                held[inv] = True
                uniq = values[l][held]
                if uniq.size < distinct[l]:
                    inv = np.cumsum(held)[inv] - 1
            e = _factor_rows(uniq, n[l])
            e *= centre[l]
            src = prev.reshape(n_var[l], n_prev, n[l], rest[l])
            parent = None
            if starts.size != n_prev * (uniq.size if grid[l] else 1):
                parent = np.cumsum(starts_at[:, l - 1])[starts] - 1
            if grid[l]:
                # every parent times every distinct value
                shape = (n_prev, uniq.size)
            else:
                e = e[:, None, :]
                shape = (starts.size, 1)
                if parent is not None:
                    src = src[:, parent]
            cur = np.empty((n_var[l + 1], *shape, rest[l]), dtype=complex)
            np.matmul(e, src[1 - keep[l] :], out=cur[: n_var[l + 1] - gradient])
            if gradient:
                np.matmul(e * _axis_split(n[l])[2], src[0], out=cur[-1])
            cur = cur.reshape(n_var[l + 1], -1, rest[l])
            if grid[l] and parent is not None:
                # the rows this chunk holds
                cur = cur[:, parent * uniq.size + inv]
            del src, e
            prev, n_prev = cur, starts.size
        at = slice(None) if n_prev == hi - lo else np.cumsum(starts_at[:, -1]) - 1
        out[perm[lo:hi]] = prev[take, :, 0].real.T[at]
        lo = hi
    return out


def _first_level(rows: np.ndarray, head: np.ndarray, last: int) -> np.ndarray:
    """Level 0 of _mode_sum, contracted straight from the half spectrum.

    rows (variants, prefixes, n) are the factor rows R of the first axis a0;
    head is the half spectrum H with its axes in the contraction order, the
    rfft axis L (columns 0..n_L/2) at position `last`.  Returns (variants,
    prefixes, rest): R contracted over a0 with the full lattice, whose
    columns xi_L = -j (0 < j < n_L/2) are conj(H[-xi', j]), xi' the other
    axes.  For a0 = L, with P = R[:, :n/2+1] H and Q = R[:, 1:n/2] H[1:n/2]
    (P less its columns 0 and n/2), level 0 is P + conj(Q) read at -xi'.
    For a0 != L, A = R H gives the columns 0..n_L/2 and column -j is
    conj(R~ H[..., j]) read at -xi', R~ being R with its Nyquist column
    conjugated: the centre factors and the derivative symbol satisfy
    conj(f(-xi)) = f(xi) except at -n/2, its own negative on the lattice.
    R~ H[..., j] is A's column j plus a rank-one term.  The temporaries stay
    within three times the returned rows.
    """
    n_var, n_pre, n = rows.shape
    other = head.shape[1:]
    flat = head.reshape(head.shape[0], -1)
    # the axes of the other grid axes in a (variants, prefixes, *other) array
    axes = tuple(range(2, 2 + len(other)))
    if last == 0:
        half = n // 2
        low = rows[..., : half + 1] @ flat
        # P less its columns 0 and n/2
        high = rows[..., ::half] @ flat[::half]
        np.subtract(low, high, out=high)
        mirror = np.roll(np.flip(high.reshape(n_var, n_pre, *other), axes), 1, axes)
        del high
        low += np.conj(mirror, out=mirror).reshape(low.shape)
        return low
    ax = 1 + last
    half = other[last - 1] - 1
    part = (rows @ flat).reshape(n_var, n_pre, *other)
    cut = (slice(None),) * (last - 1) + (slice(1, half),)
    nyquist = rows[..., n // 2].imag.reshape(n_var, n_pre, *[1] * len(other))
    tail = nyquist * (-2j * head[n // 2][cut])
    tail += part[(slice(None), slice(None)) + cut]
    mirror = np.roll(np.flip(tail, axes), 1, tuple(a for a in axes if a != ax))
    del tail
    full = np.concatenate([part, np.conj(mirror, out=mirror)], axis=ax)
    return full.reshape(n_var, n_pre, -1)


def sample_field(
    u: ScalarField, points: np.ndarray, ws: SpectralWorkspace | None = None
) -> np.ndarray:
    """Trigonometric interpolation of the samples of u at arbitrary points."""
    ws = ws or get_workspace(u.spec)
    return _mode_sum(half_spectrum(u.values), points, ws, 0, value=True, gradient=False)[:, 0]


def sample_potential(
    u: ScalarField,
    points: np.ndarray,
    ws: SpectralWorkspace | None = None,
    *,
    gradient: bool = False,
) -> np.ndarray:
    """Evaluate the potential of u (or its gradient) at arbitrary torus points.

    points: (P, dim).  Returns (P,) values or (P, dim) gradient components.
    The grid potential (one voxel factor over 4 pi^2 |xi|^2) has the same
    full-lattice coefficients as the potential, so it is sampled through its
    interpolant: a separable mode sum over the distinct coordinate prefixes
    of the points, straight from the half spectrum (see _mode_sum).
    """
    ws = ws or get_workspace(u.spec)
    out = _mode_sum(_potential_hat(u, ws), points, ws, 1, value=not gradient, gradient=gradient)
    return out if gradient else out[:, 0]


def _potential_hat(u: ScalarField, ws: SpectralWorkspace) -> np.ndarray:
    """Normalized half spectrum of u over 4 pi^2 |xi|^2: the grid potential
    of u, less its one voxel factor, which _mode_sum applies per axis."""
    uhat = half_spectrum(u.values)
    uhat *= ws.inv_lap
    return uhat


def _potential_and_gradient(
    u: ScalarField, points: np.ndarray, ws: SpectralWorkspace
) -> tuple[np.ndarray, np.ndarray]:
    """sample_potential(u, points) and its gradient=True form from one
    transform and one shared prefix contraction: (P,) and (P, dim)."""
    out = _mode_sum(_potential_hat(u, ws), points, ws, 1, value=True, gradient=True)
    return out[:, 0], out[:, 1:]


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
