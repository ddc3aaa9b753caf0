"""Interface meshes, curvature, and the criticality residual H + 4 gamma v - lambda.

Meshes carry analytic points, outward normals, quadrature weights, and one
tangential-derivative operator per chart.  Periodic chart axes differentiate
spectrally with the full symbol (FFT, the chart Nyquist mode kept, so the
components are complex); the sphere's polar direction uses Gauss-Legendre
collocation in cos(theta), so low-degree spherical harmonics differentiate
exactly and the quadrature weights sum to the analytic area to machine
precision.

Curvature is analytic for candidates (sum of principal curvatures, positive
for a convex set).  Flow outputs never get voxel curvature extraction; their
criticality is assessed by fitting a candidate (see fit_lamella / fit_ball)
or through the diffuse multiplier residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import _potential_and_gradient, get_workspace
from .torus_field import (
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    ScalarField,
    TiledShape,
    rasterize,
)


@dataclass
class Chart:
    """One parametrized piece of an interface.

    points/normals have shape (*grid, dim); weights (*grid).  tangent_fn maps
    chart-sampled values to a list of complex derivative components whose
    squared moduli sum to |D_tau phi|^2.  The derivative is the full symbol of
    the chart trigonometric interpolant, Nyquist mode included: the nodal
    values of a Nyquist cosine have derivative zero at the nodes, so a
    Nyquist-zeroed symbol would make the alternating vector a spurious kernel
    direction of the form.  values may carry trailing batch axes after the
    chart grid; each component then carries them too, so one call
    differentiates a whole batch of nodal basis vectors.

    The last chart axis is periodic, the weights are constant along it, and
    tangent_fn commutes with shifts along it; the pencil's chart stiffness
    relies on this and is block circulant along that axis.

    axis, when not None, names the torus axis along which one node step on
    the last chart axis (n2 nodes) is the translation by 1/n2: the node
    (..., i2 + 1) is the node (..., i2) plus e_axis / n2 mod 1, with the same
    normal and weight.  The pencil splits into Bloch blocks along that
    translation when every chart of a mesh shares it (stability).  Charts
    whose last axis is a rotation (circle, sphere) or a tiled copy leave it
    None.
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    mean_curv: float
    second_fundamental_sq: float
    tangent_fn: Callable[[np.ndarray], list[np.ndarray]]
    axis: int | None = None

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.weights.shape

    def tangential_gradient_sq(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values, dtype=float)
        for comp in self.tangent_fn(values):
            out += comp.real**2 + comp.imag**2
        return out


@dataclass
class InterfaceMesh:
    charts: list[Chart]

    @property
    def total_weight(self) -> float:
        return float(sum(np.sum(c.weights) for c in self.charts))

    def all_points(self) -> np.ndarray:
        return np.concatenate([c.points.reshape(-1, c.points.shape[-1]) for c in self.charts])

    def all_normals(self) -> np.ndarray:
        return np.concatenate([c.normals.reshape(-1, c.normals.shape[-1]) for c in self.charts])

    def all_weights(self) -> np.ndarray:
        return np.concatenate([c.weights.ravel() for c in self.charts])


def _fft_deriv(values: np.ndarray, axis: int, period: float, scale: float = 1.0) -> np.ndarray:
    n = values.shape[axis]
    k = np.expand_dims(np.fft.fftfreq(n, d=1.0 / n), [a for a in range(values.ndim) if a != axis])
    omega = 2.0 * np.pi / period
    return np.fft.ifft(np.fft.fft(values, axis=axis) * (1j * omega * k), axis=axis) * scale


def _legendre_diff_matrix(x: np.ndarray) -> np.ndarray:
    """Barycentric collocation differentiation at arbitrary distinct nodes."""
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    logs = np.sum(np.log(np.abs(diff)), axis=1)
    signs = np.prod(np.sign(diff), axis=1)
    w = signs * np.exp(-(logs - logs.mean()))
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def _lamella_charts(shape: Lamella, dim: int, res: int) -> list[Chart]:
    """Two flat charts covering the unit tangential cross-section each."""
    tangential = [a for a in range(dim) if a != shape.axis]
    grid_shape = (res,) * len(tangential)
    t = np.arange(res) / res
    charts = []
    for side in (+1.0, -1.0):
        pts = np.zeros(grid_shape + (dim,))
        pts[..., shape.axis] = (shape.center + side * shape.halfwidth) % 1.0
        for pos, a in enumerate(tangential):
            shape_vec = [1] * len(tangential)
            shape_vec[pos] = res
            pts[..., a] = t.reshape(shape_vec)
        normals = np.zeros(grid_shape + (dim,))
        normals[..., shape.axis] = side
        weights = np.full(grid_shape, 1.0 / res ** len(tangential))

        def tangent_fn(values):
            return [_fft_deriv(values, ax, period=1.0) for ax in range(len(grid_shape))]

        charts.append(Chart(pts, normals, weights, 0.0, 0.0, tangent_fn, tangential[-1]))
    return charts


def _circle_chart(center, r: float, res: int) -> Chart:
    theta = 2 * np.pi * np.arange(res) / res
    nx = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = (np.asarray(center) + r * nx) % 1.0
    weights = np.full(res, 2 * np.pi * r / res)

    def tangent_fn(values, _r=r):
        return [_fft_deriv(values, 0, period=2 * np.pi, scale=1.0 / _r)]

    return Chart(pts, nx.copy(), weights, 1.0 / r, 1.0 / r**2, tangent_fn)


def _sphere_tangent_components(values, r, mu, dmat, sin_t):
    """Complex surface-gradient components on the lat-long sphere chart.

    Azimuthal modes factor as phi_m(mu) = (1-mu^2)^{|m|/2} g(mu) with g smooth,
    so each mode is differentiated through that associated basis (plain
    collocation of the square-root factor would lose several digits).  Modes
    whose basis factor underflows fall back to the value interpolant.
    values may carry trailing batch axes after the (polar, azimuth) grid.
    """
    res = values.shape[1]
    column = (values.shape[0],) + (1,) * (values.ndim - 2)
    mu, sin_t = mu.reshape(column), sin_t.reshape(column)
    vhat = np.fft.fft(values, axis=1)
    ms = np.fft.fftfreq(res, d=1.0 / res).astype(int)
    one_minus = 1.0 - mu**2
    d_polar = np.empty_like(vhat)
    d_azim = np.empty_like(vhat)
    for col, m in enumerate(ms):
        am = abs(int(m))
        d_azim[:, col] = 1j * m * vhat[:, col] / sin_t
        a = one_minus ** (am / 2.0)
        if am == 0 or a.min() < 1e-10:
            d_polar[:, col] = sin_t * np.tensordot(dmat, vhat[:, col], axes=1)
        else:
            g = vhat[:, col] / a
            dphi_m = a * (np.tensordot(dmat, g, axes=1) - am * mu * g / one_minus)
            d_polar[:, col] = sin_t * dphi_m
    return [np.fft.ifft(d_polar, axis=1) / r, np.fft.ifft(d_azim, axis=1) / r]


def _sphere_chart(center, r: float, res: int) -> Chart:
    mu, w_gl = np.polynomial.legendre.leggauss(res)
    phi = 2 * np.pi * np.arange(res) / res
    sin_t = np.sqrt(1.0 - mu**2)
    nx = np.empty((res, res, 3))
    nx[..., 0] = sin_t[:, None] * np.cos(phi)[None, :]
    nx[..., 1] = sin_t[:, None] * np.sin(phi)[None, :]
    nx[..., 2] = mu[:, None]
    pts = (np.asarray(center) + r * nx) % 1.0
    weights = np.broadcast_to(r**2 * w_gl[:, None] * (2 * np.pi / res), (res, res)).copy()
    dmat = _legendre_diff_matrix(mu)

    def tangent_fn(values, _r=r, _d=dmat, _sin=sin_t, _mu=mu):
        return _sphere_tangent_components(values, _r, _mu, _d, _sin)

    return Chart(pts, nx, weights, 2.0 / r, 2.0 / r**2, tangent_fn)


def _cylinder_chart(shape: Cylinder, res: int) -> Chart:
    """Chart axes (theta, z): the last axis runs along the cylinder axis."""
    a1, a2 = shape.cross_axes()
    theta = 2 * np.pi * np.arange(res) / res
    z = np.arange(res) / res
    pts = np.zeros((res, res, 3))
    normals = np.zeros((res, res, 3))
    pts[..., a1] = (shape.center[0] + shape.radius * np.cos(theta))[:, None] % 1.0
    pts[..., a2] = (shape.center[1] + shape.radius * np.sin(theta))[:, None] % 1.0
    pts[..., shape.axis] = z[None, :]
    normals[..., a1] = np.cos(theta)[:, None]
    normals[..., a2] = np.sin(theta)[:, None]
    weights = np.full((res, res), 2 * np.pi * shape.radius / res**2)

    def tangent_fn(values, _r=shape.radius):
        return [
            _fft_deriv(values, 0, period=2 * np.pi, scale=1.0 / _r),
            _fft_deriv(values, 1, period=1.0),
        ]

    r = shape.radius
    return Chart(pts, normals, weights, 1.0 / r, 1.0 / r**2, tangent_fn, shape.axis)


def interface_mesh(shape, resolution: int, dim: int | None = None) -> InterfaceMesh:
    """Quadrature mesh of the boundary of a candidate (or its 1/k tiling).

    resolution is the sample count per chart axis and must be at least 8.
    """
    if resolution < 8:
        raise ValueError("mesh resolution must be at least 8 per chart axis")
    if isinstance(shape, TiledShape):
        base = interface_mesh(shape.shape, resolution, dim)
        return _tile_mesh(base, shape.k)
    if isinstance(shape, Lamella):
        if dim is None:
            raise ValueError("lamella meshes need the ambient dimension")
        if shape.axis >= dim:
            raise ValueError("lamella axis exceeds ambient dimension")
        return InterfaceMesh(_lamella_charts(shape, dim, resolution))
    if isinstance(shape, Ball):
        bdim = len(shape.center)
        if dim is not None and dim != bdim:
            raise ValueError("ball center dimension disagrees with ambient dimension")
        if bdim == 2:
            return InterfaceMesh([_circle_chart(shape.center, shape.radius, resolution)])
        if bdim == 3:
            return InterfaceMesh([_sphere_chart(shape.center, shape.radius, resolution)])
        raise ValueError("ball meshes exist for dim 2 and 3 only")
    if isinstance(shape, Cylinder):
        if dim is not None and dim != 3:
            raise ValueError("cylinder meshes require dim 3")
        return InterfaceMesh([_cylinder_chart(shape, resolution)])
    raise TypeError(f"unsupported mesh shape {shape!r}")


def _tile_mesh(parent: InterfaceMesh, k: int) -> InterfaceMesh:
    if k == 1:
        return parent
    dim = parent.charts[0].points.shape[-1]
    charts: list[Chart] = []
    for offs in np.ndindex(*(k,) * dim):
        origin = np.asarray(offs, dtype=float) / k
        for c in parent.charts:
            def tangent_fn(values, _fn=c.tangent_fn, _k=k):
                return [_k * comp for comp in _fn(values)]

            charts.append(
                Chart(
                    points=c.points / k + origin,
                    normals=c.normals.copy(),
                    weights=c.weights * (1.0 / k) ** (dim - 1),
                    mean_curv=c.mean_curv * k,
                    second_fundamental_sq=c.second_fundamental_sq * k**2,
                    tangent_fn=tangent_fn,
                )
            )
    return InterfaceMesh(charts)


@dataclass(frozen=True)
class CriticalityReport:
    gamma: float
    k: int
    lambda_: float
    residual_sup: float
    grad_h_sup: float

    CSV_HEADER = "gamma,k,lambda,residual_sup,grad_h_sup"

    def csv_row(self) -> str:
        return (
            f"{repr(self.gamma)},{self.k},{repr(self.lambda_)},"
            f"{repr(self.residual_sup)},{repr(self.grad_h_sup)}"
        )


def el_residual(shape, gamma: float, spec: GridSpec, resolution: int = 32) -> CriticalityReport:
    """Criticality diagnostics of a candidate (or its 1/k tiling) at gamma.

    lambda is the weighted surface average of H + 4 gamma v; residual_sup the
    sup of |H + 4 gamma v - lambda| over the mesh.  grad_h_sup estimates
    sup |grad_tau H| through the critical-set identity grad_tau H =
    -4 gamma grad_tau v (the curvature of candidates is constant per chart,
    so its direct tangential derivative vanishes identically).  The potential
    and its gradient are sampled together, in one call over the points of
    every chart.
    """
    k = shape.k if isinstance(shape, TiledShape) else 1
    mesh = interface_mesh(shape, resolution, spec.dim)
    u = rasterize(shape, spec)
    ws = get_workspace(spec)
    pts, normals, weights = mesh.all_points(), mesh.all_normals(), mesh.all_weights()
    curv = np.concatenate([np.full(c.weights.size, c.mean_curv) for c in mesh.charts])
    v, gv = _potential_and_gradient(u, pts, ws)
    g = curv + 4.0 * gamma * v
    lam = float(np.sum(weights * g)) / float(np.sum(weights))
    residual = float(np.max(np.abs(g - lam)))
    tang = gv - np.sum(gv * normals, axis=-1)[:, None] * normals
    grad_sup = 4.0 * gamma * float(np.max(np.linalg.norm(tang, axis=-1)))
    return CriticalityReport(gamma, k, lam, residual, grad_sup)


# ---------------------------------------------------------------------------
# Candidate fitting for sharpened flow outputs
# ---------------------------------------------------------------------------


def _circular_mean(angles_weights) -> float:
    angles, weights = angles_weights
    s = np.sum(weights * np.sin(angles))
    c = np.sum(weights * np.cos(angles))
    t = math.atan2(s, c) / (2 * np.pi) % 1.0
    return 0.0 if t == 1.0 else t  # a tiny negative angle rounds up to 1


def fit_lamella(u: ScalarField, axis: int) -> Lamella:
    """Least-surprise lamella through an axis-aligned slab indicator."""
    inside = u.values > 0
    frac = inside.mean(axis=tuple(a for a in range(u.spec.dim) if a != axis))
    x = u.spec.centers(axis)
    mass = frac.sum()
    if mass == 0 or mass == len(x):
        raise ValueError("field is single-phase; no slab to fit")
    center = _circular_mean((2 * np.pi * x, frac))
    halfwidth = float(mass / len(x) / 2.0)
    return Lamella(axis=axis, center=center, halfwidth=halfwidth)


def _circular_centroid(u: ScalarField, axes) -> tuple[float, ...]:
    """Circular mean position of the indicator's inside cells along each axis."""
    inside = u.values > 0
    center = []
    for a in axes:
        frac = inside.mean(axis=tuple(b for b in range(u.spec.dim) if b != a))
        center.append(_circular_mean((2 * np.pi * u.spec.centers(a), frac)))
    return tuple(center)


def fit_ball(u: ScalarField) -> Ball:
    """Ball with the indicator's circular centroid and volume-matched radius."""
    vol = float(np.mean(u.values > 0))
    if vol <= 0:
        raise ValueError("field is empty; no ball to fit")
    dim = u.spec.dim
    radius = {2: math.sqrt(vol / math.pi), 3: (vol * 3 / (4 * math.pi)) ** (1 / 3)}[dim]
    return Ball(_circular_centroid(u, range(dim)), radius)


def fit_cylinder(u: ScalarField, axis: int) -> Cylinder:
    """Cylinder along `axis` with the indicator's circular centroid in the two
    cross axes and the volume-matched radius."""
    area = float(np.mean(u.values > 0))
    if area <= 0:
        raise ValueError("field is empty; no cylinder to fit")
    cross = [a for a in range(3) if a != axis]
    return Cylinder(axis, _circular_centroid(u, cross), math.sqrt(area / math.pi))
