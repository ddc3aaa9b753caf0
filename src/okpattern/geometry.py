"""Interface meshes, curvature, and the criticality residual H + 4 gamma v - lambda.

Meshes carry analytic points, outward normals, quadrature weights, and one
tangential-derivative operator per chart.  Periodic chart axes differentiate
spectrally with the full symbol (FFT, the chart Nyquist mode kept, so the
components are complex).  The sphere is one of them: on the double Fourier
sphere its polar angle runs over a full period, so low-degree spherical
harmonics differentiate exactly, and Fejer quadrature in cos(theta) sums the
weights to the analytic area to machine precision.

Curvature is analytic for candidates (sum of principal curvatures, positive
for a convex set).  Flow outputs never get voxel curvature extraction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import _potential_and_gradient, get_workspace
from .torus_field import (
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    TiledShape,
    _check_shape_dim,
    reduced_raster,
)

# Fewest nodes per chart axis that interface_mesh accepts.
MIN_MESH_RESOLUTION = 8


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
    tangent_fn commutes with shifts along it; so does every chart axis with
    an axis entry.  The pencil's chart stiffness relies on this and is block
    circulant along those axes.

    axis has one entry per chart axis.  Entry c, when not None, names the
    torus axis along which one node step on chart axis c (n_c nodes) is the
    translation by 1/n_c: the node with i_c + 1 is the node with i_c plus
    e_axis / n_c mod 1, with the same normal and weight.  A lamella chart
    has an entry on each tangential axis, a cylinder chart on its axial
    (last) one; chart axes that are rotations (circle, sphere, the
    cylinder's angle) have None.  The pencil splits into Bloch blocks along
    the trailing chart axes that every chart of a mesh shares (stability).
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    mean_curv: float
    second_fundamental_sq: float
    tangent_fn: Callable[[np.ndarray], list[np.ndarray]]
    axis: tuple[int | None, ...]

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.weights.shape


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


def _lamella_charts(pieces: list[Lamella], dim: int, res: int) -> list[Chart]:
    """Two flat charts per lamella, each covering the unit tangential
    cross-section; every chart shares one tangent_fn."""
    axis = pieces[0].axis
    tangential = [a for a in range(dim) if a != axis]
    grid_shape = (res,) * len(tangential)
    t = np.arange(res) / res

    def tangent_fn(values):
        return [_fft_deriv(values, ax, period=1.0) for ax in range(len(grid_shape))]

    charts = []
    for shape, side in itertools.product(pieces, (+1.0, -1.0)):
        pts = np.zeros(grid_shape + (dim,))
        pts[..., axis] = (shape.center + side * shape.halfwidth) % 1.0
        for pos, a in enumerate(tangential):
            shape_vec = [1] * len(tangential)
            shape_vec[pos] = res
            pts[..., a] = t.reshape(shape_vec)
        normals = np.zeros(grid_shape + (dim,))
        normals[..., axis] = side
        weights = np.full(grid_shape, 1.0 / res ** len(tangential))
        charts.append(Chart(pts, normals, weights, 0.0, 0.0, tangent_fn, tuple(tangential)))
    return charts


def _circle_charts(centers, r: float, res: int) -> list[Chart]:
    """One chart per circle of radius r; every chart shares one tangent_fn."""
    theta = 2 * np.pi * np.arange(res) / res
    nx = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    weights = np.full(res, 2 * np.pi * r / res)

    def tangent_fn(values):
        return [_fft_deriv(values, 0, period=2 * np.pi, scale=1.0 / r)]

    curv = (1.0 / r, 1.0 / r**2)
    return [
        Chart((np.asarray(c) + r * nx) % 1.0, nx.copy(), weights.copy(), *curv, tangent_fn, (None,))
        for c in centers
    ]


def _sphere_charts(centers, r: float, res: int) -> list[Chart]:
    """One chart per sphere of radius r, axes (theta, phi) on the double
    Fourier sphere; every chart shares one tangent_fn.

    Polar nodes theta_j = (j + 1/2) pi / res carry Fejer's first-rule
    weights in cos(theta).  A function on the sphere extends to a 2 pi
    periodic function of theta by f(2 pi - theta, phi + pi), so the polar
    derivative is the FFT derivative of that doubled array (res even puts
    phi + pi on a node), and both chart axes are periodic.
    """
    theta = (np.arange(res) + 0.5) * np.pi / res
    phi = 2 * np.pi * np.arange(res) / res
    k = np.arange(1, res // 2 + 1)
    cos_sum = np.cos(2.0 * np.outer(theta, k)) @ (1.0 / (4.0 * k**2 - 1.0))
    fejer = (2.0 / res) * (1.0 - 2.0 * cos_sum)
    sin_t = np.sin(theta)
    nx = np.empty((res, res, 3))
    nx[..., 0] = sin_t[:, None] * np.cos(phi)[None, :]
    nx[..., 1] = sin_t[:, None] * np.sin(phi)[None, :]
    nx[..., 2] = np.cos(theta)[:, None]
    weights = np.broadcast_to(r**2 * fejer[:, None] * (2 * np.pi / res), (res, res))

    def tangent_fn(values):
        doubled = np.concatenate([values, np.roll(values[::-1], res // 2, axis=1)])
        d_polar = _fft_deriv(doubled, 0, period=2 * np.pi, scale=1.0 / r)[:res]
        d_azim = _fft_deriv(values, 1, period=2 * np.pi, scale=1.0 / r)
        return [d_polar, d_azim / sin_t.reshape((res,) + (1,) * (values.ndim - 1))]

    curv = (2.0 / r, 2.0 / r**2)
    return [
        Chart((np.asarray(c) + r * nx) % 1.0, nx.copy(), weights.copy(), *curv, tangent_fn, (None, None))
        for c in centers
    ]


def _cylinder_charts(pieces: list[Cylinder], res: int, axial_res: int) -> list[Chart]:
    """One chart per cylinder of the common radius, axes (theta, z), res by
    axial_res nodes: the last axis runs along the cylinder axis.  Every
    chart shares one tangent_fn."""
    r, axis = pieces[0].radius, pieces[0].axis
    a1, a2 = pieces[0].cross_axes()
    theta = 2 * np.pi * np.arange(res) / res
    z = np.arange(axial_res) / axial_res

    def tangent_fn(values):
        return [
            _fft_deriv(values, 0, period=2 * np.pi, scale=1.0 / r),
            _fft_deriv(values, 1, period=1.0),
        ]

    charts = []
    for shape in pieces:
        pts = np.zeros((res, axial_res, 3))
        normals = np.zeros((res, axial_res, 3))
        pts[..., a1] = (shape.center[0] + r * np.cos(theta))[:, None] % 1.0
        pts[..., a2] = (shape.center[1] + r * np.sin(theta))[:, None] % 1.0
        pts[..., axis] = z[None, :]
        normals[..., a1] = np.cos(theta)[:, None]
        normals[..., a2] = np.sin(theta)[:, None]
        weights = np.full((res, axial_res), 2 * np.pi * r / (res * axial_res))
        charts.append(Chart(pts, normals, weights, 1.0 / r, 1.0 / r**2, tangent_fn, (None, axis)))
    return charts


def interface_mesh(shape, resolution: int, dim: int) -> InterfaceMesh:
    """Quadrature mesh of the boundary of a candidate (or its 1/k tiling).

    resolution is the sample count per chart axis and must be at least 8,
    and even for a sphere.  A tiling TiledShape(shape, k) is meshed as its
    connected pieces, each a candidate in its own right: k lamellae of
    halfwidth w / k, k^2 cylinders or k^dim balls of radius r / k.  A chart
    axis that wraps the torus (a lamella's tangential axes, a cylinder's
    axis) runs through k copies and carries k * resolution nodes.  Charts
    with the same tangent operator (both sides of a lamella, the copies of
    a tiling) share one tangent_fn object, so the pencil builds their
    stiffness once.
    """
    if resolution < MIN_MESH_RESOLUTION:
        raise ValueError(f"mesh resolution must be at least {MIN_MESH_RESOLUTION} per chart axis")
    k = 1
    if isinstance(shape, TiledShape):
        shape, k = shape.shape, shape.k
    _check_shape_dim(shape, dim)
    if isinstance(shape, Lamella):
        if dim < 2:
            raise ValueError("a lamella in dim 1 has point interfaces, which carry no chart")
        centers = _copy_centers((shape.center,), k)
        pieces = [Lamella(shape.axis, c, shape.halfwidth / k) for (c,) in centers]
        return InterfaceMesh(_lamella_charts(pieces, dim, k * resolution))
    if isinstance(shape, Ball):
        if dim == 2:
            charts_fn = _circle_charts
        elif dim == 3:
            if resolution % 2:
                raise ValueError("sphere meshes need an even resolution")
            charts_fn = _sphere_charts
        else:
            raise ValueError("ball meshes exist for dim 2 and 3 only")
        return InterfaceMesh(charts_fn(_copy_centers(shape.center, k), shape.radius / k, resolution))
    centers = _copy_centers(shape.center, k)  # a cylinder: _check_shape_dim admits no other
    pieces = [Cylinder(shape.axis, c, shape.radius / k) for c in centers]
    return InterfaceMesh(_cylinder_charts(pieces, resolution, k * resolution))


def _copy_centers(center, k: int) -> list[tuple[float, ...]]:
    """The centres (c + offs) / k of the k^len(center) copies of a 1/k
    tiling, copy offsets in C order (mod 1: c just below 1 may round up)."""
    offsets = np.ndindex((k,) * len(center))
    return [tuple((c + o) / k % 1.0 for c, o in zip(center, offs)) for offs in offsets]


@dataclass(frozen=True)
class CriticalityReport:
    gamma: float
    k: int
    lambda_: float
    residual_sup: float
    grad_h_sup: float


def el_residual(shape, gamma: float, spec: GridSpec, resolution: int = 32) -> CriticalityReport:
    """Criticality diagnostics of a candidate (or its 1/k tiling) at gamma.

    lambda is the weighted surface average of H + 4 gamma v; residual_sup the
    sup of |H + 4 gamma v - lambda| over the mesh.  grad_h_sup estimates
    sup |grad_tau H| through the critical-set identity grad_tau H =
    -4 gamma grad_tau v (the curvature of candidates is constant per chart,
    so its direct tangential derivative vanishes identically).  The potential
    and its gradient are sampled together, in one call over the points of
    every chart, from reduced_raster on the grid of the axes the shape
    varies along (its spectrum is zero off xi_a = 0 on the others); the
    gradient, 0 along the other axes, is scattered back to dim columns.
    """
    k = shape.k if isinstance(shape, TiledShape) else 1
    mesh = interface_mesh(shape, resolution, spec.dim)
    axes, u = reduced_raster(shape, spec)
    pts, normals, weights = mesh.all_points(), mesh.all_normals(), mesh.all_weights()
    curv = np.concatenate([np.full(c.weights.size, c.mean_curv) for c in mesh.charts])
    v, gv = _potential_and_gradient(u, pts[:, axes], get_workspace(u.spec))
    grad = np.zeros_like(pts)
    grad[:, axes] = gv
    g = curv + 4.0 * gamma * v
    lam = float(np.sum(weights * g)) / float(np.sum(weights))
    residual = float(np.max(np.abs(g - lam)))
    tang = grad - np.sum(grad * normals, axis=-1)[:, None] * normals
    grad_sup = 4.0 * gamma * float(np.max(np.linalg.norm(tang, axis=-1)))
    return CriticalityReport(gamma, k, lam, residual, grad_sup)
