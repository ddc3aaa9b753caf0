"""Perimeter, the sharp functional P + gamma*NL, and the 1/k rescaling identities.

All rescaled-torus quantities are derived, never discretized: a tiled set is
measured on the fine grid while its parent is measured on the n/k coarse grid,
so every feature is sampled identically on both sides and the k-laws

    P(E^k) = k P(E),   NL(E^k) = k^-2 NL(E),
    F^gamma(E^k) = k [ P(E) + gamma k^-3 NL(E) ]

hold to rounding rather than to discretization accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import nonlocal_energy
from .torus_field import (
    Ball,
    Cylinder,
    GridSpec,
    Lamella,
    ScalarField,
    ShapeCandidate,
    TiledShape,
    periodize,
    rasterize,
)


def perimeter(shape) -> float:
    """Analytic perimeter of a candidate shape.

    Lamella 2 (two unit flat interfaces), ball 2*pi*r (dim 2) or 4*pi*r^2
    (dim 3), cylinder 2*pi*r.  TiledShape multiplies by k.
    """
    if isinstance(shape, TiledShape):
        return shape.k * perimeter(shape.shape)
    if isinstance(shape, Lamella):
        return 2.0
    if isinstance(shape, Ball):
        r = shape.radius
        return {1: 2.0, 2: 2 * math.pi * r, 3: 4 * math.pi * r * r}[len(shape.center)]
    if isinstance(shape, Cylinder):
        return 2 * math.pi * shape.radius
    raise TypeError(f"cannot take the perimeter of {shape!r}")


def total_variation_perimeter(u: ScalarField) -> float:
    """Finite-difference total variation of an indicator field.

    Counts jump facets weighted by their area prod_{i != axis} h_i (the
    anisotropy correction for unequal per-axis spacings).  Exact for
    axis-aligned interfaces whose jumps sit between cells; for curved
    interfaces it measures the l1 (Manhattan) perimeter, an O(1) overestimate,
    so candidate shapes go through the analytic perimeter.
    """
    if u.kind != "indicator":
        raise ValueError("TV perimeter is defined for indicator fields")
    spec = u.spec
    total = 0.0
    for a in range(spec.dim):
        jumps = np.abs(u.values - np.roll(u.values, 1, axis=a)) / 2.0
        facet_area = spec.sizes[a] / spec.cells  # prod_{i != a} h_i
        total += float(np.sum(jumps)) * facet_area
    return total


@dataclass(frozen=True)
class EnergyBreakdown:
    perimeter: float
    nonlocal_term: float
    gamma: float

    @property
    def total(self) -> float:
        return self.perimeter + self.gamma * self.nonlocal_term


def sharp_energy(shape, gamma: float, spec: GridSpec) -> EnergyBreakdown:
    """P + gamma * NL of a candidate shape, its NL on the raster on spec."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return EnergyBreakdown(perimeter(shape), nonlocal_energy(rasterize(shape, spec)), gamma)


@dataclass(frozen=True)
class ScalingReport:
    """Measured vs predicted energies of a 1/k tiling.

    lhs quantities are measured on the tiled set on the full grid; rhs
    predictions come from the parent measured on the n/k grid.
    """

    k: int
    perimeter_lhs: float
    nonlocal_lhs: float
    total_lhs: float
    perimeter_rhs: float
    nonlocal_rhs: float
    total_rhs: float

    @staticmethod
    def _rel(lhs: float, rhs: float) -> float:
        return abs(lhs - rhs) / max(abs(rhs), 1e-300)

    @property
    def perimeter_error(self) -> float:
        return self._rel(self.perimeter_lhs, self.perimeter_rhs)

    @property
    def nonlocal_error(self) -> float:
        return self._rel(self.nonlocal_lhs, self.nonlocal_rhs)

    @property
    def total_error(self) -> float:
        return self._rel(self.total_lhs, self.total_rhs)


def scaling_check(shape: ShapeCandidate, gamma: float, k: int, spec: GridSpec) -> ScalingReport:
    """Measure F^gamma on tile(E,k) and compare with k [P(E) + gamma k^-3 NL(E)].

    The tiled indicator is the periodization of the parent rasterized on the
    n/k grid (its exact fine-grid rasterization); parent P and NL are measured
    on that same coarse grid.  TV perimeter is reported on both sides, so the
    perimeter identity is exact for any shape; the NL identity is frequency
    bookkeeping and must hold to 1e-12.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    coarse_spec = spec.coarsen(k)
    parent = rasterize(shape, coarse_spec)
    tiled = periodize(parent, k)

    p_lhs = total_variation_perimeter(tiled)
    nl_lhs = nonlocal_energy(tiled)
    total_lhs = p_lhs + gamma * nl_lhs

    p_parent = total_variation_perimeter(parent)
    nl_parent = nonlocal_energy(parent)
    p_rhs = k * p_parent
    nl_rhs = nl_parent / k**2
    total_rhs = k * (p_parent + gamma * nl_parent / k**3)

    return ScalingReport(k, p_lhs, nl_lhs, total_lhs, p_rhs, nl_rhs, total_rhs)
