"""Finite weighted state grids, intensities, sensor models, and grid functionals.

The state space is a finite grid with quadrature weights, so every bracket
functional p[f] is an exact finite sum.  The measurement space comes in two
modes behind one interface: a discrete tabulated kernel (required by the
exact-Bayes oracle) and opaque evaluable densities for simulation demos.
The corrector only ever consumes likelihood-to-clutter ratio values, so both
modes look the same from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DegeneratePriorError,
    EvaluationError,
    ModelViolationError,
)
from .pgf import CardinalityPgf


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateGrid:
    """Finite discrete state space: point ids plus positive quadrature weights."""

    ids: tuple
    weights: np.ndarray

    @staticmethod
    def create(weights, ids=None) -> "StateGrid":
        w = _frozen_array(weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("grid weights must be a non-empty 1-d sequence")
        if np.any(w <= 0.0):
            raise ValueError("grid weights must all be positive")
        if ids is None:
            ids = tuple(range(w.size))
        else:
            ids = tuple(ids)
            if len(ids) != w.size or len(set(ids)) != len(ids):
                raise ValueError("grid ids must be unique and match the weight count")
        return StateGrid(ids=ids, weights=w)

    @property
    def size(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class Intensity:
    """Non-negative intensity values per grid point (expected targets per volume)."""

    grid: StateGrid
    values: np.ndarray

    @staticmethod
    def create(grid: StateGrid, values) -> "Intensity":
        v = _frozen_array(values)
        if v.shape != (grid.size,):
            raise ValueError(f"intensity shape {v.shape} does not match grid size {grid.size}")
        if np.any(v < 0.0):
            raise ValueError("intensity values must be non-negative")
        return Intensity(grid=grid, values=v)

    def total_mass(self) -> float:
        return float(np.dot(self.values, self.grid.weights))


@dataclass(frozen=True)
class SpatialDensity:
    """Probability density on the grid: values integrate to 1 under the weights."""

    grid: StateGrid
    values: np.ndarray

    @staticmethod
    def create(grid: StateGrid, values) -> "SpatialDensity":
        v = _frozen_array(values)
        if v.shape != (grid.size,):
            raise ValueError(f"density shape {v.shape} does not match grid size {grid.size}")
        if np.any(v < 0.0):
            raise ValueError("density values must be non-negative")
        mass = float(np.dot(v, grid.weights))
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"density integrates to {mass!r}, not 1")
        return SpatialDensity(grid=grid, values=v)


def normalize_intensity(intensity: Intensity) -> tuple[float, SpatialDensity]:
    """Split an intensity into total mass and the normalized spatial density."""
    mass = intensity.total_mass()
    if mass <= 0.0:
        raise DegeneratePriorError("prior intensity has zero total mass")
    values = intensity.values / mass
    values = values / float(np.dot(values, intensity.grid.weights))
    return mass, SpatialDensity(grid=intensity.grid, values=_frozen_array(values))


def bracket(density: SpatialDensity, f) -> float:
    """The grid functional p[f] = sum_x p(x) f(x) w(x).

    `f` is an array over grid points.  Non-finite values are surfaced with
    the offending point named.
    """
    grid = density.grid
    values = np.asarray(f, dtype=float)
    if values.shape != (grid.size,):
        raise ValueError(f"functional shape {values.shape} does not match grid size")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        point = grid.ids[int(bad[0])]
        raise EvaluationError(f"non-finite functional value at grid point {point!r}")
    # fsum over Python floats: the same exactly rounded sum, faster than over numpy scalars.
    return float(math.fsum((density.values * values * grid.weights).tolist()))


class DiscreteKernel:
    """Tabulated measurement kernel over a finite measurement space.

    `likelihood[i, z]` is p_z(z | x_i) and `clutter_density[z]` is p_FA(z);
    each likelihood row and the clutter density are normalized over the
    measurement space within 1e-12.
    """

    def __init__(self, likelihood, clutter_density):
        self.likelihood = _frozen_array(likelihood)
        self.clutter_density = _frozen_array(clutter_density)
        if self.likelihood.ndim != 2:
            raise ValueError("likelihood table must be 2-d (points x measurement values)")
        if self.clutter_density.shape != (self.likelihood.shape[1],):
            raise ValueError("clutter density length must match the measurement space")
        if np.any(self.likelihood < 0.0) or np.any(self.clutter_density < 0.0):
            raise ValueError("kernel tables must be non-negative")
        row_sums = self.likelihood.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                f"likelihood row {worst} sums to {row_sums[worst]!r}, not 1"
            )
        total = float(self.clutter_density.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"clutter density sums to {total!r}, not 1")

    @property
    def discrete(self) -> bool:
        return True

    @property
    def n_values(self) -> int:
        return int(self.likelihood.shape[1])

    def likelihood_column(self, value) -> np.ndarray:
        return self.likelihood[:, int(value)]

    def clutter_value(self, value) -> float:
        return float(self.clutter_density[int(value)])


class ContinuousKernel:
    """Opaque evaluable densities for continuous measurement spaces.

    `likelihood(value)` returns the per-point density column and
    `clutter_density(value)` the clutter density; normalization is the
    caller's responsibility and is not asserted in this mode.
    """

    def __init__(self, likelihood: Callable, clutter_density: Callable, n_points: int):
        self._likelihood = likelihood
        self._clutter = clutter_density
        self._n_points = n_points

    @property
    def discrete(self) -> bool:
        return False

    def likelihood_column(self, value) -> np.ndarray:
        col = np.asarray(self._likelihood(value), dtype=float)
        if col.shape != (self._n_points,):
            raise ValueError("likelihood callable returned a column of the wrong size")
        return col

    def clutter_value(self, value) -> float:
        return float(self._clutter(value))


@dataclass(frozen=True)
class SensorModel:
    """Detection probability, clutter process, and per-target measurement process.

    The per-point table G_Z^(j)(0 | x), j = 0..k, depends on the model alone,
    so the model builds it on first use and keeps it for every later step.  It
    grows only when a step needs a higher order than any before it, and
    `dataclasses.replace` starts the new model without it.  A single step
    still pays for one build.
    """

    grid: StateGrid
    detection_prob: np.ndarray
    clutter_card: CardinalityPgf
    meas_card: tuple[CardinalityPgf, ...]
    kernel: object
    _gz_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def create(grid, detection_prob, clutter_card, meas_card, kernel) -> "SensorModel":
        p_d = _frozen_array(detection_prob)
        if p_d.shape != (grid.size,):
            raise ValueError("detection probability length must match the grid")
        if np.any(p_d < 0.0) or np.any(p_d > 1.0):
            raise ValueError("detection probabilities must lie in [0, 1]")
        cards = tuple(meas_card)
        if len(cards) != grid.size:
            raise ValueError("per-point measurement cardinalities must match the grid")
        return SensorModel(
            grid=grid,
            detection_prob=p_d,
            clutter_card=clutter_card,
            meas_card=cards,
            kernel=kernel,
        )

    def meas_pgf_at_zero(self) -> np.ndarray:
        """G_Z(0 | x) per grid point, i.e. the no-measurement probability."""
        return self.meas_derivatives_at_zero(0)[0]

    def meas_derivatives_at_zero(self, k: int) -> np.ndarray:
        """Read-only matrix gz[j, i] = j-th derivative of G_Z(. | x_i) at 0, j = 0..k."""
        table = self._gz_tables.get("at_zero")
        if table is None or table.shape[0] <= k:
            # Per card, not vectorised over cards: numpy's exp and power may
            # round differently from math.exp and float powers.
            cols = [card.derivatives_at(0.0, k) for card in self.meas_card]
            table = _frozen_array(np.array(cols).T.copy() if cols else np.zeros((k + 1, 0)))
            self._gz_tables["at_zero"] = table
        return table[: k + 1]

    def ratio_column(self, value) -> np.ndarray:
        """p_z(value | x) / p_FA(value) per grid point."""
        clutter = self.kernel.clutter_value(value)
        if clutter <= 0.0:
            raise ModelViolationError(
                f"clutter density is {clutter!r} at observed measurement {value!r}; "
                f"likelihood ratios would be unbounded"
            )
        return self.kernel.likelihood_column(value) / clutter


@dataclass(frozen=True)
class MeasurementSet:
    """Labeled measurement values; label i is the index into `values`.

    Labels, not values, are partitioned, so duplicate values are handled
    correctly.  Labels are distinct and contiguous from 0 by construction.
    """

    values: tuple = ()

    @staticmethod
    def of(values) -> "MeasurementSet":
        return MeasurementSet(values=tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(range(len(self.values)))


def ratio_matrix(measurements: MeasurementSet, model: SensorModel) -> np.ndarray:
    """R[z, i] = p_z(value_z | x_i) / p_FA(value_z) for every label z."""
    if len(measurements) == 0:
        return np.zeros((0, model.grid.size))
    return np.vstack([model.ratio_column(v) for v in measurements.values])


def likelihood_ratio_product(cell, point_index: int, measurements: MeasurementSet,
                             model: SensorModel) -> float:
    """Product over labels in `cell` of p_z(z | x)/p_FA(z); empty product is 1."""
    labels = tuple(cell)
    if any(z not in measurements.labels for z in labels):
        raise ValueError(f"cell {labels} contains labels outside the measurement set")
    product = 1.0
    for z in labels:
        product *= float(model.ratio_column(measurements.values[z])[point_index])
    return product


def missed_detection_profile(model: SensorModel) -> np.ndarray:
    """Per-point value of 1 - p_D(x) + p_D(x) G_Z(0 | x)."""
    p_d = model.detection_prob
    return 1.0 - p_d + p_d * model.meas_pgf_at_zero()


def missed_detection_mass(density: SpatialDensity, model: SensorModel) -> float:
    """The scalar p[1 - p_D + p_D G_Z(0)], always within [0, 1]."""
    return bracket(density, missed_detection_profile(model))
