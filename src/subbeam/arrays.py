"""Antenna-array geometry, steering vectors and beamforming gains.

Angles are radians everywhere in this module; convert at the CLI/config
boundary. Gains and SNRs are linear power ratios; convert to dB only for
display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "Beamformer",
    "steering_vector",
    "beamforming_gain",
    "conjugate_beam",
]

# Angular field of view of the simulated front end (degrees, symmetric).
FIELD_OF_VIEW_DEG = 60.0


def in_field_of_view(angle: float) -> bool:
    """Whether ``angle`` (radians) lies within +/-``FIELD_OF_VIEW_DEG``; the one such test."""
    return abs(angle) <= math.radians(FIELD_OF_VIEW_DEG) + 1e-12


LAYOUTS = ("ula", "planar")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear or uniform planar antenna array.

    Parameters
    ----------
    num_elements : int
        Total element count N.
    spacing : float
        Inter-element spacing in wavelengths (d/lambda).
    layout : str
        "ula" (azimuth-only) or "planar" (azimuth + elevation).
    planar_shape : tuple[int, int] | None
        (columns along azimuth, rows along elevation); required for planar.
    """

    num_elements: int
    spacing: float = 0.5
    layout: str = "ula"
    planar_shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")
        if self.spacing <= 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.layout == "planar":
            if self.planar_shape is None:
                raise ValueError("planar layout requires planar_shape")
            if len(self.planar_shape) != 2:
                raise ValueError(
                    f"planar_shape {tuple(self.planar_shape)} must have two entries "
                    "(columns, rows)"
                )
            n_az, n_el = self.planar_shape
            if n_az * n_el != self.num_elements:
                raise ValueError(
                    f"planar_shape {tuple(self.planar_shape)} does not match "
                    f"num_elements {self.num_elements}"
                )
        elif self.planar_shape is not None:
            raise ValueError(
                f"planar_shape {tuple(self.planar_shape)} only valid for planar layout"
            )

    @classmethod
    def ula(cls, num_elements: int, spacing: float = 0.5) -> "ArrayGeometry":
        return cls(num_elements=num_elements, spacing=spacing, layout="ula")

    @classmethod
    def planar(cls, n_az: int, n_el: int, spacing: float = 0.5) -> "ArrayGeometry":
        return cls(
            num_elements=n_az * n_el,
            spacing=spacing,
            layout="planar",
            planar_shape=(n_az, n_el),
        )


@dataclass(frozen=True)
class Beamformer:
    """Complex per-element weights; |w_n| <= 1, phase in [-pi, +pi)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.complex128)
        amp = np.abs(w)
        if np.any(amp > 1.0 + 1e-9):
            raise ValueError("beamformer amplitude exceeds 1")
        # Clip float-epsilon overshoot from upstream arithmetic.
        over = amp > 1.0
        if np.any(over):
            w = w.copy()
            w[over] = w[over] / amp[over]
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


def _validate_angles(geometry: ArrayGeometry, azimuth: float, elevation):
    if not (-math.pi / 2 <= azimuth <= math.pi / 2):
        raise ValueError("azimuth must lie in [-pi/2, +pi/2]")
    if geometry.layout == "ula":
        if elevation is not None:
            raise ValueError("elevation given for a ULA geometry")
    else:
        if elevation is None:
            raise ValueError("planar geometry requires an elevation angle")
        if not (-math.pi / 2 <= elevation <= math.pi / 2):
            raise ValueError("elevation must lie in [-pi/2, +pi/2]")


def steering_vector(
    geometry: ArrayGeometry, azimuth: float, elevation: float | None = None
) -> np.ndarray:
    """Unit-modulus array response toward (azimuth[, elevation]).

    Element n of a ULA is exp(j*2*pi*n*(d/lambda)*sin(azimuth)); the first
    element is always 1. Planar arrays use the separable azimuth/elevation
    product with element index n = row*n_az + col.
    """
    _validate_angles(geometry, azimuth, elevation)
    if geometry.layout == "ula":
        n = np.arange(geometry.num_elements)
        return np.exp(1j * 2.0 * np.pi * geometry.spacing * n * math.sin(azimuth))
    n_az, n_el = geometry.planar_shape
    col = np.exp(1j * 2.0 * np.pi * geometry.spacing * np.arange(n_az) * math.sin(azimuth))
    row = np.exp(1j * 2.0 * np.pi * geometry.spacing * np.arange(n_el) * math.sin(elevation))
    return np.kron(row, col)


def beamforming_gain(
    weights: Beamformer | np.ndarray,
    geometry: ArrayGeometry,
    azimuth: float,
    elevation: float | None = None,
) -> float:
    """Radiated power gain |s^T(angle) . w|^2 toward the given direction.

    Conjugate weights w = conj(s(angle)) give the maximum N^2.
    """
    w = weights.weights if isinstance(weights, Beamformer) else np.asarray(weights)
    if len(w) != geometry.num_elements:
        raise ValueError(
            f"weight length {len(w)} does not match geometry ({geometry.num_elements})"
        )
    s = steering_vector(geometry, azimuth, elevation)
    return float(np.abs(s @ w) ** 2)


def conjugate_beam(
    geometry: ArrayGeometry, azimuth: float, elevation: float | None = None
) -> Beamformer:
    """Conjugate beamformer toward one direction (gain N^2 there)."""
    return Beamformer(np.conj(steering_vector(geometry, azimuth, elevation)))
