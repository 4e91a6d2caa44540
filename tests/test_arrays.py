"""Array geometry, steering and gain unit tests."""

import math

import numpy as np
import pytest

from subbeam.arrays import (
    ArrayGeometry,
    Beamformer,
    beamforming_gain,
    conjugate_beam,
    steering_vector,
)


def test_single_element_steering_is_one():
    geo = ArrayGeometry.ula(1)
    for deg in (-45.0, 0.0, 60.0):
        v = steering_vector(geo, math.radians(deg))
        assert v.shape == (1,)
        assert v[0] == pytest.approx(1.0)


def test_broadside_steering_all_ones():
    v = steering_vector(ArrayGeometry.ula(8), 0.0)
    assert np.allclose(v, np.ones(8))


def test_steering_half_angle_phases():
    # sin(30 deg) = 1/2 with half-wavelength spacing: pi/2 steps
    v = steering_vector(ArrayGeometry.ula(4), math.radians(30.0))
    expected = np.exp(1j * np.pi / 2 * np.arange(4))
    assert np.allclose(v, expected, atol=1e-12)


def test_steering_unit_modulus():
    geo = ArrayGeometry.ula(32)
    rng = np.random.default_rng(0)
    for angle in rng.uniform(-np.pi / 2, np.pi / 2, size=20):
        assert np.max(np.abs(np.abs(steering_vector(geo, angle)) - 1)) < 1e-12


def test_steering_angle_validation():
    geo = ArrayGeometry.ula(4)
    with pytest.raises(ValueError):
        steering_vector(geo, 1.8)
    with pytest.raises(ValueError):
        steering_vector(geo, 0.1, elevation=0.0)  # elevation on a ULA
    planar = ArrayGeometry.planar(2, 2)
    with pytest.raises(ValueError):
        steering_vector(planar, 0.1)  # elevation missing


def test_planar_steering_is_separable():
    geo = ArrayGeometry.planar(4, 3)
    az, el = math.radians(20), math.radians(-10)
    v = steering_vector(geo, az, el)
    col = steering_vector(ArrayGeometry.ula(4), az)
    row = steering_vector(ArrayGeometry.ula(3), el)
    assert np.allclose(v, np.kron(row, col), atol=1e-12)


def test_conjugate_gain_is_n_squared():
    geo = ArrayGeometry.ula(16)
    angle = math.radians(17.0)
    w = conjugate_beam(geo, angle)
    assert beamforming_gain(w, geo, angle) == pytest.approx(256.0, rel=1e-12)


def test_zero_weights_zero_gain():
    geo = ArrayGeometry.ula(8)
    assert beamforming_gain(Beamformer(np.zeros(8)), geo, 0.3) == 0.0


def test_two_element_null_at_endfire():
    geo = ArrayGeometry.ula(2)
    gain = beamforming_gain(Beamformer(np.ones(2)), geo, math.pi / 2)
    assert gain == pytest.approx(0.0, abs=1e-20)


def test_gain_length_mismatch():
    with pytest.raises(ValueError):
        beamforming_gain(Beamformer(np.ones(3)), ArrayGeometry.ula(4), 0.0)


def test_gain_cauchy_schwarz_bound():
    geo = ArrayGeometry.ula(12)
    rng = np.random.default_rng(3)
    for _ in range(30):
        w = Beamformer(np.exp(1j * rng.uniform(-np.pi, np.pi, 12)))
        angle = rng.uniform(-np.pi / 2, np.pi / 2)
        assert beamforming_gain(w, geo, angle) <= 144.0 + 1e-9


def test_gain_global_phase_invariance():
    geo = ArrayGeometry.ula(16)
    rng = np.random.default_rng(4)
    w = Beamformer(rng.uniform(0.2, 1.0, 16) * np.exp(1j * rng.uniform(-np.pi, np.pi, 16)))
    for theta in (0.3, -1.2, 2.9):
        g0 = beamforming_gain(w, geo, 0.4)
        g1 = beamforming_gain(Beamformer(w.weights * np.exp(1j * theta)), geo, 0.4)
        assert g1 == pytest.approx(g0, rel=1e-9)


def test_beamformer_amplitude_cap():
    with pytest.raises(ValueError):
        Beamformer(np.array([1.5, 0.5]))
