import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcsim.elements import (GainParams, beam_split, detector_loss, parametric_amplify,
                              polarizer_project, splitter_amplitudes)
from spdcsim.sampling import RngStream, sample_vacuum

from helpers import (covariance_intensity, field_pair_moment, mean_intensity,
                     variance_intensity)

GL_UNIT = math.asinh(1.0)  # S^2 = 1


def _twin(reps=1_000_000, seed=42, gl=GL_UNIT):
    ens = sample_vacuum(RngStream(seed, 0), reps, 2)
    g = GainParams(gl)
    return parametric_amplify(ens[:, 0], ens[:, 1], g.C, g.S)


def test_gain_params_validation_and_identity():
    g = GainParams(0.0)
    assert (g.C, g.S) == (1.0, 0.0)
    with pytest.raises(ValueError):
        GainParams(-0.1)
    with pytest.raises(ValueError):
        GainParams(float("nan"))
    assert GainParams.from_mean_photons(1.0).gl == pytest.approx(GL_UNIT)
    g = GainParams(0.7)
    assert copy.deepcopy(g) == pickle.loads(pickle.dumps(g)) == g
    assert g._replace(gl=1.0) == GainParams(1.0)  # cosh and sinh made anew
    with pytest.raises(ValueError):
        g._replace(gl=-1.0)
    with pytest.raises(ValueError):
        g._replace(C=1.0)


@given(st.floats(0.0, 5.0))
def test_gain_params_hyperbolic_identity(gl):
    g = GainParams(gl)
    assert g.C ** 2 - g.S ** 2 == pytest.approx(1.0, abs=8 * np.spacing(g.C ** 2))


def test_amplifier_zero_gain_is_identity():
    ens = sample_vacuum(RngStream(1, 0), 1000, 2)
    g = GainParams(0.0)
    es, ei = parametric_amplify(ens[:, 0], ens[:, 1], g.C, g.S)
    assert np.array_equal(es, ens[:, 0])
    assert np.array_equal(ei, ens[:, 1])


def test_twin_beam_mean_and_covariance():
    es, ei = _twin()
    mean = mean_intensity(es)
    assert mean.deviation(1.0) < 5
    cov = covariance_intensity(es, ei)
    assert cov.deviation(2.0) < 5


def test_amplifier_vanishing_moments():
    es, ei = _twin(reps=500_000)
    for est in (field_pair_moment(es, es), field_pair_moment(ei, ei),
                field_pair_moment(es, ei, conjugate_second=True)):
        assert est.deviation(0.0) < 5


@settings(max_examples=50)
@given(st.floats(0.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_amplifier_conserves_intensity_difference(gl, seed):
    ens = sample_vacuum(RngStream(seed, 0), 64, 2)
    es0, ei0 = ens[:, 0], ens[:, 1]
    g = GainParams(gl)
    es, ei = parametric_amplify(es0, ei0, g.C, g.S)
    before = np.abs(es0) ** 2 - np.abs(ei0) ** 2
    after = np.abs(es) ** 2 - np.abs(ei) ** 2
    scale = np.maximum(np.abs(es) ** 2 + np.abs(ei) ** 2, 1.0)
    assert np.all(np.abs(after - before) < 1e-10 * scale)


@pytest.mark.parametrize("dtype", [float, complex])
def test_amplifier_gain_per_mode_equals_the_scalar_call_mode_by_mode(dtype):
    # one (C, S) per (n, n) mode, broadcast over (reps, n, n) fields as the
    # hom2d synthesis passes them (complex there, so numpy casts nothing)
    n, reps = 5, 7
    gl = np.linspace(0.0, 3.0, n * n).reshape(n, n)
    C, S = np.cosh(gl).astype(dtype), np.sinh(gl).astype(dtype)
    ens = sample_vacuum(RngStream(8, 0), reps, 2 * n * n).reshape(reps, 2, n, n)
    want = np.empty((2, reps, n, n), dtype=complex)
    for j, k in np.ndindex(n, n):
        want[:, :, j, k] = parametric_amplify(ens[:, 0, j, k], ens[:, 1, j, k],
                                              float(C[j, k].real), float(S[j, k].real))
    got = parametric_amplify(ens[:, 0], ens[:, 1], C, S)
    for g, w in zip(_bits(got), _bits(want), strict=True):
        np.testing.assert_array_equal(g, w)


def test_balanced_splitter_nulls_covariance():
    es, ei = _twin()
    e1, e2 = beam_split(es, ei, 0.5)
    cov = covariance_intensity(e1, e2)
    assert cov.deviation(0.0) < 5


def test_transparent_splitter_passes_input():
    es, ei = _twin(reps=1000)
    e1, _ = beam_split(es, ei, 1.0)
    assert np.array_equal(e1, es)


def test_unbalanced_splitter_covariance_ratio():
    # direct evaluation of the suppression factor: |t^2 - r^2|^2 = (2T-1)^2
    T = 0.9
    expect = (2 * T - 1) ** 2
    es, ei = _twin()
    e1, e2 = beam_split(es, ei, T)
    cov_out = covariance_intensity(e1, e2)
    cov_in = covariance_intensity(es, ei)
    ratio = cov_out.value / cov_in.value
    se = cov_out.std_error / cov_in.value
    assert abs(ratio - expect) < 5 * se
    assert expect == pytest.approx(0.64)


@settings(max_examples=100)
@given(st.floats(0.0, 1.0))
def test_splitter_unitarity_invariants(T):
    # beam_split's matrix [[t, r], [r, t]]: unit columns, orthogonal to each other
    t, r = splitter_amplitudes(T)
    assert abs(abs(t) ** 2 + abs(r) ** 2 - 1) < 1e-12
    assert abs(t * np.conj(r) + r * np.conj(t)) < 1e-12


@settings(max_examples=30)
@given(st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_splitter_conserves_energy_per_sample(T, seed):
    ens = sample_vacuum(RngStream(seed, 0), 128, 2)
    g = GainParams(1.0)
    es, ei = parametric_amplify(ens[:, 0], ens[:, 1], g.C, g.S)
    e1, e2 = beam_split(es, ei, T)
    before = np.abs(es) ** 2 + np.abs(ei) ** 2
    after = np.abs(e1) ** 2 + np.abs(e2) ** 2
    assert np.all(np.abs(after - before) < 1e-12 * np.maximum(before, 1.0))


def test_splitter_refuses_transmittance_outside_unit_interval():
    es, ei = _twin(reps=8)
    for T in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError, match=rf"^transmittance must lie in \[0, 1\], got {T}$"):
            beam_split(es, ei, T)


def test_polarizer_projections():
    ex = np.array([1.0 + 0j, 2.0 - 1j])
    ey = np.array([0.5j, -1.0 + 0j])
    assert np.allclose(polarizer_project(ex, ey, 0.0), ex)
    assert np.allclose(polarizer_project(ex, ey, math.pi / 2), ey, atol=1e-15)
    out = polarizer_project(np.array([1.0 + 0j]), np.array([1j]), math.pi / 4)
    assert out[0] == pytest.approx((1 + 1j) / math.sqrt(2))


def test_detector_loss_limits_and_moments():
    es, ei = _twin()
    vac = sample_vacuum(RngStream(99, 0), es.size, 2)
    assert np.allclose(detector_loss(es, 1.0, vac[:, 0]), es)

    dark = detector_loss(es, 0.0, vac[:, 0])
    assert mean_intensity(dark).deviation(0.0) < 5

    d1 = detector_loss(es, 0.5, vac[:, 0])
    d2 = detector_loss(ei, 0.5, vac[:, 1])
    assert mean_intensity(d1).deviation(0.5) < 5
    assert variance_intensity(d1).deviation(0.75) < 5
    assert covariance_intensity(d1, d2).deviation(0.5) < 5


def test_detector_loss_refuses_eta_outside_unit_interval():
    es, _ = _twin(reps=8)
    vac = sample_vacuum(RngStream(99, 0), es.size, 1)
    for eta in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError, match=rf"^eta must lie in \[0, 1\], got {eta}$"):
            detector_loss(es, eta, vac[:, 0])


def test_outputs_stay_finite_through_pipeline():
    es, ei = _twin(reps=10_000, gl=3.0)
    e1, e2 = beam_split(es, ei, 0.5)
    vac = sample_vacuum(RngStream(5, 0), es.size, 1)
    d1 = detector_loss(e1, 0.3, vac[:, 0])
    for arr in (es, ei, e1, e2, d1):
        assert np.all(np.isfinite(arr.view(np.float64)))


#: Each element at fixed parameters, its number of outputs, and the one-line
#: expression of its outputs that the element evaluated before it took
#: ``out``; the ufuncs, operands and their order are the same, so the
#: doubles are too.  The amplifier now forms i S conj(b) as -conj(i S b),
#: which for a real S rounds alike: each complex product has a factor
#: whose other part is zero.
_GAIN = GainParams(0.7)
ELEMENTS = {
    "parametric_amplify": (
        lambda a, b, **kw: parametric_amplify(a, b, _GAIN.C, _GAIN.S, **kw), 2,
        lambda a, b: (_GAIN.C * a - 1j * _GAIN.S * np.conj(b),
                      _GAIN.C * b - 1j * _GAIN.S * np.conj(a))),
    "beam_split": (
        lambda a, b, **kw: beam_split(a, b, 0.3, **kw), 2,
        lambda a, b: (math.sqrt(0.3) * a + 1j * math.sqrt(1.0 - 0.3) * b,
                      1j * math.sqrt(1.0 - 0.3) * a + math.sqrt(0.3) * b)),
    "polarizer_project": (
        lambda a, b, **kw: polarizer_project(a, b, 0.4, **kw), 1,
        lambda a, b: (np.cos(0.4) * a + np.sin(0.4) * b,)),
    "detector_loss": (
        lambda a, b, **kw: detector_loss(a, 0.6, b, **kw), 1,
        lambda a, b: (math.sqrt(0.6) * a + math.sqrt(0.4) * b,)),
}


def _inputs(reps=1000):
    ens = sample_vacuum(RngStream(3, 0), reps, 2)
    return ens[:, 0], ens[:, 1]  # strided columns, as the pipelines pass them


def _bits(fields):
    return [np.asarray(f).view(np.uint64) for f in fields]


@pytest.mark.parametrize("name", ELEMENTS)
def test_elements_write_out_bit_for_bit(name):
    call, n_out, reference = ELEMENTS[name]
    a, b = _inputs()
    plain = call(a, b)
    plain = plain if n_out == 2 else (plain,)
    for got, want in zip(_bits(plain), _bits(reference(a, b)), strict=True):
        np.testing.assert_array_equal(got, want)

    out = tuple(np.full(a.shape, np.nan, dtype=np.complex128) for _ in range(n_out))
    given = call(a, b, out=out if n_out == 2 else out[0],
                 scratch=np.empty(a.shape, dtype=np.complex128))
    given = given if n_out == 2 else (given,)
    assert all(g is o for g, o in zip(given, out, strict=True))
    for got, want in zip(_bits(given), _bits(plain), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", ELEMENTS)
def test_element_out_sharing_memory_is_rejected(name):
    call, n_out, _ = ELEMENTS[name]
    a, b = _inputs(8)

    def fresh():
        return np.empty(a.shape, dtype=np.complex128)

    def outputs(first):
        return (first, fresh()) if n_out == 2 else first

    shared = fresh()
    cases = [{"out": outputs(a)},                      # an output is an input
             {"out": outputs(fresh()), "scratch": b},  # the scratch is an input
             {"out": outputs(shared), "scratch": shared}]
    if n_out == 2:
        cases.append({"out": (shared, shared)})      # both outputs in one array
    for kwargs in cases:
        with pytest.raises(ValueError, match="share memory"):
            call(a, b, **kwargs)
