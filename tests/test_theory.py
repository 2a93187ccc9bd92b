import math

import numpy as np
import pytest
from scipy.optimize import brentq

from spdcsim.elements import GainParams
from spdcsim.theory import (CHSH_ANGLES, CHSH_B0, CHSH_THRESHOLD_GAIN,
                            bell_chsh_coefficient, bell_correlation,
                            bell_prediction, chsh_b, chsh_gain_factor,
                            coincident_fourfold_moments, fourfold_terms,
                            hom_covariance_ratio, twin_beam_moments)

from wick import centered_intensity_product, twin_beam_moment_table

GL_UNIT = math.asinh(1.0)


def test_twin_moments_values():
    m = twin_beam_moments(GainParams(GL_UNIT))
    assert (m["mean"], m["var"], m["cov"]) == pytest.approx((1.0, 2.0, 2.0))
    m = twin_beam_moments(GainParams(GL_UNIT), eta=0.0)
    assert (m["mean"], m["var"], m["cov"]) == pytest.approx((0.0, 0.0, 0.0))
    m = twin_beam_moments(GainParams(GL_UNIT), eta=0.5)
    assert (m["mean"], m["var"], m["cov"]) == pytest.approx((0.5, 0.75, 0.5))
    with pytest.raises(ValueError):
        twin_beam_moments(GainParams(1.0), eta=1.5)


def test_twin_variance_equals_covariance_at_unit_efficiency():
    for gl in (0.1, 0.5, GL_UNIT, 2.0):
        m = twin_beam_moments(GainParams(gl))
        assert m["var"] == pytest.approx(m["cov"], rel=1e-14)


def test_hom_ratio_values():
    assert hom_covariance_ratio(0.5) == pytest.approx(0.0, abs=1e-15)
    assert hom_covariance_ratio(1.0) == 1.0
    assert hom_covariance_ratio(0.9) == pytest.approx(0.64)


def test_bell_prediction_values():
    assert chsh_b(0.0) == pytest.approx(2 * math.sqrt(2))
    assert chsh_b(1.0) == pytest.approx(math.sqrt(2))
    # solve the threshold independently
    g_star = brentq(lambda g: chsh_gain_factor(g) - 1 / math.sqrt(2), 0.0, 1.0,
                    xtol=1e-12)
    assert CHSH_THRESHOLD_GAIN == pytest.approx(g_star, abs=1e-10)
    assert CHSH_THRESHOLD_GAIN == pytest.approx(0.26120, abs=1e-5)
    assert chsh_b(CHSH_THRESHOLD_GAIN) == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValueError):
        chsh_b(-0.5)


def test_bell_b_monotone_decreasing():
    gains = np.linspace(0.0, 20.0, 200)
    b = np.array([chsh_b(g) for g in gains])
    assert np.all(np.diff(b) < 0)
    assert np.all(b <= CHSH_B0)


def test_bell_correlation_and_coefficient():
    assert bell_correlation(math.pi / 8, math.pi / 8) == pytest.approx(0.5)
    assert bell_correlation(0.3, -0.3) == pytest.approx(0.0)
    # theta1 + theta2 = pi/2 at G=1 -> (1+G)/(1+3G)
    assert bell_chsh_coefficient(math.pi / 4, math.pi / 4, 1.0) == pytest.approx(0.5)
    assert bell_chsh_coefficient(math.pi / 8, math.pi / 8, 0.37) == pytest.approx(0.0)


def test_bell_pi_periodicity():
    t1, t2 = 0.23, 1.31
    for G in (0.0, 0.7, 3.0):
        assert bell_chsh_coefficient(t1 + math.pi, t2, G) == \
            pytest.approx(bell_chsh_coefficient(t1, t2, G))
        assert bell_correlation(t1, t2 + math.pi) == \
            pytest.approx(bell_correlation(t1, t2))


def test_standard_angles_reach_b0():
    a, ap, b, bp = CHSH_ANGLES
    for G in (0.0, 0.3, 1.0):
        B = (bell_chsh_coefficient(ap, b, G) + bell_chsh_coefficient(ap, bp, G)
             + bell_chsh_coefficient(a, bp, G) - bell_chsh_coefficient(a, b, G))
        assert B == pytest.approx(chsh_b(G))


def test_bell_prediction_bundle():
    out = bell_prediction(math.pi / 8, math.pi / 8, 1.0)
    assert out["rho"] == pytest.approx(0.5)
    assert out["B"] == pytest.approx(math.sqrt(2))
    assert out["threshold_G"] == CHSH_THRESHOLD_GAIN


def test_fourfold_term_classes():
    terms, classes = fourfold_terms(m_ss=0.7, m_ii=0.6, mu11=0, mu12=0,
                                    mu21=0, mu22=0)
    assert sum(abs(t) for i, t in enumerate(terms) if i != 0) == 0
    assert abs(terms[0]) > 0

    terms, classes = fourfold_terms(m_ss=0, m_ii=0, mu11=0.2j, mu12=0.1,
                                    mu21=-0.3, mu22=0.5 + 0.2j)
    surviving = {i for i, t in enumerate(terms) if t != 0}
    assert surviving <= set(classes["low_gain"])
    assert sorted(map(len, classes.values())) == [1, 4, 4]


def test_fourfold_lowgain_group_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mu = rng.normal(size=4) + 1j * rng.normal(size=4)
        terms, classes = fourfold_terms(m_ss=rng.normal(), m_ii=rng.normal(),
                                        mu11=mu[0], mu12=mu[1],
                                        mu21=mu[2], mu22=mu[3])
        group = sum(terms[i] for i in classes["low_gain"])
        expect = abs(mu[0] * mu[3] + mu[1] * mu[2]) ** 2
        assert group.real == pytest.approx(expect, rel=1e-12)
        assert abs(group.imag) < 1e-12 * max(expect, 1.0)


def test_fourfold_total_is_real():
    rng = np.random.default_rng(9)
    mu = rng.normal(size=6) + 1j * rng.normal(size=6)
    terms, _ = fourfold_terms(m_ss=mu[0], m_ii=mu[1], mu11=mu[2], mu12=mu[3],
                              mu21=mu[4], mu22=mu[5])
    assert abs(np.sum(terms).imag) < 1e-12 * max(abs(np.sum(terms)), 1.0)


def test_coincident_fourfold_matches_enumeration():
    for s2 in (0.3, 1.0, 5.0):
        gl = math.asinh(math.sqrt(s2))
        terms, _ = fourfold_terms(**coincident_fourfold_moments(GainParams(gl)))
        oracle = centered_intensity_product(
            ["s", "s", "i", "i"], twin_beam_moment_table(gl)).real
        assert np.sum(terms).real == pytest.approx(oracle, rel=1e-12)


def test_coincident_fourfold_frozen_value():
    terms, _ = fourfold_terms(**coincident_fourfold_moments(GainParams(GL_UNIT)))
    assert np.sum(terms).real == pytest.approx(625.0 / 16.0, rel=1e-14)


def test_bunching_scaling_exact():
    def bunching(s2):
        gl = math.asinh(math.sqrt(s2))
        terms, classes = fourfold_terms(**coincident_fourfold_moments(GainParams(gl)))
        return sum(terms[i] for i in classes["bunching"]).real

    assert bunching(10.0) / bunching(5.0) == pytest.approx((10.5 / 5.5) ** 4)


def test_chsh_gain_factor_validation():
    with pytest.raises(ValueError):
        chsh_gain_factor(-1e-9)
