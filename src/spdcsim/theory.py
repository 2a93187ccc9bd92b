"""Closed-form predictions the Monte Carlo results are checked against."""

from __future__ import annotations

import math

import numpy as np

from .elements import GainParams, check_unit_interval, splitter_amplitudes

__all__ = [
    "CHSH_ANGLES",
    "CHSH_B0",
    "CHSH_THRESHOLD_GAIN",
    "bell_correlation",
    "bell_chsh_coefficient",
    "bell_prediction",
    "chsh_b",
    "chsh_gain_factor",
    "coincident_fourfold_moments",
    "fourfold_terms",
    "hom_covariance_ratio",
    "twin_beam_moments",
]

#: CHSH value of the ideal polarisation-entangled pair at vanishing gain.
CHSH_B0 = 2.0 * math.sqrt(2.0)

#: Gain at which the CHSH bound 2 is reached: solves (1+G)/(1+3G) = 1/sqrt(2).
CHSH_THRESHOLD_GAIN = (2.0 * math.sqrt(2.0) - 1.0) / 7.0

#: Polariser settings (theta1, theta1', theta2, theta2') reaching B(0) = 2 sqrt(2)
#: for sin^2-law correlations, combined as
#:   B = E(theta1', theta2) + E(theta1', theta2') + E(theta1, theta2') - E(theta1, theta2).
#: E's numerator weighs the Stokes products S_j(1) S_k(2) by a(theta1) (x) a(theta2),
#: a(theta) = (cos 2 theta, sin 2 theta), so B's weights, the signed sum over the
#: four settings, are sqrt(2) diag(-1, 1) to rounding.
CHSH_ANGLES = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


def twin_beam_moments(gain: GainParams, eta: float = 1.0) -> dict:
    """Mean, variance and covariance of twin-beam intensities at efficiency eta."""
    check_unit_interval("eta", eta)
    s2 = gain.S ** 2
    try:
        return {
            "mean": eta * s2,
            "var": eta ** 2 * s2 ** 2 + eta * s2,
            "cov": eta ** 2 * s2 ** 2 + eta ** 2 * s2,
        }
    except OverflowError:
        raise ArithmeticError(f"the twin-beam var and cov oracles overflow: "
                              f"S^2 = {s2:.6g} squared is out of float range") from None


def hom_covariance_ratio(transmittance: float) -> float:
    """Covariance suppression factor |t^2 + r^2|^2 = (2T - 1)^2 of a splitter
    of intensity transmittance T, with ``(t, r)`` of
    :func:`~spdcsim.elements.splitter_amplitudes`."""
    t, r = splitter_amplitudes(transmittance)
    return float(abs(t * t + r * r) ** 2)


def chsh_gain_factor(G: float) -> float:
    """Multiplicative reduction (1+G)/(1+3G) of the CHSH coefficient at gain G."""
    if not (G >= 0 and math.isfinite(G)):
        raise ValueError(f"gain G must be finite and >= 0, got {G}")
    return (1.0 + G) / (1.0 + 3.0 * G)


def bell_correlation(theta1: float, theta2: float) -> float:
    """Intensity correlation coefficient sin^2(theta1 + theta2)."""
    return math.sin(theta1 + theta2) ** 2


def bell_chsh_coefficient(theta1: float, theta2: float, G: float) -> float:
    """CHSH ingredient E(theta1, theta2) from intensity products at gain G."""
    s = math.sin(theta1 + theta2) ** 2
    return chsh_gain_factor(G) * (2.0 * s - 1.0)


def chsh_b(G: float) -> float:
    """CHSH coefficient B at gain G: ``CHSH_B0`` times the gain factor."""
    return chsh_gain_factor(G) * CHSH_B0


def bell_prediction(theta1: float, theta2: float, G: float) -> dict:
    """Predictions for one polariser setting plus the standard-angle CHSH value."""
    return {
        "rho": bell_correlation(theta1, theta2),
        "E": bell_chsh_coefficient(theta1, theta2, G),
        "B": chsh_b(G),
        "threshold_G": CHSH_THRESHOLD_GAIN,
    }


def fourfold_terms(m_ss, m_ii, mu11, mu12, mu21, mu22):
    """Nine pair-moment products forming the four-fold intensity covariance.

    Arguments are the six independent second moments of the four detector
    fields: ``m_ss`` = <E_s1 E_s2*>, ``m_ii`` = <E_i1* E_i2> and the four
    signal-idler products ``mu_jk`` = <E_sj E_ik>.  Conjugates are derived
    internally.  Returns the nine products (any argument may be an array)
    and the index partition into the bunching term, the four terms that
    survive at low gain, and the four mixed terms.
    """
    c = np.conj
    terms = [
        m_ss * c(m_ss) * m_ii * c(m_ii),          # incoherent bunching
        m_ss * mu21 * m_ii * c(mu12),             # mixed
        m_ss * mu22 * c(mu11) * c(m_ii),          # mixed
        c(m_ss) * mu11 * m_ii * c(mu22),          # mixed (conj of previous)
        mu11 * c(mu11) * mu22 * c(mu22),          # low gain
        mu11 * mu22 * c(mu21) * c(mu12),          # low gain
        c(m_ss) * mu12 * c(mu21) * c(m_ii),       # mixed (conj of second)
        mu12 * mu21 * c(mu11) * c(mu22),          # low gain
        mu12 * c(mu12) * mu21 * c(mu21),          # low gain
    ]
    classes = {"bunching": [0], "mixed": [1, 2, 3, 6], "low_gain": [4, 5, 7, 8]}
    return np.asarray(terms), classes


def coincident_fourfold_moments(gain: GainParams) -> dict:
    """Exact pair moments when both signal and both idler detectors coincide."""
    s2 = gain.S ** 2
    mu = -1j * gain.C * gain.S
    return {
        "m_ss": s2 + 0.5,
        "m_ii": s2 + 0.5,
        "mu11": mu,
        "mu12": mu,
        "mu21": mu,
        "mu22": mu,
    }
