"""Pulse envelopes, pulse-area normalization, and drive coefficient pairs.

An Envelope is a named shape g(t) supported on [0, tau] together with an
amplitude scale A chosen so that the integral of A*g over the window equals
pi (a pi pulse, completing one cyclic evolution of the driven subspace).
The two drive tones share the envelope; their fixed complex coefficients
(c0, c1) encode the target rotation angles (theta, phi) through
c0/c1 = -tan(theta/2) * exp(i*phi) with |c0|^2 + |c1|^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

ENVELOPE_KINDS = ("gaussian", "sech", "parabola", "sin2", "square")

DEFAULT_FWHM_FRACTION = 0.25
DEFAULT_SECH_BETA = 5.3

# FWHM = 2*sqrt(2*ln 2) * sigma for a Gaussian
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# area over tau of the shapes that span the whole window
_AREA_FRACTION = {"parabola": 2.0 / 3.0, "sin2": 0.5, "square": 1.0}


def raw_shape(kind: str, tau: float, width_param: float | None, t) -> np.ndarray:
    """Unnormalized envelope g(t), zero outside [0, tau]. Vectorized in t."""
    tv = np.asarray(t, dtype=float)
    inside = (tv >= 0.0) & (tv <= tau)
    x = 2.0 * tv / tau - 1.0  # [-1, 1] across the window
    if kind == "gaussian":
        sigma = width_param * tau * _FWHM_TO_SIGMA  # width_param = FWHM / tau
        g = np.exp(-((tv - 0.5 * tau) ** 2) / (2.0 * sigma * sigma))
    elif kind == "sech":
        # for steep beta cosh overflows to inf in the tails, where 1/inf = 0 is the limit
        with np.errstate(over="ignore"):
            g = 1.0 / np.cosh(width_param * np.where(inside, x, 0.0))
    elif kind == "parabola":
        g = 1.0 - x * x
    elif kind == "sin2":
        g = np.sin(np.pi * tv / tau) ** 2
    elif kind == "square":
        g = np.ones_like(tv)
    else:
        raise ValueError(f"unknown envelope kind {kind!r}; expected one of {ENVELOPE_KINDS}")
    return np.where(inside, g, 0.0)


def shape_area(kind: str, tau: float, width_param: float | None) -> float:
    """Integral of the raw shape over [0, tau], in closed form."""
    if kind == "gaussian":
        # erf argument tau / (2 sqrt(2) sigma) as sqrt(ln 2) / width_param: sigma may underflow to 0
        sigma = width_param * tau * _FWHM_TO_SIGMA
        return sigma * math.sqrt(2.0 * math.pi) * math.erf(math.sqrt(math.log(2.0)) / width_param)
    if kind == "sech":
        # tau * gd(beta) / beta; gd(beta) = 2 atan(tanh(beta/2)) stays finite where
        # the equal atan(sinh(beta)) overflows (beta > ~710)
        return tau * (2.0 * math.atan(math.tanh(0.5 * width_param)) / width_param)
    if kind in _AREA_FRACTION:
        return _AREA_FRACTION[kind] * tau
    raise ValueError(f"unknown envelope kind {kind!r}; expected one of {ENVELOPE_KINDS}")


@dataclass(frozen=True)
class Envelope:
    """A pulse shape with duration tau (s) and amplitude scale (rad/s)."""

    kind: str
    tau: float
    width_param: float | None
    amplitude: float

    def evaluate(self, t) -> np.ndarray:
        """A * g(t); zero outside [0, tau]."""
        return self.amplitude * raw_shape(self.kind, self.tau, self.width_param, t)

    @property
    def area(self) -> float:
        """Pulse area A * integral of g over [0, tau]; pi for an envelope from envelope()."""
        return self.amplitude * shape_area(self.kind, self.tau, self.width_param)

    def with_amplitude(self, amplitude: float) -> "Envelope":
        """Copy with a different amplitude scale (diagnostics and limit checks)."""
        return replace(self, amplitude=amplitude)


def envelope(
    kind: str,
    tau: float,
    fwhm_fraction: float = DEFAULT_FWHM_FRACTION,
    sech_beta: float = DEFAULT_SECH_BETA,
) -> Envelope:
    """Build an envelope normalized so that its pulse area is pi.

    The width parameter depends on the kind: for 'gaussian' it is the FWHM
    as a fraction of tau, for 'sech' the dimensionless steepness beta in
    sech(beta * (2t/tau - 1)); the remaining kinds span the full window.
    """
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError(f"pulse duration must be positive and finite, got {tau!r}")
    if kind == "gaussian":
        if not (np.isfinite(fwhm_fraction) and fwhm_fraction > 0.0):
            raise ValueError(f"fwhm_fraction must be positive, got {fwhm_fraction!r}")
        width = fwhm_fraction
    elif kind == "sech":
        if not (np.isfinite(sech_beta) and sech_beta > 0.0):
            raise ValueError(f"sech_beta must be positive, got {sech_beta!r}")
        width = sech_beta
    else:
        width = None
    area = shape_area(kind, tau, width)
    amplitude = math.pi / area if area > 0.0 else math.inf
    # raw_shape divides by a Gaussian's 2 sigma^2, which must neither underflow nor overflow
    sigma = width * tau * _FWHM_TO_SIGMA if kind == "gaussian" else 1.0
    if not (math.isfinite(amplitude) and 0.0 < 2.0 * sigma * sigma < math.inf):
        raise ValueError(
            f"a {kind} envelope of duration {tau!r} s is not representable: "
            "its amplitude or shape is not finite"
        )
    return Envelope(kind=kind, tau=tau, width_param=width, amplitude=amplitude)


def check_angles(theta: float, phi: float) -> None:
    """Raise ValueError unless theta lies in [0, pi] and phi in [-pi, pi]."""
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError("theta and phi must be finite")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    if not -math.pi <= phi <= math.pi:
        raise ValueError(f"phi must lie in [-pi, pi], got {phi!r}")


def drive_coefficients(theta: float, phi: float) -> tuple[complex, complex]:
    """Coefficient pair (c0, c1) with c0/c1 = -tan(theta/2) e^{i phi}, c1 real >= 0.

    theta = pi makes the ratio singular; there the limit pair (-e^{i phi}, 0)
    is returned explicitly.
    """
    check_angles(theta, phi)
    if abs(theta - math.pi) < 1e-12:
        return (-np.exp(1j * phi), 0.0 + 0.0j)
    c0 = -math.sin(theta / 2.0) * np.exp(1j * phi)
    c1 = complex(math.cos(theta / 2.0))
    return (complex(c0), c1)


@dataclass(frozen=True)
class DriveSpec:
    """The two drive tones: a shared pi-normalized envelope times fixed coefficients."""

    envelope: Envelope
    c0: complex
    c1: complex

    def __post_init__(self):
        weight = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(weight - 1.0) > 1e-12:
            raise ValueError(f"|c0|^2 + |c1|^2 must be 1, got {weight!r}")

    @classmethod
    def for_angles(cls, theta: float, phi: float, env: Envelope) -> "DriveSpec":
        c0, c1 = drive_coefficients(theta, phi)
        return cls(envelope=env, c0=c0, c1=c1)

    def omega0(self, t) -> np.ndarray:
        return self.c0 * self.envelope.evaluate(t)

    def omega1(self, t) -> np.ndarray:
        return self.c1 * self.envelope.evaluate(t)
