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
from dataclasses import dataclass

import numpy as np

ENVELOPE_KINDS = ("gaussian", "sech", "parabola", "sin2", "square")

DEFAULT_FWHM_FRACTION = 0.25
DEFAULT_SECH_BETA = 5.3

# FWHM = 2*sqrt(2*ln 2) * sigma for a Gaussian
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# area over tau of the shapes that span the whole window
_AREA_FRACTION = {"parabola": 2.0 / 3.0, "sin2": 0.5, "square": 1.0}


@dataclass(frozen=True)
class Envelope:
    """A pulse shape with duration tau (s) and amplitude scale (rad/s)."""

    kind: str
    tau: float
    width_param: float | None
    amplitude: float

    def evaluate(self, t) -> np.ndarray:
        """A * g(t); zero outside [0, tau]. Vectorized in t."""
        kind, tau = self.kind, self.tau
        tv = np.asarray(t, dtype=float)
        outside = ~((tv >= 0.0) & (tv <= tau))
        g = np.empty(tv.shape)
        if kind == "gaussian":
            sigma = self.width_param * tau * _FWHM_TO_SIGMA  # width_param = FWHM / tau
            np.subtract(tv, 0.5 * tau, out=g)
            np.square(g, out=g)
            np.divide(g, -(2.0 * sigma * sigma), out=g)
            np.exp(g, out=g)
        elif kind in ("sech", "parabola"):
            np.multiply(tv, 2.0, out=g)  # x = 2t/tau - 1 runs over [-1, 1] across the window
            np.divide(g, tau, out=g)
            np.subtract(g, 1.0, out=g)
            if kind == "sech":
                # for steep beta cosh overflows to inf in the tails, where 1/inf = 0 is the limit
                with np.errstate(over="ignore"):
                    np.multiply(g, self.width_param, out=g)
                    np.cosh(g, out=g)
                np.divide(1.0, g, out=g)
            else:
                np.square(g, out=g)
                np.subtract(1.0, g, out=g)
        elif kind == "sin2":
            np.multiply(tv, np.pi, out=g)
            np.divide(g, tau, out=g)
            np.sin(g, out=g)
            np.square(g, out=g)
        elif kind == "square":
            g.fill(1.0)
        else:
            raise ValueError(f"unknown envelope kind {kind!r}; expected one of {ENVELOPE_KINDS}")
        np.copyto(g, 0.0, where=outside)
        return np.multiply(g, self.amplitude)

    @property
    def area(self) -> float:
        """Pulse area A * integral of g over [0, tau], in closed form; pi from envelope()."""
        kind, tau, width = self.kind, self.tau, self.width_param
        if kind == "gaussian":
            # erf argument tau / (2 sqrt(2) sigma) as sqrt(ln 2) / width: sigma may underflow to 0
            sigma = width * tau * _FWHM_TO_SIGMA
            shape = sigma * math.sqrt(2.0 * math.pi) * math.erf(math.sqrt(math.log(2.0)) / width)
        elif kind == "sech":
            # tau * gd(beta) / beta; gd(beta) = 2 atan(tanh(beta/2)) stays finite where
            # the equal atan(sinh(beta)) overflows (beta > ~710)
            shape = tau * (2.0 * math.atan(math.tanh(0.5 * width)) / width)
        elif kind in _AREA_FRACTION:
            shape = _AREA_FRACTION[kind] * tau
        else:
            raise ValueError(f"unknown envelope kind {kind!r}; expected one of {ENVELOPE_KINDS}")
        return self.amplitude * shape

    @property
    def time_scale(self) -> float:
        """The shape's shortest time scale, at most tau.

        sigma for 'gaussian', tau / (2 beta) for 'sech' (its slope at the
        centre), and tau for the kinds that span the whole window.
        """
        if self.kind == "gaussian":
            scale = self.width_param * self.tau * _FWHM_TO_SIGMA
        elif self.kind == "sech":
            scale = self.tau / (2.0 * self.width_param)
        else:
            scale = self.tau
        return min(scale, self.tau)


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
    # evaluate divides by a Gaussian's 2 sigma^2, which must be finite. Its lower side
    # needs no check: the area is at most sigma sqrt(2 pi), so a finite 4 A^2 (below)
    # forces 2 sigma^2 >= 4 pi / DBL_MAX
    if kind == "gaussian":
        sigma = width * tau * _FWHM_TO_SIGMA
        if not 2.0 * sigma * sigma < math.inf:
            raise ValueError(
                f"a gaussian envelope of duration {tau!r} s is not representable: its width, "
                f"fwhm_fraction = {fwhm_fraction!r} of the duration, is out of floating-point range"
            )
    area = Envelope(kind=kind, tau=tau, width_param=width, amplitude=1.0).area
    amplitude = math.pi / area if area > 0.0 else math.inf
    # a step weight has |w0|^2 + |w1|^2 <= 4 A^2, which must be finite
    if not math.isfinite(4.0 * amplitude * amplitude):
        raise ValueError(
            f"a {kind} envelope of duration {tau!r} s is not representable: "
            "its amplitude is out of floating-point range"
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
        """Drive with c0/c1 = -tan(theta/2) e^{i phi} and c1 real >= 0.

        theta = pi makes the ratio singular; there the limit pair (-e^{i phi}, 0)
        is used explicitly.
        """
        check_angles(theta, phi)
        if abs(theta - math.pi) < 1e-12:
            return cls(envelope=env, c0=-np.exp(1j * phi), c1=0.0 + 0.0j)
        c0 = -math.sin(theta / 2.0) * np.exp(1j * phi)
        return cls(envelope=env, c0=complex(c0), c1=complex(math.cos(theta / 2.0)))
