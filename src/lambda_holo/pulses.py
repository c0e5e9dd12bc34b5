"""Pulse envelopes, pulse-area normalization, and drive coefficient pairs.

An Envelope is a named shape g(t) supported on [0, tau] together with an
amplitude scale A. envelope() chooses A so that the integral of A*g over the
window equals pi (a pi pulse, completing one cyclic evolution of the driven
subspace); a directly built Envelope may carry any A for which 4 A^2 is finite.
The two drive tones share the envelope; their fixed complex coefficients
(c0, c1) encode the target rotation angles (theta, phi) through
c0/c1 = -tan(theta/2) * exp(i*phi) with |c0|^2 + |c1|^2 = 1.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

DEFAULT_FWHM_FRACTION = 0.25
DEFAULT_SECH_BETA = 5.3

# FWHM = 2*sqrt(2*ln 2) * sigma for a Gaussian
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_LN2 = math.sqrt(math.log(2.0))

# per kind: the envelope() keyword that sets width_param, and the area of g over [0, tau]
# and the shape's shortest time scale (before the cap at tau), each from (tau, width_param)
_Kind = namedtuple("_Kind", "width_option area time_scale")

_KINDS = {
    # erf argument tau / (2 sqrt(2) sigma) as sqrt(ln 2) / width: sigma may underflow to 0
    "gaussian": _Kind(
        "fwhm_fraction",
        lambda tau, w: w * tau * _FWHM_TO_SIGMA * _SQRT_2PI * math.erf(_SQRT_LN2 / w),
        lambda tau, w: w * tau * _FWHM_TO_SIGMA,  # sigma
    ),
    # tau * gd(beta) / beta; gd(beta) = 2 atan(tanh(beta/2)) stays finite where the equal
    # atan(sinh(beta)) overflows (beta > ~710)
    "sech": _Kind(
        "sech_beta",
        lambda tau, w: tau * (2.0 * math.atan(math.tanh(0.5 * w)) / w),
        lambda tau, w: tau / (2.0 * w),
    ),
    # the kinds that span the whole window
    "parabola": _Kind(None, lambda tau, w: 2.0 / 3.0 * tau, lambda tau, w: tau),
    "sin2": _Kind(None, lambda tau, w: 0.5 * tau, lambda tau, w: tau),
    "square": _Kind(None, lambda tau, w: tau, lambda tau, w: tau),
}
ENVELOPE_KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ValueError(f"unknown envelope kind {kind!r}; expected one of {ENVELOPE_KINDS}")
    return _KINDS[kind]


def _check_shape(spec: _Kind, tau: float, width: float | None) -> None:
    """Raise ValueError unless tau, and the width if the kind takes one, are positive and finite."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"pulse duration must be positive and finite, got {tau!r}")
    if spec.width_option is not None and not (width is not None and 0.0 < width < math.inf):
        raise ValueError(f"{spec.width_option} must be positive, got {width!r}")


@dataclass(frozen=True)
class Envelope:
    """A pulse shape with duration tau (s) and amplitude scale (rad/s)."""

    kind: str
    tau: float
    width_param: float | None
    amplitude: float

    def __post_init__(self):
        spec = _kind(self.kind)
        _check_shape(spec, self.tau, self.width_param)
        # a step weight has |w0|^2 + |w1|^2 <= 4 A^2, which must be finite
        bad = None if math.isfinite(4.0 * self.amplitude * self.amplitude) else "amplitude"
        if self.kind == "gaussian":
            # evaluate divides by 2 sigma^2, which must be positive and finite. envelope() makes
            # it 0 only with the amplitude out of range too, and the amplitude is then named
            sigma = spec.time_scale(self.tau, self.width_param)
            two_var = 2.0 * sigma * sigma
            if not (two_var < math.inf and (two_var > 0.0 or bad)):
                bad = f"width, fwhm_fraction = {self.width_param!r} of the duration,"
        if bad:
            raise ValueError(
                f"a {self.kind} envelope of duration {self.tau!r} s is not representable: "
                f"its {bad} is out of floating-point range"
            )

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
        else:  # square
            g.fill(1.0)
        np.copyto(g, 0.0, where=outside)
        return np.multiply(g, self.amplitude)

    @property
    def area(self) -> float:
        """Pulse area A * integral of g over [0, tau], in closed form; pi from envelope()."""
        return self.amplitude * _KINDS[self.kind].area(self.tau, self.width_param)

    @property
    def time_scale(self) -> float:
        """The shape's shortest time scale, at most tau.

        sigma for 'gaussian', tau / (2 beta) for 'sech' (its slope at the
        centre), and tau for the kinds that span the whole window.
        """
        return min(_KINDS[self.kind].time_scale(self.tau, self.width_param), self.tau)


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
    spec = _kind(kind)
    width = {"fwhm_fraction": fwhm_fraction, "sech_beta": sech_beta}.get(spec.width_option)
    _check_shape(spec, tau, width)  # so that the closed-form area can be taken
    area = spec.area(tau, width)
    amplitude = math.pi / area if area > 0.0 else math.inf
    return Envelope(kind=kind, tau=tau, width_param=width, amplitude=amplitude)


def check_angles(theta: float, phi: float) -> None:
    """Raise ValueError unless theta lies in [0, pi] and phi in [-pi, pi]."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
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
        if not abs(weight - 1.0) <= 1e-12:  # a NaN coefficient fails this too
            raise ValueError(f"|c0|^2 + |c1|^2 must be 1, got {weight!r}")

    @classmethod
    def for_angles(cls, theta: float, phi: float, env: Envelope) -> "DriveSpec":
        """Drive with c0/c1 = -tan(theta/2) e^{i phi} and c1 real >= 0.

        theta = pi makes the ratio singular; there the limit pair (-e^{i phi}, 0)
        is used explicitly. Both coefficients are Python complex numbers.
        """
        check_angles(theta, phi)
        phase = cmath.exp(1j * phi)
        if abs(theta - math.pi) < 1e-12:
            return cls(envelope=env, c0=-phase, c1=0.0 + 0.0j)
        c0 = -math.sin(theta / 2.0) * phase
        return cls(envelope=env, c0=c0, c1=complex(math.cos(theta / 2.0)))
