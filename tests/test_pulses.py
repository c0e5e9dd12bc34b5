import math
import re

import numpy as np
import pytest

from lambda_holo.pulses import (
    DEFAULT_SECH_BETA,
    ENVELOPE_KINDS,
    DriveSpec,
    Envelope,
    envelope,
)

NS = 1e-9
DURATIONS_NS = (2.5, 10.0, 40.0, 100.0)
# the coefficient pair of DriveSpec.for_angles does not depend on the envelope
ENV = envelope("square", 40 * NS)


def reference_area(env, points=2**20):
    """Independent quadrature route (dense trapezoid, not Simpson)."""
    t = np.linspace(0.0, env.tau, points + 1)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 names it trapz
    return trapezoid(env.evaluate(t), t)


def test_square_amplitude():
    env = envelope("square", 40 * NS)
    assert abs(env.amplitude - math.pi / (40 * NS)) < 1e-4  # pi/tau = 7.854e7 rad/s
    assert abs(env.evaluate(17 * NS) - math.pi / (40 * NS)) < 1e-4


def test_sin2_peak():
    env = envelope("sin2", 40 * NS)
    assert abs(env.evaluate(20 * NS) - 2 * math.pi / (40 * NS)) < 1e-3


def test_parabola_peak():
    env = envelope("parabola", 40 * NS)
    assert abs(env.evaluate(20 * NS) - 3 * math.pi / (2 * 40 * NS)) < 1e-3


def test_gaussian_amplitude_against_erf_oracle():
    # closed form: area = sigma*sqrt(2 pi)*erf(tau / (2 sqrt(2) sigma))
    tau = 40 * NS
    env = envelope("gaussian", tau)  # FWHM = tau/4 = 10 ns
    sigma = (tau / 4) / (2 * math.sqrt(2 * math.log(2)))
    area = sigma * math.sqrt(2 * math.pi) * math.erf(tau / (2 * math.sqrt(2) * sigma))
    assert abs(env.amplitude - math.pi / area) / env.amplitude < 1e-12


def test_sech_amplitude_against_closed_form():
    # area = (tau / beta) * arctan(sinh(beta))
    tau = 40 * NS
    beta = DEFAULT_SECH_BETA
    env = envelope("sech", tau)
    area = (tau / beta) * math.atan(math.sinh(beta))
    assert abs(env.amplitude - math.pi / area) / env.amplitude < 1e-12


# widths far from the defaults, where a closed form is easiest to get wrong
EXTREME_WIDTHS = (
    ("gaussian", "fwhm_fraction", 0.01),
    ("gaussian", "fwhm_fraction", 4.0),
    ("sech", "sech_beta", 0.01),
    ("sech", "sech_beta", 60.0),
)


@pytest.mark.parametrize(
    "kind, tau_ns, widths",
    [
        pytest.param(kind, tau_ns, {}, id=f"{tau_ns}-{kind}")
        for kind in ENVELOPE_KINDS
        for tau_ns in DURATIONS_NS
    ]
    + [
        pytest.param(kind, tau_ns, {name: value}, id=f"{tau_ns}-{kind}-{name}={value}")
        for kind, name, value in EXTREME_WIDTHS
        for tau_ns in DURATIONS_NS
    ],
)
def test_pi_area_after_normalization(kind, tau_ns, widths):
    env = envelope(kind, tau_ns * NS, **widths)
    assert abs(reference_area(env) - math.pi) < 1e-10


@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
def test_shape_symmetric_about_midpoint(kind):
    tau = 40 * NS
    env = envelope(kind, tau)
    t = np.linspace(0.0, tau, 257)
    fwd = env.evaluate(t)
    rev = env.evaluate(tau - t)
    assert np.abs(fwd - rev).max() < 1e-12 * env.amplitude


@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
def test_zero_outside_window(kind):
    tau = 40 * NS
    env = envelope(kind, tau)
    assert env.evaluate(-1 * NS) == 0.0
    assert env.evaluate(41 * NS) == 0.0
    t = np.linspace(0.0, tau, 101)
    assert (env.evaluate(t) >= 0.0).all()


def test_time_scale():
    tau = 40 * NS
    sigma = 0.1 * tau / (2 * math.sqrt(2 * math.log(2)))
    assert envelope("gaussian", tau, fwhm_fraction=0.1).time_scale == pytest.approx(sigma)
    assert envelope("sech", tau, sech_beta=20.0).time_scale == pytest.approx(tau / 40)
    for kind in ("parabola", "sin2", "square"):
        assert envelope(kind, tau).time_scale == tau
    # never longer than the window: a wide Gaussian or a flat sech spans it
    assert envelope("gaussian", tau, fwhm_fraction=5.0).time_scale == tau
    assert envelope("sech", tau, sech_beta=0.1).time_scale == tau


def test_invalid_envelope_parameters():
    with pytest.raises(ValueError):
        envelope("triangle", 40 * NS)
    with pytest.raises(ValueError):
        envelope("square", 0.0)
    with pytest.raises(ValueError):
        envelope("square", -1 * NS)
    with pytest.raises(ValueError):
        envelope("gaussian", 40 * NS, fwhm_fraction=0.0)
    with pytest.raises(ValueError):
        envelope("sech", 40 * NS, sech_beta=-2.0)
    with pytest.raises(ValueError):
        Envelope("triangle", 40 * NS, None, 1.0).evaluate(0.0)
    # pi / area overflows, the amplitude's square 4 A^2 overflows (gaussian 1e-169),
    # or a Gaussian's 2 sigma^2 overflows (1e291)
    too_short = [(kind, 1e-314) for kind in ENVELOPE_KINDS] + [("gaussian", 5e-324)]
    for kind, tau in too_short + [("gaussian", 1e-169), ("gaussian", 1e291)]:
        with pytest.raises(ValueError, match=re.escape(f"duration {tau!r} s is not representable")):
            envelope(kind, tau)


def test_unknown_kind_is_refused_where_an_envelope_is_built():
    message = "unknown envelope kind 'triangle'"
    with pytest.raises(ValueError, match=message):
        Envelope("triangle", 40 * NS, None, 1.0)
    with pytest.raises(ValueError, match=message):
        envelope("triangle", 40 * NS)


@pytest.mark.parametrize(
    "args, message",
    [
        (("sech", 40 * NS, None, 1.0), "sech_beta must be positive, got None"),
        (("gaussian", 40 * NS, 0.0, 1.0), "fwhm_fraction must be positive, got 0.0"),
        (("square", -40 * NS, None, 1.0), "pulse duration must be positive and finite"),
        (("sin2", math.nan, None, 1.0), "pulse duration must be positive and finite"),
        # the amplitude's 4 A^2 must be finite, and a Gaussian's 2 sigma^2 positive and finite
        (("square", 40 * NS, None, math.nan), "its amplitude is out of floating-point range"),
        (("sech", 40 * NS, 5.3, math.inf), "its amplitude is out of floating-point range"),
        (("sin2", 40 * NS, None, -math.inf), "its amplitude is out of floating-point range"),
        (("gaussian", 40 * NS, 0.25, 1e200), "its amplitude is out of floating-point range"),
        (("gaussian", 40 * NS, 1e300, 1.0), "fwhm_fraction = 1e+300 of the duration"),
        (("gaussian", 1e-300, 0.25, 1.0), "fwhm_fraction = 0.25 of the duration"),
    ],
)
def test_bad_duration_or_width_is_refused_where_an_envelope_is_built(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Envelope(*args)


def test_an_overflowing_gaussian_names_its_width_before_its_amplitude():
    # here both 4 A^2 and 2 sigma^2 overflow; where sigma underflows, the amplitude is named
    width = 1.79e308
    with pytest.raises(ValueError, match=re.escape(f"fwhm_fraction = {width!r} of the duration")):
        envelope("gaussian", 2e-154, fwhm_fraction=width)


def test_not_gate_ratio_is_one():
    drive = DriveSpec.for_angles(math.pi / 2, math.pi, ENV)
    c0, c1 = drive.c0, drive.c1
    assert abs(c0 / c1 - 1.0) < 1e-12


def test_quarter_theta_ratio():
    # (pi/4, 0) gives ratio -tan(pi/8)
    drive = DriveSpec.for_angles(math.pi / 4, 0.0, ENV)
    c0, c1 = drive.c0, drive.c1
    assert abs(c0 / c1 + math.tan(math.pi / 8)) < 1e-12


def test_theta_zero_drives_only_second_tone():
    drive = DriveSpec.for_angles(0.0, 0.5, ENV)
    c0, c1 = drive.c0, drive.c1
    assert c0 == 0.0
    assert c1 == 1.0


def test_theta_pi_limit_pair():
    phi = 0.7
    drive = DriveSpec.for_angles(math.pi, phi, ENV)
    c0, c1 = drive.c0, drive.c1
    assert c1 == 0.0
    assert abs(c0 + np.exp(1j * phi)) < 1e-12


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
def test_coefficients_are_python_complex(theta):
    # one type on every branch, the theta = pi limit pair included
    drive = DriveSpec.for_angles(theta, 0.7, ENV)
    assert type(drive.c0) is complex and type(drive.c1) is complex


def test_coefficient_normalization_grid():
    for theta in np.linspace(0.0, math.pi, 9):
        for phi in np.linspace(-math.pi, math.pi, 9):
            drive = DriveSpec.for_angles(float(theta), float(phi), ENV)
            c0, c1 = drive.c0, drive.c1
            assert abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) < 1e-15


def test_coefficient_domain_errors():
    with pytest.raises(ValueError):
        DriveSpec.for_angles(-0.1, 0.0, ENV)
    with pytest.raises(ValueError):
        DriveSpec.for_angles(math.pi / 2, 4.0, ENV)
    with pytest.raises(ValueError):
        DriveSpec.for_angles(math.nan, 0.0, ENV)


def test_constant_ratio_condition():
    env = envelope("gaussian", 40 * NS)
    drive = DriveSpec.for_angles(math.pi / 3, 0.4, env)
    t = np.linspace(0.0, 40 * NS, 101)
    a = drive.envelope.evaluate(t)
    rss = np.sqrt(np.abs(drive.c0 * a) ** 2 + np.abs(drive.c1 * a) ** 2)
    assert np.abs(rss - env.evaluate(t)).max() < 1e-9 * env.amplitude


def test_drivespec_rejects_unnormalized_coefficients():
    env = envelope("square", 40 * NS)
    with pytest.raises(ValueError):
        DriveSpec(envelope=env, c0=1.0 + 0j, c1=1.0 + 0j)
    # a NaN weight would otherwise surface later as a unitarity defect of nan (exit 1)
    for c0 in (complex("nan"), complex(0.0, math.nan)):
        with pytest.raises(ValueError, match=r"\|c0\|\^2 \+ \|c1\|\^2 must be 1, got nan"):
            DriveSpec(envelope=env, c0=c0, c1=0j)
