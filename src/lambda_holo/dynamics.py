"""Interaction-picture Hamiltonian of the driven lambda system and its propagation.

The system couples |0> and |1> to a shared excited state |e> with resonant
drives. In 'full' mode the off-diagonal couplings carry the counter-rotating
factor (1 + exp(-2i f_ej t)); in 'rwa' mode that factor is replaced by 1
(rotating wave approximation). In 'rwa' mode H(t) = a(t) K with K fixed, so
the Hamiltonians at all times commute and the propagator is the one exact
rotation exp(-i area K). In 'full' mode time-ordered evolution is integrated
with the fourth-order commutator-free exponential integrator CF4 of Blanes &
Moan (Appl. Numer. Math. 56, 1519, 2006), in the form of Alvermann & Fehske
(J. Comput. Phys. 230, 5930, 2011). Step k on [k h, (k + 1) h] samples H at
the two Gauss-Legendre nodes t-+ = (k + 1/2 -+ sqrt(3)/6) h and applies

    exp(-i h (A2 H- + A1 H+)) exp(-i h (A1 H- + A2 H+)),  A1,2 = 1/4 +- sqrt(3)/6,

the right-hand factor first. A combination of coupling-only Hamiltonians is
coupling-only, so each factor is one closed-form rotation: unitary to
rounding, with a discretization error that falls 16x per halving of h. A step
costs two exponentials; at the default 8 steps per counter-rotating period a
40 ns transmon pulse needs 16 exponentials per period. That propagator (5,176
steps) takes about 2.6-3.0 ms (median of 40 calls, 2-core Xeon VM, numpy 2.4.6).

A full-mode propagator is built in chunks of CHUNK_STEPS factors, that is
CHUNK_STEPS / 2 steps. A first pass samples the envelope at every node and
refuses the pulse if the two-node Gauss-Legendre area misses the exact one,
before any step is built. Then one weights stage, _coupling_weights, turns
each chunk's node samples into its interleaved factor weights, the factors
are written into one workspace per thread and multiplied there, and the
chunk's product is folded into the 3x3 result. The workspace holds only the
factor stack and the product's levels (312 B per factor) and is kept across
chunks and calls.
Memory is therefore bounded by the chunk, not by the step count; MAX_STEPS
bounds the time. Each node lies on a uniform grid t_k = t0 + k h, so the
carrier phases exp(-2i f t_k) of a chunk of m steps come from one table of
B + 2 ceil(m / B) complex exponentials per tone (B = _PHASE_BLOCK), at one
complex multiply per node.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .pulses import DriveSpec
from .qstate import DIM, PULSE_AREA_TOL, UNITARY_TOL, NumericalContractError, unitarity_defect

MODES = ("full", "rwa")


@dataclass(frozen=True)
class LambdaSystem:
    """Transition angular frequencies (rad/s) of the two lower levels to |e>."""

    fe0: float
    fe1: float

    def __post_init__(self):
        for name, f in (("fe0", self.fe0), ("fe1", self.fe1)):
            if not (np.isfinite(f) and f >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {f!r}")


# Superconducting-qubit parameter point used as the default system.
TRANSMON = LambdaSystem(fe0=5.0806e10, fe1=4.8580e10)


# Cap of the resolution floor that num_steps gives a pulse whose carrier needs fewer
# steps: 2,000 exponentials and 2,000 envelope samples.
MIN_STEPS = 1000

# The resolution floor's base and the coefficients of its carrier-phase and envelope
# terms at 8 steps per cycle, calibrated as the num_steps docstring describes.
_BASE_STEPS = 64
_PHASE_STEPS = 256
_ENVELOPE_STEPS = 4

# Per-pulse CF4 step cap: 10,000,000 exponentials, about 3 s of full-mode stepping. A
# larger count is refused, not run.
MAX_STEPS = 5_000_000

# Factors (two per CF4 step) per chunk of a full-mode propagator. The per-thread workspace
# holds this many factors, 312 B each (5.1 MB). Against this size, in interleaved
# single-propagator runs (TRANSMON Gaussian NOT at 40 and 100 ns, 2-core VM, numpy 2.4.6),
# chunks of 8,192 factors were 11-26% slower, 4,096 31-55% and 2,048 65-105%.
CHUNK_STEPS = 16384

# Block length B of the carrier-phase table: exp(-2i f (t0 + k h)) for k = q B + r is
# outer[q] * inner[r], with outer[q] = exp(-2i f (t0 + q B h)) and inner[r] = exp(-2i f r h).
_PHASE_BLOCK = 128

# A pairwise-product level with fewer matrices than this is multiplied with
# np.matmul, where the unrolled kernel's fixed per-level cost dominates.
_MATMUL_BELOW = 128

# CF4: the nodes of step k sit at (k + _CF4_NODES) h, and its factors weigh the node
# Hamiltonians (H-, H+) by (A1, A2), then by (A2, A1).
_CF4_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class PropagationConfig:
    """Integration mode and step-resolution policy.

    In 'full' mode the per-pulse CF4 step count resolves the fastest
    counter-rotating oscillation (period pi/f_max) with steps_per_cycle steps
    of two exponentials each; a pulse whose carrier needs fewer steps gets a
    resolution floor set by its carrier phase and envelope, at most MIN_STEPS
    (see num_steps). The default of 8 keeps a 40 ns transmon NOT gate within
    1.5e-6 (max entry) of the converged propagator and builds it in about
    2.5-3 ms.
    """

    mode: str = "full"
    steps_per_cycle: int = 8

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.steps_per_cycle) and self.steps_per_cycle >= 8):
            raise ValueError(
                f"steps_per_cycle must be finite and >= 8, got {self.steps_per_cycle!r}"
            )


def num_steps(
    sys: LambdaSystem, tau: float, cfg: PropagationConfig, time_scale: float | None = None
) -> int:
    """Per-pulse CF4 step count: the carrier count, or the resolution floor when it is larger.

    The carrier count ceil(steps_per_cycle * tau * 2 f_max / 2pi) puts
    steps_per_cycle steps in each counter-rotating period; at the default 8 a
    40 ns transmon pulse gets 5,176 steps, each two exponentials. The floor is

        min(MIN_STEPS, ceil(s * max(64, 256 x^(3/8) r^(1/2), 4 r))),  s = steps_per_cycle / 8,

    with x = f_max tau, the carrier phase over the pulse, and r = tau / time_scale
    (at least 1), the pulse over its envelope's shortest time scale
    (Envelope.time_scale; None means tau, an envelope that spans the window).
    All its terms scale with s, so a finer steps_per_cycle shortens every step
    below the cap. A pulse never gets more than max(MIN_STEPS, carrier count)
    steps, and a transmon pulse of 1-100 ns gets exactly that: its x >= 50.8
    puts the phase term above the cap.

    Calibration. A point's error e(n) is the largest |dF| or |d excited
    population| over the four inputs at n steps, against 4 MIN_STEPS steps,
    and its bound is max(1e-9, 2 e(MIN_STEPS)). The calibration set was 1,000
    random points whose carrier count is below MIN_STEPS: all five kinds, tau
    1-100 ns, x log-uniform in 1e-4-400 (5% at 0), fe1/fe0 TRANSMON's ratio, 0,
    1 or uniform in [0, 1] with either tone the faster, fwhm_fraction
    0.00154-1, sech_beta 0.1-538, random angles, pulse start 0 or tau. A
    log-log fit of the n each point needs gives e of about x^1.5 r^2 / n^4
    (fitted exponents of n against x 0.33-0.38, against r 0.35-0.53), hence
    the phase term; the full-window kinds set its 256 (231 needed). The
    envelope term binds only where x is small and r large (a narrow Gaussian
    or sech at low f) and needed at most 3; 4 also resolves every envelope
    that MIN_STEPS steps resolve. The base of 64 covers a full-window pulse at
    x -> 0, which needed at most 34. Validation computed e at the rule's own n
    on 1,000 further random points and on 600 points drawn like the
    benchmark's point stream (tau 1-10 ns, default widths, x 0.001-508 at
    TRANSMON's ratio), each at pulse starts 0 and tau: no point exceeded its
    bound (the largest e was 0.82 of it), none was refused, and the mean n
    was 461 and 490, against MIN_STEPS.

    1 in 'rwa' mode, where the propagator is one exact rotation. A count beyond
    floating-point range or above MAX_STEPS raises NumericalContractError.
    """
    if cfg.mode == "rwa":
        return 1
    f_fast = max(2.0 * sys.fe0, 2.0 * sys.fe1)
    cycles = tau * f_fast / (2.0 * math.pi)
    steps = cfg.steps_per_cycle * cycles
    if not math.isfinite(steps):
        raise NumericalContractError(
            f"fe0 = {sys.fe0!r} and fe1 = {sys.fe1!r} rad/s over tau = {tau!r} s "
            "need a step count beyond floating-point range"
        )
    n = int(math.ceil(steps))
    if n < MIN_STEPS:
        x = max(sys.fe0, sys.fe1) * tau
        r = 1.0 if time_scale is None else max(1.0, tau / time_scale)
        floor = max(_BASE_STEPS, _PHASE_STEPS * x**0.375 * math.sqrt(r), _ENVELOPE_STEPS * r)
        n = max(n, math.ceil(min(MIN_STEPS, cfg.steps_per_cycle / 8 * floor)))
    if n > MAX_STEPS:
        count = n if n < 10**15 else f"{n:.3e}"
        raise NumericalContractError(
            f"fe0 = {sys.fe0!r} and fe1 = {sys.fe1!r} rad/s over tau = {tau!r} s "
            f"need {count} steps, above the cap MAX_STEPS = {MAX_STEPS}"
        )
    return n


class _Workspace:
    """The factor stack and the product's level buffers, with room for `size` factors."""

    def __init__(self, size: int):
        self.size = size
        self.unitaries = np.empty((DIM, DIM, size), dtype=complex)
        half = (size + 1) // 2
        self.levels = np.empty((2, DIM, DIM, half), dtype=complex)
        self.row = np.empty((DIM, half), dtype=complex)


_local = threading.local()


def _workspace(size: int) -> _Workspace:
    """A workspace with room for `size` factors: this thread's kept one when it is large enough.

    A new workspace replaces the kept one only if it has room for at most
    CHUNK_STEPS factors, so what a thread keeps stays bounded.
    """
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.size < size:
        ws = _Workspace(size)
        if size <= CHUNK_STEPS:
            _local.workspace = ws
    return ws


def _scale(z: np.ndarray, x: np.ndarray) -> None:
    """z *= x in place, for complex z and real x of the same shape."""
    np.multiply(z.real, x, out=z.real)
    np.multiply(z.imag, x, out=z.imag)


def _coupling_weights(
    sys: LambdaSystem, drive: DriveSpec, t0: np.ndarray, h: float, a: np.ndarray
) -> np.ndarray:
    """The full-mode CF4 factor weights of m steps, interleaved as (2, 2m), from node samples.

    a is (2, m), the envelope on the pulse's own clock at the nodes
    t- = t0[0] + k h and t+ = t0[1] + k h; the carrier phases run on the
    absolute clock of t0. With x = A1 w- and y = A2 w+, the node weights
    w_j = c_j a (1 + exp(-2i f_j t)) of the samples scaled by A1 and A2,
    factor 2k is x + y = A1 w- + A2 w+ and factor 2k + 1 is
    (A2 / A1) x + (A1 / A2) y = A2 w- + A1 w+. The phases come from the
    _PHASE_BLOCK table, to within a few ulp of the largest |2 f t|.
    """
    m = a.shape[1]
    c = np.array([drive.c0, drive.c1]).reshape(2, 1, 1)
    # c exp(-2i f t) = (c outer[q]) * inner[r] for t = t0 + (q B + r) h, both tones and nodes
    # at once; the last block is cut to m
    f = np.array([sys.fe0, sys.fe1]).reshape(2, 1, 1)
    inner = np.exp(-2j * f[:, 0] * (h * np.arange(min(m, _PHASE_BLOCK))))
    starts = t0[:, None] + _PHASE_BLOCK * h * np.arange(-(-m // _PHASE_BLOCK))
    outer = np.exp(-2j * f * starts)
    outer *= c
    w = (outer[..., None] * inner[:, None, None, :]).reshape(2, 2, -1)[:, :, :m]
    w += c
    _scale(w, a * [[_CF4_A1], [_CF4_A2]])
    x, y = w[:, 0], w[:, 1]
    out = np.empty((2, 2 * m), dtype=complex)
    np.add(x, y, out=out[:, 0::2])
    x *= _CF4_A2 / _CF4_A1
    y *= _CF4_A1 / _CF4_A2
    np.add(x, y, out=out[:, 1::2])
    return out


def _step_unitaries(w0: np.ndarray, w1: np.ndarray, h: float, out=None) -> np.ndarray:
    """exp(-i H_k h) for a batch of coupling-only Hamiltonians, in closed form.

    Each H has the single-excitation structure r(|u><e| + |e><u|) with
    u the unit vector along (conj(w0), conj(w1)), so the exponential is a
    rotation by r*h in the {u, e} plane and identity on the orthogonal
    complement. It matches the eigendecomposition route (exp of the 3x3
    Hermitian matrix by np.linalg.eigh, kept in the tests' oracles) to
    rounding, but vectorizes over all steps. The entries are written into
    a (3, 3, n) component array (out, when it is given) and returned as its
    (n, 3, 3) view, the layout time_ordered_product multiplies without
    copying.
    """
    n = w0.shape[0]
    u = np.empty((DIM, DIM, n), dtype=complex) if out is None else out
    r = np.abs(w0)
    np.square(r, out=r)
    c = np.abs(w1)
    np.square(c, out=c)
    np.add(r, c, out=r)
    np.sqrt(r, out=r)
    inv_r = np.divide(1.0, r, out=np.zeros(n), where=r > 0.0)
    # u0 and u1, held in column 2 until the last step (an idle step has u = 0)
    u_col = u[:2, 2]
    for uj, wj in zip(u_col, (w0, w1)):
        np.conjugate(wj, out=uj)
        _scale(uj, inv_r)
    np.multiply(r, h, out=r)  # the rotation angle
    np.cos(r, out=c)
    s = np.sin(r)
    cm1 = np.subtract(c, 1.0, out=r)
    # the {0, 1} block: identity + (cos - 1) u u^dagger
    for j in range(2):
        d = u[j, j]
        np.square(u_col[j].real, out=d.real)
        np.square(u_col[j].imag, out=d.imag)
        np.add(d.real, d.imag, out=d.real)
        np.multiply(d.real, cm1, out=d.real)
        np.add(d.real, 1.0, out=d.real)
        d.imag.fill(0.0)
    np.conjugate(u_col[1], out=u[0, 1])
    np.multiply(u[0, 1], u_col[0], out=u[0, 1])
    _scale(u[0, 1], cm1)
    np.conjugate(u[0, 1], out=u[1, 0])
    # the couplings to |e>: -i sin * u (column 2) and -i sin * conj(u) (row 2)
    for j in range(2):
        np.conjugate(u_col[j], out=u[2, j])
        for z in (u[2, j], u_col[j]):
            np.multiply(z, -1j, out=z)
            _scale(z, s)
    u[2, 2].real = c
    u[2, 2].imag.fill(0.0)
    return u.transpose(2, 0, 1)


def time_ordered_product(unitaries: np.ndarray) -> np.ndarray:
    """Product U_{N-1} ... U_1 U_0 of a (N, 3, 3) stack, by pairwise reduction.

    While a level has at least _MATMUL_BELOW factors, it multiplies adjacent
    pairs with a 3x3 product unrolled over the inner index, on (3, 3, m)
    component arrays in this thread's workspace, so every operation is a
    long vectorized loop; a stack from _step_unitaries is already laid out
    that way. A stack of more than CHUNK_STEPS factors gets level buffers
    that are not kept. The shorter levels go to np.matmul. An odd last
    factor carries to the next level.
    """
    p = unitaries.transpose(1, 2, 0)
    ws = _workspace(p.shape[2])
    level = 0
    while p.shape[2] >= _MATMUL_BELOW:
        m = p.shape[2]
        k = m // 2
        later, earlier = p[:, :, 1 : 2 * k : 2], p[:, :, 0 : 2 * k : 2]
        q = ws.levels[level % 2, :, :, : k + m % 2]
        tmp = ws.row[:, :k]
        for i in range(DIM):
            row = q[i, :, :k]  # row i of every pair product, all columns at once
            np.multiply(later[i, 0], earlier[0], out=row)
            np.multiply(later[i, 1], earlier[1], out=tmp)
            row += tmp
            np.multiply(later[i, 2], earlier[2], out=tmp)
            row += tmp
        if m % 2:
            q[:, :, k] = p[:, :, m - 1]
        p = q
        level += 1
    stack = p.transpose(2, 0, 1)
    while len(stack) > 1:
        m = len(stack)
        pairs = stack[1:m:2] @ stack[0 : m - 1 : 2]
        stack = np.concatenate((pairs, stack[m - 1 :])) if m % 2 else pairs
    return np.array(stack[0])


def _rotation(w0: complex, w1: complex, h: float) -> np.ndarray:
    """exp(-i H h) for one coupling-only H with weights w0 and w1 (not both 0), in scalars.

    The same closed form as _step_unitaries, in its operation order, as one
    contiguous 3x3: the RWA propagator, without the cost of numpy calls on
    one-element arrays.
    """
    r0, r1 = np.abs([w0, w1]).tolist()  # numpy's complex modulus, which math.hypot need not match
    r = math.sqrt(r0 * r0 + r1 * r1)
    inv_r = 1.0 / r
    u = [complex(w.real * inv_r, -w.imag * inv_r) for w in (w0, w1)]
    cos, sin = math.cos(r * h), math.sin(r * h)
    cm1 = cos - 1.0
    u01 = u[1].conjugate() * u[0]
    u01 = complex(u01.real * cm1, u01.imag * cm1)
    d0, d1 = ((v.real * v.real + v.imag * v.imag) * cm1 + 1.0 for v in u)
    col = [complex(v.imag * sin, -v.real * sin) for v in u]
    row = [complex(-v.imag * sin, -v.real * sin) for v in u]
    return np.array(
        [[d0, u01, col[0]], [u01.conjugate(), d1, col[1]], [row[0], row[1], cos]], dtype=complex
    )


def _node_envelope(drive: DriveSpec, first: int, m: int, h: float) -> np.ndarray:
    """The envelope at the CF4 nodes of steps first, ..., first + m - 1, as (2, m): t-, then t+."""
    t = (np.arange(first, first + m) + _CF4_NODES[:, None]) * h
    return drive.envelope.evaluate(t.ravel()).reshape(2, m)


def propagator(
    sys: LambdaSystem,
    drive: DriveSpec,
    cfg: PropagationConfig,
    pulse_start: float = 0.0,
) -> np.ndarray:
    """Time-ordered propagator over one pulse window [pulse_start, pulse_start + tau].

    In 'rwa' mode this is exp(-i area K), independent of sys and pulse_start.
    In 'full' mode it is the product of the CF4 steps, built in chunks of at
    most CHUNK_STEPS factors, each stacked and multiplied in this thread's
    workspace, and it is refused unless the steps resolve the envelope: its
    two-node Gauss-Legendre area (h/2) sum(a- + a+) must match the exact area
    to PULSE_AREA_TOL (relative). A non-finite pulse_start raises ValueError.
    """
    if not math.isfinite(pulse_start):
        raise ValueError(f"pulse_start must be finite, got {pulse_start!r}")
    if cfg.mode == "rwa":
        # a unit-weight rotation applied for the pulse area
        u = _rotation(drive.c0, drive.c1, drive.envelope.area)
    else:
        tau = drive.envelope.tau
        n = num_steps(sys, tau, cfg, drive.envelope.time_scale)
        h = tau / n
        ws = _workspace(min(2 * n, CHUNK_STEPS))
        size = CHUNK_STEPS // 2
        chunks = [(first, min(size, n - first)) for first in range(0, n, size)]
        # the area check comes before any step is built; a one-chunk pulse keeps its samples
        sampled = 0.0
        for chunk in chunks:
            a = _node_envelope(drive, *chunk, h)
            sampled += float(a.sum())
        sampled, area = 0.5 * h * sampled, drive.envelope.area
        if not abs(sampled - area) <= PULSE_AREA_TOL * abs(area):
            raise NumericalContractError(
                f"{n} steps of {h:.3e} s sample a pulse area of {sampled:.6g}, not {area:.6g}: "
                "the envelope is not resolved"
            )
        u = np.eye(DIM, dtype=complex)
        for first, m in chunks:
            if len(chunks) > 1:
                a = _node_envelope(drive, first, m, h)
            t0 = pulse_start + (first + _CF4_NODES) * h
            w = _coupling_weights(sys, drive, t0, h, a)
            factors = _step_unitaries(w[0], w[1], h, out=ws.unitaries[:, :, : 2 * m])
            u = time_ordered_product(factors) @ u
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise NumericalContractError(
            f"propagator unitarity defect {defect:.3e} exceeds {UNITARY_TOL}"
        )
    return u
