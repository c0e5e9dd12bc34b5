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
coupling-only, so each factor is one closed-form rotation, and the step, the
product of the two, has a closed form too (_step_unitaries): unitary to
rounding, with a discretization error that falls 16x per halving of h. A step
costs two exponentials; at the default 8 steps per counter-rotating period a
40 ns transmon pulse (5,176 steps) needs 16 exponentials per period.

A full-mode propagator is built in chunks of at most CHUNK_STEPS steps, in this
thread's workspace, which it reads once per build. A first pass samples the
envelope at every node and refuses the pulse if the two-node Gauss-Legendre area
misses the exact one, before any step is built. Then the propagator lays out
each chunk's regions once (_Workspace, 480 B per step): the weights stage,
_coupling_weights, writes the chunk's factor weights into its coef region,
_step_unitaries writes its step unitaries, and time_ordered_product, which reads
the workspace itself, multiplies them in pairwise levels; each later chunk's
product multiplies the result so far. Every one of these 3x3 products rounds
each entry as the same three-term sum of numpy ufuncs (_pair_products): no BLAS
call enters, and a level's length picks only the faster spelling. Memory is
bounded by the chunk, not by the step count, and MAX_STEPS bounds the time. Each
node lies on a uniform grid t_k = t0 + k h, so the carrier phases exp(-2i f t_k)
of a chunk of m steps come from one table of B + 2 ceil(m / B) complex
exponentials per tone (B = _PHASE_BLOCK), at one complex multiply per node.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
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
            if not (math.isfinite(f) and f >= 0.0):
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

# CF4 steps per chunk of a full-mode propagator. The per-thread workspace holds CHUNK_STEPS
# steps, 480 B each (3.9 MB). Against this size, in interleaved single-propagator runs
# (TRANSMON Gaussian NOT at 40 and 100 ns, 2-core VM, numpy 2.4.6), chunks of 4,096 steps
# were 11-26% slower, 2,048 steps 31-55% and 1,024 steps 65-105%.
CHUNK_STEPS = 8192

# Block length B of the carrier-phase table: exp(-2i f (t0 + k h)) for k = q B + r is
# outer[q] * inner[r], with outer[q] = exp(-2i f (t0 + q B h)) and inner[r] = exp(-2i f r h).
_PHASE_BLOCK = 128
_BLOCK_RANGE = np.arange(_PHASE_BLOCK)

# Below this many pairs _pair_products broadcasts, cheaper than unrolling; it sets speed only.
_BROADCAST_BELOW = 512

# CF4: the nodes of step k sit at (k + _CF4_NODES) h, and its factors weigh the node
# Hamiltonians (H-, H+) by (A1, A2), then by (A2, A1).
_CF4_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0
_CF4_WEIGHTS = np.array([[_CF4_A1, _CF4_A2], [_CF4_A2, _CF4_A1]])


@dataclass(frozen=True)
class PropagationConfig:
    """Integration mode and step-resolution policy.

    In 'full' mode the per-pulse CF4 step count resolves the fastest
    counter-rotating oscillation (period pi/f_max) with steps_per_cycle steps
    of two exponentials each; a pulse whose carrier needs fewer steps gets a
    resolution floor set by its carrier phase and envelope, at most MIN_STEPS
    (see num_steps). The default of 8 keeps a 40 ns transmon NOT gate within
    1.5e-6 (max entry) of the converged propagator.
    """

    mode: str = "full"
    steps_per_cycle: int = 8

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        try:
            valid = math.isfinite(self.steps_per_cycle) and self.steps_per_cycle >= 8
        except OverflowError:  # an int beyond floating-point range
            valid = False
        if not valid:
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


_Chunk = namedtuple("_Chunk", "unitaries uc reals coef work levels spare")


class _Workspace:
    """Room for a chunk of up to `size` steps, and the one description of its layout.

    Per step it holds 9 complex numbers of step unitaries and 21 of scratch,
    which chunk(m) hands out for m steps as uc, u and conj(u) of both factors
    (8); reals, their c - 1, s and c (3); coef, the coefficients, which first
    hold the CF4 factor weights (4); and work, the step kernel's temporaries
    (6). Over the same scratch it hands out levels and spare, the product's two
    (3, 3, ceil(m / 2)) level buffers and its spare row (10.5): 480 B per step.
    """

    def __init__(self, size: int):
        self.size = size
        self.unitaries = np.empty((DIM, DIM, size), dtype=complex)
        self.scratch = np.empty(21 * size, dtype=complex)

    def chunk(self, m: int) -> _Chunk:
        """The regions of m <= size steps: the step kernel's in memory order, then the product's."""
        buf = self.scratch
        half = (m + 1) // 2
        return _Chunk(
            self.unitaries[:, :, :m],
            buf[: 8 * m].reshape(4, 2, m),
            buf[8 * m : 11 * m].view(float).reshape(3, 2, m),
            buf[11 * m : 15 * m].reshape(2, 2, m),
            buf[15 * m : 21 * m],
            buf[: 18 * half].reshape(2, DIM, DIM, half),
            buf[18 * half : 21 * half].reshape(DIM, half),
        )


_local = threading.local()


def _workspace(size: int) -> _Workspace:
    """A workspace with room for `size` steps: this thread's kept one when it is large enough.

    A new workspace replaces the kept one only if it has room for at most
    CHUNK_STEPS steps, so what a thread keeps stays bounded. Its callers are
    propagator, once per full-mode build, and time_ordered_product.
    """
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.size < size:
        ws = _Workspace(size)
        if size <= CHUNK_STEPS:
            _local.workspace = ws
    return ws


def _coupling_weights(
    sys: LambdaSystem, drive: DriveSpec, t0: np.ndarray, h: float, a: np.ndarray, coef: np.ndarray
) -> np.ndarray:
    """The full-mode CF4 factor weights of m steps, as (factor, tone, step), from node samples.

    a is (2, m), the envelope on the pulse's own clock at the nodes
    t- = t0[0] + k h and t+ = t0[1] + k h; the carrier phases run on the
    absolute clock of t0. One np.einsum over the node axis mixes the node
    weights w_j = c_j a (1 + exp(-2i f_j t)) into A1 w- + A2 w+ and
    A2 w- + A1 w+ (np.matmul is faster but leaves a BLAS buffer resident).
    The phases come from the _PHASE_BLOCK table, to within a few ulp of the
    largest |2 f t|. The weights land in coef, a chunk's (2, 2, m) coef region.
    """
    m = a.shape[1]
    # the tone constants -2i f and c, each as a (tone, 1) column
    k, c = np.array([[-2j * sys.fe0, -2j * sys.fe1], [drive.c0, drive.c1]])[:, :, None]
    # c exp(-2i f t) = (c outer[q]) * inner[r] for t = t0 + (q B + r) h, both nodes and tones
    # at once; the last block is cut to m
    inner = np.exp(k * (h * _BLOCK_RANGE[: min(m, _PHASE_BLOCK)]))
    starts = t0[:, None] + _PHASE_BLOCK * h * np.arange(-(-m // _PHASE_BLOCK))
    outer = np.exp(k * starts[:, None])
    outer *= c
    w = (outer[..., None] * inner[:, None, :]).reshape(2, 2, -1)[:, :, :m]
    w += c
    w *= a[:, None]
    np.einsum("fn,ntx->tfx", _CF4_WEIGHTS, w.view(float), out=coef.view(float))
    return coef.transpose(1, 0, 2)


def _step_unitaries(w: np.ndarray, h: float, chunk: _Chunk) -> np.ndarray:
    """The CF4 step unitaries S_k = F2_k F1_k of m steps, in closed form, from (2, 2, m) weights.

    w[0] and w[1] hold the tone weights (w0, w1) of the factors F1 and F2 of
    every step, as _coupling_weights returns them. A factor is exp(-i H h) for
    a coupling-only H = r (|u><e| + |e><u|), with r = |w| and u = conj(w) / r
    (u = 0 for an idle factor, w = 0): a rotation by r h in the {u, e} plane
    and identity on the orthogonal complement,

        F = [[I + (c - 1) u u^dagger, -i s u], [-i s u^dagger, c]],  c, s = cos, sin(r h).

    With a for F1, b for F2 and g = u_b^dagger u_a, the product F2 F1 is

        {0, 1} block  I + (c_a - 1) u_a u_a^dagger + u_b v^T,
                      v = (c_b - 1) conj(u_b) + K conj(u_a),  K = (c_a - 1)(c_b - 1) g - s_a s_b
        column e      -i (s_a u_a + ((c_b - 1) s_a g + s_b c_a) u_b)
        row e         -i (s_b u_b^dagger + ((c_a - 1) s_b g + c_b s_a) u_a^dagger)
        corner        c_a c_b - s_a s_b g

    It matches the product of the two factors' exponentials (np.linalg.eigh in
    the tests' oracles) to rounding, but vectorizes over all steps. It works in
    chunk, an m-step _Chunk whose coef w may occupy, and returns its unitaries
    as an (m, 3, 3) view, in the layout time_ordered_product multiplies.
    """
    m = w.shape[2]
    s, uc, reals, coef, work, *_ = chunk
    ua, ub, cua, cub = uc
    cm1, sin, cos = reals
    r = cm1  # r, then the angle r h, until c - 1 is formed
    r2 = work[: 2 * m].view(float).reshape(2, 2, m)  # |w|^2 as (tone, factor, step)
    np.abs(w.transpose(1, 0, 2), out=r2)
    np.square(r2, out=r2)
    np.add(r2[0], r2[1], out=r)
    np.sqrt(r, out=r)
    inv_r = sin  # until s is formed; 0 for an idle factor, so that its u is 0
    inv_r.fill(0.0)
    np.divide(1.0, r, out=inv_r, where=r > 0.0)
    np.multiply(w, inv_r[:, None], out=uc[2:])
    np.conjugate(uc[2:], out=uc[:2])
    np.multiply(r, h, out=r)
    np.cos(r, out=cos)
    np.sin(r, out=sin)
    np.subtract(cos, 1.0, out=cm1)
    # g, held in the corner until the corner is formed
    g = s[2, 2]
    tmp = work[: 2 * m].reshape(2, m)
    np.multiply(cub, ua, out=tmp)
    np.add(tmp[0], tmp[1], out=g)
    # the coefficients (K, row e's; column e's, corner) = g p + q, with p and q the
    # (c - 1, s) x (c - 1, s) and (s, c) x (s, c) corners of the outer product of (c - 1, s, c)
    # of a with that of b; they share s_a s_b, negated for K and the corner
    pq = work.view(float)[: 9 * m].reshape(3, 3, m)
    np.multiply(reals[:, None, 0], reals[None, :, 1], out=pq)
    np.negative(pq[1, 1], out=pq[1, 1])
    np.multiply(g, pq[:2, :2], out=coef)
    coef.real += pq[1:, 1:]
    s[2, 2] = coef[1, 1]
    # column e and row e together: -i (s_a u_a + col_coef u_b) and
    # -i (s_b conj(u_b) + row_coef conj(u_a)), the second terms in the {0, 1} block, free by now
    both = work[: 4 * m].reshape(2, 2, m)
    block = s[:2, :2]
    np.multiply(sin[:, None], uc[0::3], out=both)
    np.multiply(coef.reshape(4, m)[2:0:-1, None], uc[1:3], out=block)
    both += block
    np.multiply(both[0], -1j, out=s[:2, 2])
    np.multiply(both[1], -1j, out=s[2, :2])
    # the {0, 1} block I + (c_a - 1) u_a u_a^dagger + u_b v^T, with (c_a - 1) u_a u_a^dagger
    # in the coefficients' scratch, free by now
    v, tmp = work[: 4 * m].reshape(2, 2, m)
    np.multiply(cua, coef[0, 0], out=v)
    np.multiply(cub, cm1[1], out=tmp)
    v += tmp
    np.multiply(ub[:, None], v[None], out=block)
    np.multiply(ua, cm1[0], out=tmp)
    np.multiply(tmp[:, None], cua[None], out=coef)
    block += coef
    for j in range(2):
        block[j, j].real += 1.0
    return s.transpose(2, 0, 1)


def _pair_products(
    later: np.ndarray, earlier: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """The k products L E of two (3, 3, k) component arrays into out, in one rounding order.

    Each entry is (L[i,0] E[0,l] + L[i,1] E[1,l]) + L[i,2] E[2,l], both additions written
    out in numpy ufuncs: below _BROADCAST_BELOW pairs on the terms of one broadcast multiply,
    from there on row by row with tmp a (3, k) scratch row. Both spellings round alike.
    """
    if later.shape[2] < _BROADCAST_BELOW:
        terms = np.multiply(later[:, :, None], earlier[None])  # terms[i, j] = L[i,j] E[j]
        return np.add(np.add(terms[:, 0], terms[:, 1], out=out), terms[:, 2], out=out)
    for i in range(DIM):
        row = out[i]  # row i of every pair product, all columns at once
        np.multiply(later[i, 0], earlier[0], out=row)
        np.multiply(later[i, 1], earlier[1], out=tmp)
        row += tmp
        np.multiply(later[i, 2], earlier[2], out=tmp)
        row += tmp
    return out


def time_ordered_product(unitaries: np.ndarray) -> np.ndarray:
    """Product U_{N-1} ... U_1 U_0 of a (N, 3, 3) stack, by pairwise reduction.

    Each level multiplies adjacent pairs with _pair_products, in one rounding order
    whatever its length, on (3, 3, m) component arrays in the level buffers of this
    thread's workspace, which the product reads itself; a stack from _step_unitaries is
    already laid out that way. An odd last matrix carries to the next level. A stack of
    more than CHUNK_STEPS matrices gets level buffers that are not kept.
    """
    p = unitaries.transpose(1, 2, 0)
    *_, levels, spare = _workspace(p.shape[2]).chunk(p.shape[2])
    while p.shape[2] > 1:
        k, odd = divmod(p.shape[2], 2)
        q = levels[0, :, :, : k + odd]
        _pair_products(p[:, :, 1 : 2 * k : 2], p[:, :, 0 : 2 * k : 2], q[:, :, :k], spare[:, :k])
        if odd:
            q[:, :, k] = p[:, :, 2 * k]
        p, levels = q, levels[::-1]
    return p[:, :, 0].copy()


def _rotation(w0: complex, w1: complex, h: float) -> np.ndarray:
    """exp(-i H h) for one coupling-only H with weights w0 and w1 (not both 0), in scalars.

    One factor of _step_unitaries, u = conj(w) / r with r = |w| and
    c, s = cos, sin(r h), as one contiguous 3x3: the RWA propagator, without
    the cost of numpy calls on one-element arrays.
    """
    r = math.hypot(abs(w0), abs(w1))
    u0, u1 = w0.conjugate() / r, w1.conjugate() / r
    c, s = math.cos(r * h), math.sin(r * h)
    u01 = (c - 1.0) * u0 * u1.conjugate()
    return np.array(
        [
            [1.0 + (c - 1.0) * abs(u0) ** 2, u01, -1j * s * u0],
            [u01.conjugate(), 1.0 + (c - 1.0) * abs(u1) ** 2, -1j * s * u1],
            [-1j * s * u0.conjugate(), -1j * s * u1.conjugate(), c],
        ],
        dtype=complex,
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
    most CHUNK_STEPS steps, each stacked and multiplied in this thread's
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
        ws = _workspace(min(n, CHUNK_STEPS))
        h = tau / n
        chunks = [(first, min(CHUNK_STEPS, n - first)) for first in range(0, n, CHUNK_STEPS)]
        # the area check comes before any step is built; a one-chunk pulse keeps its samples
        sampled = 0.0
        for first, m in chunks:
            a = _node_envelope(drive, first, m, h)
            sampled += float(a.sum())
        sampled, area = 0.5 * h * sampled, drive.envelope.area
        if not abs(sampled - area) <= PULSE_AREA_TOL * abs(area):
            raise NumericalContractError(
                f"{n} steps of {h:.3e} s sample a pulse area of {sampled:.6g}, not {area:.6g}: "
                "the envelope is not resolved"
            )
        for first, m in chunks:
            if len(chunks) > 1:
                a = _node_envelope(drive, first, m, h)
            t0 = pulse_start + (first + _CF4_NODES) * h
            chunk = ws.chunk(m)
            w = _coupling_weights(sys, drive, t0, h, a, chunk.coef)
            later = time_ordered_product(_step_unitaries(w, h, chunk))[..., None]
            u = _pair_products(later, u, np.empty_like(u), chunk.spare[:, :1]) if first else later
        u = u[..., 0]
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise NumericalContractError(
            f"propagator unitarity defect {defect:.3e} exceeds {UNITARY_TOL}"
        )
    return u
