"""Reference fidelities computed in the benchmark, without lambda_holo's dynamics code.

The reference integrates the same model as the program, from the model's
definition rather than its code: the interaction-picture Hamiltonian couples
|0> and |1> to |e> with weights w_j = c_j A g(t) (1 + exp(-2i f_ej t)), or
c_j A g(t) under the rotating wave approximation, where c_j and A g(t) come
from the public `DriveSpec` and `Envelope.evaluate`. Each midpoint step
applies exp(-i H(t_mid) h). The step count is the program's default policy
with `steps_per_cycle` and `min_steps` both scaled by REF_SCALE.

Nothing here calls `lambda_holo.dynamics`, `gates` or `sweeps`, so a fault
in the program's step exponentials, its 3x3 product or its integrator shows
as a difference from the reference instead of being repeated in it.
"""

from __future__ import annotations

import math

import numpy as np

REF_SCALE = 4
STEPS_PER_CYCLE = 40 * REF_SCALE
MIN_STEPS = 2000 * REF_SCALE
SPOT_CHECKS = 16  # step exponentials per propagator compared with np.linalg.eigh
SPOT_TOL = 1e-12

_H = math.sqrt(0.5)
INPUTS = {
    "0": np.array([1.0, 0.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0, 0.0], dtype=complex),
    "x+": np.array([_H, _H, 0.0], dtype=complex),
    "y+": np.array([_H, 1j * _H, 0.0], dtype=complex),
}


def steps(fe0: float, fe1: float, tau: float) -> int:
    """Steps that resolve the fastest counter-rotating period pi / max(f) at the scaled policy."""
    cycles = tau * 2.0 * max(fe0, fe1) / (2.0 * math.pi)
    return max(MIN_STEPS, int(math.ceil(STEPS_PER_CYCLE * cycles)))


def _weights(fe0, fe1, drive, mode, t_abs, t_env):
    a = drive.envelope.evaluate(t_env)
    if mode == "rwa":
        return drive.c0 * a + 0j, drive.c1 * a + 0j
    return (
        drive.c0 * a * (1.0 + np.exp(-2j * fe0 * t_abs)),
        drive.c1 * a * (1.0 + np.exp(-2j * fe1 * t_abs)),
    )


def _hamiltonians(w0, w1) -> np.ndarray:
    h = np.zeros((w0.shape[0], 3, 3), dtype=complex)
    h[:, 2, 0], h[:, 2, 1] = w0, w1
    h[:, 0, 2], h[:, 1, 2] = np.conj(w0), np.conj(w1)
    return h


def step_exponentials(w0, w1, dt: float) -> np.ndarray:
    """exp(-i H dt) for each step, H = r (|v><e| + |e><v|), v = (conj w0, conj w1) / r.

    H has eigenvalues +r and -r on span{v, e} and 0 on its complement, so the
    exponential is I + (cos(r dt) - 1)(|v><v| + |e><e|) - i sin(r dt) H / r.
    """
    r = np.hypot(np.abs(w0), np.abs(w1))
    safe = np.where(r > 0.0, r, 1.0)
    v = np.stack([np.conj(w0) / safe, np.conj(w1) / safe, np.zeros_like(w0)], axis=1)
    v[r == 0.0] = 0.0
    cm1 = (np.cos(r * dt) - 1.0)[:, None, None]
    sinc = (np.sin(r * dt) / safe)[:, None, None]
    u = cm1 * (v[:, :, None] * np.conj(v[:, None, :]))
    u[:, 2, 2] += cm1[:, 0, 0]
    u -= 1j * sinc * _hamiltonians(w0, w1)
    u[:, 0, 0] += 1.0
    u[:, 1, 1] += 1.0
    u[:, 2, 2] += 1.0
    return u


def _spot_check(w0, w1, dt: float, u: np.ndarray) -> None:
    """Compare a few closed-form steps with an eigendecomposition of the same H."""
    idx = np.linspace(0, w0.shape[0] - 1, SPOT_CHECKS).astype(int)
    lam, vec = np.linalg.eigh(_hamiltonians(w0[idx], w1[idx]))
    want = np.einsum("nij,nj,nkj->nik", vec, np.exp(-1j * lam * dt), np.conj(vec))
    err = float(np.abs(u[idx] - want).max())
    if err > SPOT_TOL:
        raise AssertionError(f"reference step exponential differs from eigh by {err:.2e}")


def ordered_product(u: np.ndarray) -> np.ndarray:
    """u[n-1] ... u[1] u[0], multiplied in time order.

    The steps are cut into m chunks of L; all chunks advance one step per
    batched matmul, then the m chunk products are multiplied in order.
    """
    n = u.shape[0]
    length = math.isqrt(n - 1) + 1
    m = -(-n // length)
    padded = np.empty((m * length, 3, 3), dtype=complex)
    padded[:n] = u
    padded[n:] = np.eye(3)
    chunks = np.ascontiguousarray(padded.reshape(m, length, 3, 3).transpose(1, 0, 2, 3))
    acc = chunks[0].copy()
    for step in chunks[1:]:
        acc = step @ acc
    out = np.eye(3, dtype=complex)
    for chunk in acc:
        out = chunk @ out
    return out


def propagator(fe0: float, fe1: float, drive, mode: str, pulse_start: float = 0.0) -> np.ndarray:
    """Midpoint-exponential propagator over [pulse_start, pulse_start + tau]."""
    tau = drive.envelope.tau
    n = steps(fe0, fe1, tau)
    dt = tau / n
    t_env = (np.arange(n) + 0.5) * dt
    w0, w1 = _weights(fe0, fe1, drive, mode, pulse_start + t_env, t_env)
    u = step_exponentials(w0, w1, dt)
    _spot_check(w0, w1, dt, u)
    return ordered_product(u)


def ideal(theta: float, phi: float) -> np.ndarray:
    """n.sigma on span{|0>, |1>}, identity on |e>."""
    st, ct = math.sin(theta), math.cos(theta)
    g = np.zeros((3, 3), dtype=complex)
    g[0, 0], g[1, 1] = ct, -ct
    g[0, 1] = st * complex(math.cos(phi), -math.sin(phi))
    g[1, 0] = st * complex(math.cos(phi), math.sin(phi))
    g[2, 2] = 1.0
    return g


def fidelity(g: np.ndarray, u: np.ndarray, label: str) -> float:
    """|<G psi | U psi>| for the named input psi."""
    psi = INPUTS[label]
    return float(abs(np.vdot(g @ psi, u @ psi)))
