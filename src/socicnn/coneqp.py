"""A dense primal-dual interior-point solver for small convex cone QPs.

It solves

    minimize    1/2 v'Qv + q'v + c0
    subject to  Gv + s = h,  Av = b,  s in K,

where K is the nonnegative orthant on the first ``linear`` rows of G,
followed by one second-order cone {s : s_0 >= ||s_1:||} per entry of
``cones``, each over that many rows.  The method is Mehrotra's
predictor-corrector (Mehrotra 1992, "On the implementation of a primal-dual
interior point method") with Nesterov-Todd scaling of the cones (Nesterov &
Todd 1997, "Self-scaled barriers and interior-point methods for convex
programming"), in the steps of Vandenberghe's notes on CVXOPT's cone QP
solver ("The CVXOPT linear and quadratic cone program solvers", 2010).
Each step solves the reduced KKT system [Q + G'W^-2 G, A'; A, 0] twice,
for the predictor and the corrector, with ``np.linalg.solve``; nothing is
inverted.

The decision pipeline solves a ReLU surrogate's lift with it.  It is not the
certificate's oracle: that one, the simplex in ``simplex.py``, stays
independent of this module.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# Steps after which ``solve`` gives up.
MAX_STEPS = 60

# Stop once ||dual residual|| <= DUAL_TOL max(1, ||q||), the primal and
# equality residuals are at most PRIMAL_TOL max(1, ||h||, ||b||), and
# s'z <= GAP_TOL max(1, |primal objective|).
DUAL_TOL = 1e-8
PRIMAL_TOL = 1e-8
GAP_TOL = 1e-10

# Fraction of the way to the cone's boundary that a step goes.
STEP_FRACTION = 0.99


class ConeProgramError(ValueError):
    """A malformed cone QP, or one the method does not solve: it ran
    ``MAX_STEPS`` steps, met a singular KKT system or left the cone (on an
    infeasible QP, say)."""


class ConeQpSolution(NamedTuple):
    """The primal point v and slack s, the duals y (equality rows) and z
    (cone rows), the primal objective, the gap s'z and the steps taken."""

    v: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    value: float
    gap: float
    steps: int


def _norm(x: np.ndarray) -> float:
    return float(x @ x) ** 0.5


class _Cone:
    """The cone K: the orthant on the first ``linear`` rows, then one
    second-order cone per slice of ``blocks``, and its Jordan algebra."""

    def __init__(self, linear: int, cones: Sequence[int]):
        self.linear = linear
        ends = linear + np.cumsum(cones, dtype=int)
        self.blocks = tuple(slice(int(end - k), int(end)) for end, k in zip(ends, cones))
        self.degree = linear + len(cones)
        self.e = np.zeros(linear + sum(cones))
        self.e[:linear] = 1.0
        for sl in self.blocks:
            self.e[sl.start] = 1.0

    def det(self, x: np.ndarray, sl: slice) -> float:
        """x_0^2 - ||x_1:||^2 on one cone block, factored to keep its digits."""
        head = float(x[sl.start])
        norm = _norm(x[sl.start + 1 : sl.stop])
        return (head - norm) * (head + norm)

    def jordan(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """u o w: elementwise on the orthant, (u'w, u_0 w_1: + w_0 u_1:) on a cone."""
        out = u * w
        for sl in self.blocks:
            a, c = u[sl], w[sl]
            out[sl.start] = a @ c
            out[sl.start + 1 : sl.stop] = a[0] * c[1:] + c[0] * a[1:]
        return out

    def jordan_solve(self, lam: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The u with lam o u = r, for lam inside K.  A cone block of lam
        with head or det 0 has no such u: ConeProgramError."""
        out = np.empty_like(r)
        out[: self.linear] = r[: self.linear] / lam[: self.linear]
        for sl in self.blocks:
            l, c = lam[sl], r[sl]
            det = self.det(lam, sl)
            if l[0] == 0.0 or det == 0.0:
                raise ConeProgramError(
                    "no solution: a cone block of the scaled iterate has head or determinant 0"
                )
            head = (l[0] * c[0] - l[1:] @ c[1:]) / det
            out[sl.start] = head
            out[sl.start + 1 : sl.stop] = (c[1:] - head * l[1:]) / l[0]
        return out

    def exit_shift(self, x: np.ndarray) -> float:
        """The smallest t with x + t e in K: minus x's smallest eigenvalue."""
        t = -float(x[: self.linear].min(initial=np.inf))
        for sl in self.blocks:
            t = max(t, _norm(x[sl.start + 1 : sl.stop]) - x[sl.start])
        return t

    def max_step(self, x: np.ndarray, *directions: np.ndarray) -> float:
        """The largest a with x + a d in K for every d, for x inside K (inf
        if no d leaves K)."""
        a = np.inf
        for d in directions:
            lin = d[: self.linear]
            falling = lin < 0.0
            if falling.any():
                a = min(a, float((x[: self.linear][falling] / -lin[falling]).min()))
            for sl in self.blocks:
                # (x0 + a d0)^2 - ||x1 + a d1||^2 = qa a^2 + 2 qb a + qc with
                # qc > 0: d leaves the cone at its smallest positive root
                u, w = x[sl], d[sl]
                qa = float(w[0] * w[0] - w[1:] @ w[1:])
                qb = float(u[0] * w[0] - u[1:] @ w[1:])
                qc = self.det(x, sl)
                disc = qb * qb - qa * qc
                if disc < 0.0:
                    continue
                far = -(qb + (disc**0.5 if qb >= 0.0 else -(disc**0.5)))
                for root in (qc / far if far else -1.0, far / qa if qa else -1.0):
                    if root > 0.0:
                        a = min(a, root)
        return a

    def scaling(self, s: np.ndarray, z: np.ndarray):
        """Nesterov-Todd scaling W of (s, z), with W z = W^-1 s: the orthant's
        diagonal sqrt(s / z) and, on each cone, the pair (W, W^-1) of
        beta [[w0, w1'], [w1, I + w1 w1' / (1 + w0)]] for the scaling point w."""
        diag = np.sqrt(s[: self.linear] / z[: self.linear])
        mats = []
        for sl in self.blocks:
            det_s, det_z = self.det(s, sl), self.det(z, sl)
            sn, zn = s[sl] / det_s**0.5, z[sl] / det_z**0.5
            w = sn.copy()
            w[0] += zn[0]
            w[1:] -= zn[1:]
            w *= 0.5 / (0.5 * (1.0 + float(sn @ zn))) ** 0.5
            W = np.outer(w, w) / (1.0 + w[0])
            W[1:, 1:] += np.eye(len(w) - 1)
            W[0] = w
            W[:, 0] = w
            beta = (det_s / det_z) ** 0.25
            W_inv = W / beta
            W_inv[0, 1:] *= -1.0
            W_inv[1:, 0] *= -1.0
            mats.append((beta * W, W_inv))
        return diag, mats

    def scale(self, scaling, X: np.ndarray, inverse: bool) -> np.ndarray:
        """W X, or W^-1 X, for X a vector or a block of rows."""
        diag, mats = scaling
        lin = 1.0 / diag if inverse else diag
        out = np.empty_like(X)
        out[: self.linear] = X[: self.linear] * (lin[:, None] if X.ndim == 2 else lin)
        for sl, pair in zip(self.blocks, mats):
            out[sl] = pair[inverse] @ X[sl]
        return out


def _as_float_array(name: str, value, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ConeProgramError(f"{name} must have {ndim} dimension(s), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConeProgramError(f"{name} contains non-finite values")
    return arr


def solve(
    Q, q, G, h, A, b, linear: int, cones: Sequence[int] = (), c0: float = 0.0
) -> ConeQpSolution:
    """Solve the cone QP of the module docstring.  Q is symmetric positive
    semidefinite (not checked).  A non-finite entry or a shape mismatch
    raises ``ConeProgramError`` before any step, as does a problem the method
    does not solve within ``MAX_STEPS`` steps or whose KKT system is
    singular."""
    q = _as_float_array("q", q, 1)
    Q, G, A = (_as_float_array(name, arr, 2) for name, arr in (("Q", Q), ("G", G), ("A", A)))
    h, b = _as_float_array("h", h, 1), _as_float_array("b", b, 1)
    c0 = float(_as_float_array("c0", c0, 0))
    n, m, p = q.shape[0], h.shape[0], b.shape[0]
    cones = tuple(int(k) for k in cones)
    if Q.shape != (n, n) or G.shape != (m, n) or A.shape != (p, n):
        raise ConeProgramError(
            f"shapes do not match: Q {Q.shape}, q {q.shape}, G {G.shape}, h {h.shape}, "
            f"A {A.shape}, b {b.shape}"
        )
    if linear < 0 or any(k < 2 for k in cones) or linear + sum(cones) != m:
        raise ConeProgramError(f"{linear} linear rows and cones {cones} do not cover {m} rows")
    K = _Cone(linear, cones)
    dual_tol = DUAL_TOL * max(1.0, _norm(q))
    primal_tol = PRIMAL_TOL * max(1.0, _norm(h), _norm(b))
    kkt = np.zeros((n + p, n + p))
    kkt[n:, :n] = A
    kkt[:n, n:] = A.T

    def newton(scaling, Gs, lam, rd, rp, re, rc):
        """The step (dv, dy, W dz, W^-1 ds) that zeroes the three residuals
        and has lam o (W^-1 ds + W dz) = rc."""
        u = K.jordan_solve(lam, rc)
        rp_s = K.scale(scaling, rp, True) + u
        step = np.linalg.solve(kkt, np.concatenate([-rd - Gs.T @ rp_s, -re]))
        dz_s = Gs @ step[:n] + rp_s
        return step[:n], step[n:], dz_s, u - dz_s

    try:
        # start from the least-squares point of the problem without cones,
        # with s and z shifted into K
        kkt[:n, :n] = Q + G.T @ G
        start = np.linalg.solve(kkt, np.concatenate([G.T @ h - q, b]))
        v, y = start[:n], start[n:]
        s = h - G @ v
        z = -s
        for x in (s, z):
            shift = K.exit_shift(x)
            if shift >= -1e-8 * max(_norm(x), 1.0):
                x += (1.0 + shift) * K.e

        for steps in range(MAX_STEPS + 1):
            rd = Q @ v + q + A.T @ y + G.T @ z
            rp = G @ v + s - h
            re = A @ v - b
            gap = float(s @ z)
            value = float(0.5 * v @ Q @ v + q @ v) + c0
            if (
                _norm(rd) <= dual_tol
                and max(_norm(rp), _norm(re)) <= primal_tol
                and gap <= GAP_TOL * max(1.0, abs(value))
            ):
                return ConeQpSolution(v, s, y, z, value, gap, steps)
            if steps == MAX_STEPS:
                break
            inside = K.exit_shift(s) < 0.0 and K.exit_shift(z) < 0.0
            if not (inside and np.isfinite(_norm(rd) + gap)):
                raise ConeProgramError(f"no solution: the iterates left the cone at step {steps}")
            scaling = K.scaling(s, z)
            lam = K.scale(scaling, z, False)
            Gs = K.scale(scaling, G, True)
            kkt[:n, :n] = Q + Gs.T @ Gs
            lam_sq = K.jordan(lam, lam)

            # predictor: the affine step, and the gap it would reach
            _, _, dz_a, ds_a = newton(scaling, Gs, lam, rd, rp, re, -lam_sq)
            a = min(1.0, K.max_step(lam, ds_a, dz_a))
            sigma = min(1.0, max(0.0, ((lam + a * ds_a) @ (lam + a * dz_a)) / gap)) ** 3

            # corrector: centred, with the affine step's second-order term
            rc = (sigma * gap / K.degree) * K.e - lam_sq - K.jordan(ds_a, dz_a)
            dv, dy, dz_s, ds_s = newton(scaling, Gs, lam, rd, rp, re, rc)
            a = min(1.0, STEP_FRACTION * K.max_step(lam, ds_s, dz_s))
            v = v + a * dv
            y = y + a * dy
            s = s + a * K.scale(scaling, ds_s, False)
            z = z + a * K.scale(scaling, dz_s, True)
    except np.linalg.LinAlgError as err:
        raise ConeProgramError(f"singular KKT system: {err}") from None
    raise ConeProgramError(
        f"no solution within {MAX_STEPS} steps: dual residual {_norm(rd):.3e}, "
        f"primal {_norm(rp):.3e}, equality {_norm(re):.3e}, gap {gap:.3e}"
    )
