"""Checks of ucfw's outputs against computations made apart from it.

Nothing here imports ucfw: optima, FTL actions and regret are recomputed
with numpy from the problem data, so a fault in the program cannot hide in
its own checker.  Every checker returns a list of failure messages; an
empty list means the operation passed.
"""

from __future__ import annotations

import csv
import json

import numpy as np

F_STAR_RTOL = 1e-12  # sidecar f_star against the independent optimum
REGRET_RTOL = 1e-9  # FTL columns against the independent recomputation
VERIFY_DEFAULT_TOL = 1e-9  # check_lemma3's tolerance, which its report omits


def read_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def dual_exponent(p: float) -> float:
    return p / (p - 1.0)


def lp_norms(X: np.ndarray, p: float) -> np.ndarray:
    """lp norms along the last axis, max-scaled so extreme p stays finite."""
    a = np.abs(np.asarray(X, dtype=float))
    m = a.max(axis=-1, keepdims=True)
    safe = np.where(m == 0.0, 1.0, m)
    return m[..., 0] * (((a / safe) ** p).sum(axis=-1)) ** (1.0 / p)


def lp_argmin(S: np.ndarray, p: float, r: float) -> np.ndarray:
    """Row-wise argmin of <s, x> over the lp ball of radius r (Hoelder
    equality): x = -r sign(s) |s|^(p*-1) / ||s||_{p*}^(p*-1)."""
    S = np.asarray(S, dtype=float)
    ps = dual_exponent(p)
    a = np.abs(S)
    m = a.max(axis=-1, keepdims=True)
    w = (a / m) ** (ps - 1.0)
    scale = (w**p).sum(axis=-1, keepdims=True) ** (1.0 / p)
    return -r * np.where(S >= 0.0, 1.0, -1.0) * w / scale


# ---------------------------------------------------------------------------
# Frank-Wolfe optima and traces
# ---------------------------------------------------------------------------


def kkt_optimum(a: np.ndarray, x0: np.ndarray, p: float, r: float) -> tuple[np.ndarray, float]:
    """Minimiser of f(x) = 1/2 sum a_i (x_i - x0_i)^2 over ||x||_p <= r.

    * x0 inside the ball: x* = x0 and f* = 0.
    * x0 on one axis: x* = r sign(x0_i) e_i in closed form.
    * otherwise: the KKT system a_i (b_i - y_i) = mu y_i^(p-1), b = |x0|,
      sum y_i^p = r^p.  For fixed mu each y_i is a monotone scalar root
      (bisection to the last bit); sum y(mu)^p falls monotonically in mu,
      so an outer bisection on log mu finds the boundary.  The returned x
      is the feasible side of the final bracket.
    """
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    b = np.abs(x0)
    sign = np.where(x0 >= 0.0, 1.0, -1.0)

    def f(x):
        return 0.5 * float(np.dot(a, (x - x0) ** 2))

    if lp_norms(x0, p) <= r:
        return x0.copy(), 0.0
    support = np.flatnonzero(b)
    if len(support) == 1:
        x = np.zeros_like(x0)
        x[support[0]] = r * sign[support[0]]
        return x, f(x)

    def y_of(mu):
        lo, hi = np.zeros_like(b), b.copy()
        for _ in range(1100):
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                break
            pos = a * (b - mid) > mu * mid ** (p - 1.0)
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
        return lo

    rp = r**p
    t_lo, t_hi = -80.0, 80.0  # log mu; y(e^-80) ~ b, y(e^80) ~ 0
    for _ in range(200):
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid in (t_lo, t_hi):
            break
        if float(np.sum(y_of(np.exp(t_mid)) ** p)) > rp:
            t_lo = t_mid
        else:
            t_hi = t_mid
    x = sign * y_of(np.exp(t_hi))
    return x, f(x)


def check_fw_run(csv_path, sidecar_path, f_opt: float, rule: str) -> list[str]:
    """One Frank-Wolfe run against its independent optimum f_opt.

    * the sidecar's f_star lies within 1e-12 max(1, |f_opt|) of f_opt;
    * fw_gap bounds the true primal gap (Jaggi's certificate) on every row,
      up to rounding of f(x_t);
    * min_fw_gap is the running minimum of fw_gap;
    * deterministic steps are 1/(t+1), and the last row takes no step.
    """
    cols = read_csv(csv_path)
    meta = read_json(sidecar_path)
    errors = []
    t = cols["t"]
    if not np.array_equal(t, np.arange(len(t))) or meta.get("stopped_at") != len(t) - 1:
        errors.append("rows are not t = 0..stopped_at")
    f_star = meta.get("f_star")
    if f_star is None or not abs(f_star - f_opt) <= F_STAR_RTOL * max(1.0, abs(f_opt)):
        errors.append(f"f_star {f_star!r} is not the optimum {f_opt!r}")
        f_star = f_opt if f_star is None else f_star
    gap = cols["fw_gap"]
    f_x = cols["primal_gap"] + f_star
    true_gap = f_x - f_opt
    slack = F_STAR_RTOL * np.maximum(1.0, np.maximum(abs(f_opt), np.abs(f_x)))
    bad = ~(gap >= true_gap - slack)  # NaN counts as bad
    if bad.any():
        i = int(np.argmax(bad))
        errors.append(f"fw_gap {gap[i]!r} < true primal gap {true_gap[i]!r} at t={i}")
    if not np.array_equal(cols["min_fw_gap"], np.minimum.accumulate(gap)):
        errors.append("min_fw_gap is not the running minimum of fw_gap")
    gamma = cols["gamma"]
    if rule == "deterministic" and not np.array_equal(gamma[:-1], 1.0 / (t[:-1] + 1.0)):
        errors.append("deterministic steps are not 1/(t+1)")
    if gamma[-1] != 0.0:
        errors.append("last row takes a step")
    return errors


# ---------------------------------------------------------------------------
# Follow-The-Leader regret
# ---------------------------------------------------------------------------


def ftl_columns(C: np.ndarray, p: float, r: float, x1: np.ndarray) -> dict[str, np.ndarray]:
    """FTL on the lp ball from the loss vectors C alone: x_1 = x1, x_t =
    argmin <S_{t-1}, x>, regret_t = sum_{s<=t} <c_s, x_s> + r ||S_t||_{p*}."""
    C = np.asarray(C, dtype=float)
    S = np.cumsum(C, axis=0)
    X = np.empty_like(C)
    X[0] = x1
    prev = S[:-1]
    zero = ~prev.any(axis=1)
    X[1:] = np.where(zero[:, None], x1, lp_argmin(np.where(zero[:, None], 1.0, prev), p, r))
    loss = np.einsum("ij,ij->i", C, X)
    t = np.arange(1, len(C) + 1, dtype=float)
    ps = dual_exponent(p)
    return {
        "loss": loss,
        "cum_grad_dual_norm": lp_norms(S / t[:, None], ps),
        "regret": np.cumsum(loss) + r * lp_norms(S, ps),
    }


def check_ftl_run(csv_path, C: np.ndarray, p: float, r: float, x1: np.ndarray) -> list[str]:
    """One FTL run: loss, running dual norm and regret columns agree with
    the recomputation to 1e-9 relative, L_T > 0, and regret stays under
    the Theorem-4 bound column."""
    cols = read_csv(csv_path)
    mine = ftl_columns(C, p, r, x1)
    errors = []
    if not np.array_equal(cols["t"], np.arange(1, len(C) + 1)):
        return ["rounds are not t = 1..T"]
    for name, ref in mine.items():
        got = cols[name]
        bad = ~(np.abs(got - ref) <= REGRET_RTOL * np.maximum(1.0, np.abs(ref)))
        if bad.any():
            i = int(np.argmax(bad))
            errors.append(f"{name} {got[i]!r} != {ref[i]!r} at t={i + 1}")
    if not cols["cum_grad_dual_norm"].min() > 0.0:
        errors.append("L_T is not positive")
    if "bound" not in cols:
        errors.append("no bound column")
    elif not np.all(cols["regret"] <= cols["bound"]):
        i = int(np.argmax(~(cols["regret"] <= cols["bound"])))
        errors.append(f"regret {cols['regret'][i]!r} exceeds bound {cols['bound'][i]!r} at t={i + 1}")
    return errors


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def check_verify_report(report: dict, n_positive: int, n_negative: int) -> list[list[str]]:
    """One failure list per expected check report: each positive check
    passes; each negative control reports a violation above its tolerance.
    Missing reports count as failed."""
    out = []
    positives = report.get("positive", [])
    negatives = report.get("negative", [])
    for i in range(n_positive):
        if i >= len(positives):
            out.append(["missing positive report"])
            continue
        rep = positives[i]
        out.append([] if rep["pass"] is True else [f"{rep['check']} on {rep['config'].get('set')} failed"])
    for i in range(n_negative):
        if i >= len(negatives):
            out.append(["missing negative control"])
            continue
        rep = negatives[i]
        tol = rep["config"].get("tol", VERIFY_DEFAULT_TOL)
        ok = rep["pass"] is False and rep["worst_violation"] > tol
        out.append([] if ok else [f"control {rep['config'].get('control')} found no violation"])
    return out
