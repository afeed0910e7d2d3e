"""Experiment drivers: single solves from JSON configs, the curved-vs-flat
lp-ball grid, the online regret sweep, the recursion-soundness grid, and
the full geometric verification battery.

Every driver writes CSV traces plus a JSON manifest (written last) into an
output directory; reruns with the same config and seed are byte-identical.
Each Frank-Wolfe or FTL run writes its files and returns one record
(:func:`write_fw_run`, :func:`ftl_experiment`), which the manifest holds as
written.  fig2's stacks and the online suite's runs go to one forked child
per usable CPU (:func:`_map_runs`), which inherits its jobs and sends back
one pickle of results; no process pool is imported.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import verify as vf
from .errors import ConfigError, UCFWError
from .geometry import (
    FeasibleSet,
    L1Ball,
    LevelSet,
    LpBall,
    SchattenBall,
    UCParams,
    _json_int,
    _write_json,
    set_from_json,
)
from .objectives import QuadraticObjective, grad_floor_quadratic, objective_from_json, quadratic_from_descriptor
from .online import adversarial_stream, run_ftl, stream_from_json
from .solver import StepRule, reference_optimum, run_fw, run_fw_stack, x_init_for
from .svg import line_plot_svg

__all__ = [
    "ExperimentConfig",
    "fit_loglog_slope",
    "problem_constants",
    "write_fw_run",
    "ftl_experiment",
    "run_solve",
    "run_fig2",
    "run_online_suite",
    "run_bounds_grid",
    "run_verify_all",
    "run_suite",
]

# the curved-vs-flat protocol: a quadratic with condition number 100 over lp
# balls of radius 5, with ||x0||_2 = 3 radii.  The curved x0 lies along the
# ones vector, so at d = 100 it is outside the ball only for p in {2.5, 3}:
# for p >= 5, ||x0||_p < 5, so x* = x0 and c = 0.  The flat x0 = 15 e1 lies
# at l2 distance 10 from every ball, so c = 10 at every p
FIG2_P_GRID = (2.5, 3.0, 5.0, 7.0, 10.0)
FIG2_COND = 100.0
FIG2_RADIUS = 5.0
FIG2_X0_SCALE_FACTOR = 3.0
STEP_RULES = {"deterministic": StepRule.deterministic(), "short": StepRule.short(), "exact": StepRule.exact()}


def fit_loglog_slope(t, y, t_min: float, t_max: float) -> float:
    """Least-squares slope of log10(y) against log10(t) over a window; NaN
    with fewer than 2 points in it."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (t >= t_min) & (t <= t_max) & (t > 0) & (y > 0) & np.isfinite(y)
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log10(t[keep]), np.log10(y[keep]), 1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """One optimum location of the curved-vs-flat grid (defaults reproduce
    the protocol; its other constants are the ``FIG2_*`` module constants)."""

    dim: int = 100
    horizon: int = 1000
    seed: int = 0
    optimum_location: str = "curved"  # "curved" | "flat"

    def __post_init__(self) -> None:
        if self.optimum_location not in ("curved", "flat"):
            raise ConfigError(f"unknown optimum_location {self.optimum_location!r}")
        if self.horizon < 1 or self.dim < 2:
            raise ConfigError("need horizon >= 1 and dim >= 2")


def build_problem(cfg: ExperimentConfig, p: float) -> tuple[LpBall, QuadraticObjective]:
    direction = "ones" if cfg.optimum_location == "curved" else "e1"
    feasible = LpBall(p=p, radius=FIG2_RADIUS, dim=cfg.dim)
    objective = quadratic_from_descriptor(
        dim=cfg.dim,
        cond=FIG2_COND,
        x0_direction=direction,
        x0_scale=FIG2_X0_SCALE_FACTOR * FIG2_RADIUS,
    )
    return feasible, objective


def problem_constants(feasible: FeasibleSet, f: QuadraticObjective) -> dict:
    """Theorem constants in the set's norm pair: gradient floor c (dual
    norm), the converted smoothness constant L and, when the set has them,
    its catalog (alpha, q)."""
    consts = {"c": grad_floor_quadratic(f, feasible), "L": f.L * feasible.norm_equivalence().smoothness}
    uc = feasible.uc
    if uc is not None:
        consts.update(alpha=uc.alpha, q=uc.q)
    return consts


def write_fw_run(
    trace, feasible: FeasibleSet, f: QuadraticObjective, certificate: float, out_dir: Path, stem: str,
    sidecar: dict | None = None,
) -> dict:
    """Write one traced run against a reference optimum whose certificate
    :func:`~ucfw.solver.reference_optimum` gave: its bound overlays as extra columns of
    ``<stem>.csv``, and its metadata, the certificate and the ``sidecar``
    keys in ``<stem>.json``.  Returns the run's record: its CSV, rows, stop,
    final running-min Frank-Wolfe gap and the reference's certificate.

    Bound curves attach only to short-step / exact-line-search runs with
    primal gaps; the T2 curve anchors at the first iteration with h_t <= 1.
    """
    extra: dict[str, np.ndarray] = {}
    # a set with no (alpha, q), such as the l-infinity ball, gets no overlays
    rule_name = trace.metadata["step_rule"]
    if rule_name in ("short", "exact") and feasible.uc is not None and trace.has_primal_gaps:
        consts = problem_constants(feasible, f)
        h0 = float(trace.primal_gap[0])
        ts = trace.t.astype(float)
        if consts["c"] > 0.0 and h0 > 0.0:
            b1 = bnd.theorem1_bound(consts["c"], consts["alpha"], consts["q"], consts["L"], h0)
            extra["bound_t1"] = np.asarray(b1.evaluate(ts), dtype=float)
            burn = np.flatnonzero(trace.primal_gap <= 1.0)
            if len(burn):
                anchor = int(burn[0])
                b2 = bnd.theorem2_bound(
                    consts["c"], consts["alpha"], consts["q"], consts["L"],
                    float(trace.primal_gap[anchor]),
                )
                col = np.full_like(ts, np.inf)
                col[anchor:] = np.asarray(b2.evaluate(ts[anchor:] - anchor), dtype=float)
                extra["bound_t2"] = col
                trace.metadata["t2_anchor"] = anchor
        if h0 > 0.0:
            # ||x|| <= heb ||x||_2 carries the Euclidean error bound to the set's norm
            mu_heb = f.heb.mu_heb * feasible.norm_equivalence().heb
            b3 = bnd.theorem3_bound(consts["alpha"], consts["q"], mu_heb, f.heb.theta, consts["L"], h0)
            extra["bound_t3"] = np.asarray(b3.evaluate(ts), dtype=float)
        trace.metadata["constants"] = consts
    trace.metadata["f_star_certificate"] = certificate
    trace.metadata.update(sidecar or {})
    trace.to_csv(out_dir / f"{stem}.csv", extra_columns=extra)
    trace.write_sidecar(out_dir / f"{stem}.json")
    return {
        "csv": f"{stem}.csv",
        "rows": len(trace),
        "stopped_at": trace.metadata["stopped_at"],
        "final_min_fw_gap": float(trace.min_fw_gap[-1]),
        "f_star_certificate": certificate,
    }


def run_solve(config: dict, out_dir) -> dict:
    """`solve --config` entry: one run from a JSON problem description."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        feasible = set_from_json(config["set"])
        objective = objective_from_json(config["objective"])
    except KeyError as exc:
        raise ConfigError(f"solve config missing field {exc}") from exc
    rule_name = config.get("rule", "short")
    if not isinstance(rule_name, str) or rule_name not in STEP_RULES:
        raise ConfigError(f"rule must be one of {', '.join(STEP_RULES)}, got {rule_name!r}")
    T = _json_int(config.get("T", 1000), "T", 1)
    seed = _json_int(config.get("seed", 0), "seed", 0)
    stop_gap = config.get("stop_gap", 1e-12)
    if isinstance(stop_gap, bool) or not isinstance(stop_gap, numbers.Real) or not 0.0 <= stop_gap < math.inf:
        raise ConfigError(f"stop_gap must be a finite number >= 0, got {stop_gap!r}")
    stop_gap = float(stop_gap)
    if not isinstance(feasible, LpBall):
        raise ConfigError("solve currently drives lp-ball problems")
    if objective.x0.size != feasible.dim:
        raise ConfigError(f"objective dim {objective.x0.size} does not match set dim {feasible.dim}")

    _, f_star, certificate = reference_optimum(feasible, objective)
    trace = run_fw(
        feasible, objective, x_init_for(feasible, seed), STEP_RULES[rule_name], T, stop_gap=stop_gap, f_star=f_star
    )
    record = write_fw_run(trace, feasible, objective, certificate, out_dir, "trace", {"config": config})
    manifest = {"files": ["trace.csv", "trace.json"], **record}
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


def _fig2_stack(job: tuple) -> list[tuple[dict, tuple]]:
    """One contiguous stack of (location, rule, p) runs of the
    curved-vs-flat protocol, each with its built problem and reference: the
    runs in lockstep (:func:`run_fw_stack`), then each run's trace with
    bound overlays, CSV and sidecar.  Returns each run's record and its
    running-min gap series for the plot, in run order."""
    runs, out_dir = job
    problems = [
        (feasible, f, x_init_for(feasible, cfg.seed), STEP_RULES[rule_name], f_star)
        for cfg, rule_name, p, feasible, f, (_, f_star, _) in runs
    ]
    horizon = runs[0][0].horizon
    results = []
    for (cfg, rule_name, p, feasible, f, (_, _, certificate)), trace in zip(runs, run_fw_stack(problems, horizon)):
        record = write_fw_run(
            trace, feasible, f, certificate, out_dir, f"{cfg.optimum_location}_{rule_name}_p{p:g}"
        )
        min_gap = trace.min_fw_gap
        slope = fit_loglog_slope(trace.t, min_gap, 10, horizon)
        record.update(
            location=cfg.optimum_location,
            rule=rule_name,
            p=p,
            min_gap_slope=slope if math.isfinite(slope) else None,  # null: fewer than 2 points to fit
        )
        results.append((record, (f"p={p:g}", trace.t[1:], min_gap[1:])))
    return results


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(fn, jobs: list, first: int, step: int, write_end: int) -> None:
    """A forked child's whole life: run jobs ``first``, ``first + step``, …,
    which it inherited through the fork, and send one pickle down
    ``write_end``: ``(None, results)``, or ``(index, exception)`` for the
    first job that raised.  It leaves through ``os._exit``, never back into
    the parent's stack, so it exits without a result if anything here
    fails."""
    status = 1
    try:
        results, failure = [], None
        for i in range(first, len(jobs), step):
            try:
                results.append(fn(jobs[i]))
            except Exception as exc:
                failure = (i, exc)
                break
        data = pickle.dumps(failure or (None, results))
        with open(write_end, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _map_runs(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, spread over one forked child per usable
    CPU: child w runs jobs w, w + n, w + 2n, … of n children and sends its
    results back through its own pipe (:func:`_run_share`).  No job is
    pickled.  With one CPU, without ``os.fork``, or while other Python
    threads run (forking them is unsafe), builtin ``map`` runs the jobs
    here.

    Every child is reaped before this returns or raises.  A job's exception
    reaches the caller as raised; when several jobs raised, the one with the
    lowest index wins, as with ``map``.  A child that ended without a
    result (a signal, ``os._exit``, a pickle that does not load) is a
    :class:`UCFWError` naming its exit status, raised first, since nothing
    is known of its jobs."""
    jobs = list(jobs)
    workers = min(usable_cpus(), len(jobs))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return list(map(fn, jobs))
    children: list[tuple[int, int]] = []  # (pid, read end)
    sent: list[bytes] = []
    statuses: list[int] = []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _run_share(fn, jobs, w, workers, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as fh:
                sent.append(fh.read())
    finally:
        for pid, read_end in children:
            os.close(read_end)
            statuses.append(os.waitpid(pid, 0)[1])

    results: list = [None] * len(jobs)
    failures = []
    for w, ((pid, _), data, status) in enumerate(zip(children, sent, statuses)):
        try:
            index, value = pickle.loads(data)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise UCFWError(f"worker process {pid} ended without a result ({how})") from None
        if index is None:
            results[w::workers] = value
        else:
            failures.append((index, value))
    if failures:
        raise min(failures)[1]  # job indices differ, so no two exceptions are compared
    return results


def run_fig2(out_dir, seed: int = 0, dim: int = 100, horizon: int = 1000) -> dict:
    """The full 2x3 grid (curved/flat x deterministic/short/exact) over the
    default p grid, with one SVG of running-min gaps per location and step
    rule.

    Each (location, p) problem and its reference optimum are built first,
    once.  The 30 runs share nothing else.  They are put in (p, location,
    rule) order, so each p's six runs over one set sit together, and cut
    into one contiguous stack per usable CPU (two stacks of 15 on 2 CPUs,
    one of 30 on 1).  Each stack, from its problems to its CSVs and
    sidecars, runs as one job on its own forked child (:func:`_fig2_stack`,
    :func:`_map_runs`), which inherits the built problems, in lockstep,
    with one stacked LMO call per p and iteration.  The plots and
    then the manifest are written here afterwards, in (location, rule, p)
    order.  Every run's trace equals its :func:`run_fw` trace bit for bit,
    so no output depends on the number of CPUs, and a manifest exists only
    once every file does.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfgs = [
        ExperimentConfig(dim=dim, horizon=horizon, seed=seed, optimum_location=location)
        for location in ("curved", "flat")
    ]
    built = {}
    for cfg in cfgs:
        for p in FIG2_P_GRID:
            feasible, f = build_problem(cfg, p)
            built[cfg.optimum_location, p] = (feasible, f, reference_optimum(feasible, f))
    runs = [
        (cfg, rule_name, p, *built[cfg.optimum_location, p])
        for p in FIG2_P_GRID for cfg in cfgs for rule_name in STEP_RULES
    ]
    n = min(usable_cpus(), len(runs))
    cuts = [len(runs) * s // n for s in range(n + 1)]
    jobs = [(runs[a:b], out_dir) for a, b in zip(cuts, cuts[1:])]
    results = {
        (record["location"], record["rule"], record["p"]): (record, line)
        for stack in _map_runs(_fig2_stack, jobs) for record, line in stack
    }

    manifest: dict = {"suite": "fig2", "files": [], "runs": []}
    for cfg in cfgs:
        for rule_name in STEP_RULES:
            series = []
            for p in FIG2_P_GRID:
                record, line = results[cfg.optimum_location, rule_name, p]
                manifest["files"].extend([record["csv"], record["csv"].removesuffix(".csv") + ".json"])
                manifest["runs"].append(record)
                series.append(line)
            svg_name = f"{cfg.optimum_location}_{rule_name}.svg"
            svg = line_plot_svg(
                series,
                title=f"{cfg.optimum_location} optimum, {rule_name} step",
                xlabel="iteration",
                ylabel="min Frank-Wolfe gap",
            )
            (out_dir / svg_name).write_text(svg)
            manifest["files"].append(svg_name)
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


def ftl_experiment(feasible: FeasibleSet, stream, T: int, out_dir: Path, csv_name: str) -> dict:
    """FTL for T rounds against ``stream``, with its Theorem-4 bound when
    the set has (alpha, q) and L_T > 0, written to ``out_dir / csv_name``.
    Returns the run's record; with a bound it holds the bound's last value
    and ``pass``, whether the regret stays under the bound."""
    trace = run_ftl(feasible, stream, T)
    record = {
        "csv": csv_name,
        "T": T,
        "final_regret": float(trace.regret[-1]),
        "L_T": trace.L_T,
        "M_loss": trace.M_loss,
        "degenerate": trace.degenerate,
    }
    uc, bound = feasible.uc, None
    if uc is not None and not trace.degenerate:
        bound = trace.bound_curve(uc.alpha, uc.q)
        record["final_bound"] = float(bound[-1])
        record["pass"] = bool(np.all(trace.regret <= bound + 1e-9))
    trace.to_csv(out_dir / csv_name, bound=bound)
    return record


def _online_run(job: tuple) -> dict:
    """One p of the online suite: FTL on its unit lp ball against the
    adversarial stream, its Theorem-4 bound and its CSV.  Returns the run's
    record."""
    p, feasible, T, seed, out_dir = job
    base = np.zeros(feasible.dim)
    base[0] = 1.0
    stream = adversarial_stream(base, flip_scale=0.5, seed=seed)
    record = ftl_experiment(feasible, stream, T, out_dir, f"online_p{p:g}.csv")
    uc = feasible.uc
    return {**record, "p": p, "q": uc.q, "alpha": uc.alpha}


def run_online_suite(
    out_dir, seed: int = 0, T: int = 10000, p_grid=(2.0, 2.5, 3.0, 5.0), dim: int = 8
) -> dict:
    """FTL regret sweep over lp balls with an adversarial stream whose
    running gradient average stays bounded below.

    Each p's unit ball is built here first.  A p whose ball has no (alpha,
    q), and so no Theorem-4 bound, or two p that would write one CSV, are a
    :class:`ConfigError` before any run starts.  The p runs share nothing
    else, so each one, from its stream to its CSV, runs as one job on a
    forked child (:func:`_map_runs`).  The manifest is written here
    afterwards, in p order, so no output depends on the number of CPUs.
    Its ``pass`` is false if any run's regret leaves its bound.
    """
    out_dir = Path(out_dir)
    jobs, csvs = [], set()
    for p in p_grid:
        feasible = LpBall(p=p, radius=1.0, dim=dim)
        if feasible.uc is None:
            raise ConfigError(f"the p = {p:g} ball has no (alpha, q), so its run would have no Theorem-4 bound")
        if (csv := f"online_p{p:g}.csv") in csvs:
            raise ConfigError(f"p_grid repeats p = {p:g}: two runs would write {csv}")
        csvs.add(csv)
        jobs.append((p, feasible, T, seed, out_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = _map_runs(_online_run, jobs)
    manifest = {
        "suite": "online",
        "files": [run["csv"] for run in runs],
        "runs": runs,
        "pass": all(run.get("pass", True) for run in runs),
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


def run_bounds_grid(out_dir, steps: int = 100_000) -> dict:
    """Recursion-soundness grid: the brute-force worst-case trajectory
    against the closed-form envelope for every (eta, C, h0) combination."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    etas = np.round(np.linspace(0.1, 1.0, 10), 10)
    Cs = np.array([0.01, 0.1, 1.0])
    h0s = np.array([0.5, 1.0, 10.0])
    eg, cg, hg = np.meshgrid(etas, Cs, h0s, indexing="ij")
    traj = bnd.iterate_recursion(eg, cg, hg, steps)  # (steps+1, 10, 3, 3)
    t = np.arange(steps + 1, dtype=float)

    worst_excess = -np.inf
    results = []
    for i in range(eg.shape[0]):
        for j in range(eg.shape[1]):
            for m in range(eg.shape[2]):
                rc = bnd.RecursionConstants(float(eg[i, j, m]), float(cg[i, j, m]), float(hg[i, j, m]))
                curve = rc.evaluate(t)
                excess = float(np.max(traj[:, i, j, m] - curve))
                worst_excess = max(worst_excess, excess)
                results.append(
                    {
                        "eta": float(eg[i, j, m]),
                        "C": float(cg[i, j, m]),
                        "h0": float(hg[i, j, m]),
                        "k": rc.k,
                        "M": rc.M_rate,
                        "max_excess": excess,
                    }
                )
    manifest = {
        "suite": "bounds_grid",
        "steps": steps,
        "grid_size": len(results),
        "worst_excess": worst_excess,
        "pass": bool(worst_excess < 1e-12),
        "results": results,
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def catalog_sets() -> list[tuple[str, FeasibleSet]]:
    return [
        ("lp_1.5_r1", LpBall(p=1.5, radius=1.0, dim=8)),
        ("lp_2_r1", LpBall(p=2.0, radius=1.0, dim=8)),
        ("lp_3_r1", LpBall(p=3.0, radius=1.0, dim=8)),
        ("lp_3_r5", LpBall(p=3.0, radius=5.0, dim=8)),
        ("lp_5_r1", LpBall(p=5.0, radius=1.0, dim=8)),
        ("schatten_2.5", SchattenBall(p=2.5, rows=3, cols=3, radius=1.0)),
        ("levelset_sqnorm_w4", LevelSet(w=4.0, dim=6)),
    ]


def _ball_quadratic(feasible: FeasibleSet) -> QuadraticObjective:
    """1/2 ||x - x0||_2^2 with x0 three times the set's boundary point along
    the ones direction, so ||x0|| = 3 radii in the set's own norm and x0 lies
    outside it."""
    dim = feasible.dim
    return QuadraticObjective(A=np.ones(dim), x0=3.0 * feasible.boundary_point(np.ones(dim)))


def run_check(check: str, feasible: FeasibleSet, uc: UCParams, cfg: vf.SamplerConfig) -> vf.CheckReport:
    """One positive check as ``ucfw verify`` and :func:`run_verify_all` run it.

    lemma1, local_scaling and lemma3 take the set's ball quadratic.  The
    last two measure against its reference optimum
    (:func:`~ucfw.solver.reference_optimum`, which depends on the set and
    the quadratic alone).  lemma3 reads a 2000-step short-step run from
    ``x_init_for`` at the sampler seed, whose primal gaps are taken against
    f* less its certificate, a lower bound on the true optimum, with ``uc``
    and the quadratic's c and L in the set's norm pair from
    :func:`problem_constants`.  In every family here the
    ones vector attains Hoelder's equality <x, x> = ||x|| ||x||_*, so the
    quadratic's x0 gives c > 0 on every set.
    """
    if check == "definition1":
        return vf.check_definition1(feasible, uc, cfg)
    if check not in ("lemma1", "local_scaling", "lemma3"):
        raise ConfigError(f"unknown check {check!r}")
    f = _ball_quadratic(feasible)
    if check == "lemma1":
        return vf.check_lemma1(feasible, uc, f, cfg)
    x_star, f_star, certificate = reference_optimum(feasible, f)
    if check == "local_scaling":
        return vf.check_local_scaling(feasible, f, x_star, uc.alpha, uc.q, cfg)
    trace = run_fw(feasible, f, x_init_for(feasible, cfg.seed), StepRule.short(), 2000, f_star=f_star - certificate)
    consts = problem_constants(feasible, f)
    return vf.check_lemma3(trace, consts["c"], uc.alpha, uc.q, consts["L"])


def run_verify_all(out_dir, seed: int = 0, n_pairs: int = 1000) -> dict:
    """Every positive check on the catalog plus the four negative controls
    (which must fail)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = vf.SamplerConfig(n_pairs=n_pairs, seed=seed)
    positives: list[vf.CheckReport] = []
    negatives: list[vf.CheckReport] = []

    # every set's Definition 1, every lp ball's Lemma 1, then local scaling
    # and the distance control on a curved-optimum l3 problem
    ball3 = LpBall(p=3.0, radius=1.0, dim=8)
    runs = [("definition1", name, feasible) for name, feasible in catalog_sets()]
    runs += [("lemma1", name, feasible) for name, feasible in catalog_sets() if isinstance(feasible, LpBall)]
    runs += [("local_scaling", "lp_3_r1", ball3), ("lemma3", "lp_3_r1", ball3)]
    for check, name, feasible in runs:
        rep = run_check(check, feasible, feasible.uc_params(), cfg)
        rep.config["set"] = name
        positives.append(rep)

    # negative controls: each check with a configuration known to violate it
    neg_cfg = vf.SamplerConfig(n_pairs=n_pairs, seed=seed, boundary_bias=1.0)
    inflated = UCParams(alpha=2.0, q=3.0)
    rep = vf.check_definition1(LpBall(p=3.0, radius=1.0, dim=8), inflated, neg_cfg)
    rep.config["control"] = "inflated_alpha_l3"
    negatives.append(rep)

    diamond = L1Ball(radius=1.0, dim=2)
    f_flat = QuadraticObjective(A=np.ones(2), x0=np.array([2.0, 2.0]))
    fake_uc = UCParams(alpha=0.1, q=2.0)
    rep = vf.check_lemma1(diamond, fake_uc, f_flat, neg_cfg)
    rep.config["control"] = "l1_flat_face_lemma1"
    negatives.append(rep)

    xs_flat, fs_flat, _ = reference_optimum(diamond, f_flat)
    rep = vf.check_local_scaling(diamond, f_flat, xs_flat, 0.5, 2.0, neg_cfg)
    rep.config["control"] = "l1_flat_face_local_scaling"
    negatives.append(rep)

    trace_flat = run_fw(diamond, f_flat, np.array([1.0, 0.0]), StepRule.short(), 1500, f_star=fs_flat)
    rep = vf.check_lemma3(trace_flat, c=1.0, alpha=0.25, q=2.0, L=1.0)
    rep.config["control"] = "l1_flat_face_lemma3"
    negatives.append(rep)

    report = {
        "suite": "verify_all",
        "positive": [json.loads(r.to_json()) for r in positives],
        "negative": [json.loads(r.to_json()) for r in negatives],
        "pass": bool(
            all(r.passed for r in positives) and all(not r.passed for r in negatives)
        ),
    }
    _write_json(out_dir / "verify_report.json", report)
    manifest = {"suite": "verify_all", "files": ["verify_report.json"], "pass": report["pass"]}
    _write_json(out_dir / "manifest.json", manifest)
    return report


def run_suite(tag: str, out_dir, seed: int = 0) -> dict:
    if tag == "fig2":
        return run_fig2(out_dir, seed=seed)
    if tag == "online":
        return run_online_suite(out_dir, seed=seed)
    if tag == "verify_all":
        return run_verify_all(out_dir, seed=seed)
    if tag == "bounds_grid":
        return run_bounds_grid(out_dir)
    raise ConfigError(f"unknown suite tag {tag!r}")


def run_online_config(config: dict, out_dir) -> dict:
    """`online --config` entry: one FTL run from JSON descriptors."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        feasible = set_from_json(config["set"])
        stream = stream_from_json(config["stream"])
    except KeyError as exc:
        raise ConfigError(f"online config missing field {exc}") from exc
    T = _json_int(config.get("T", 1000), "T", 1)
    manifest = {"files": ["online.csv"], **ftl_experiment(feasible, stream, T, out_dir, "online.csv")}
    _write_json(out_dir / "manifest.json", manifest)
    return manifest
