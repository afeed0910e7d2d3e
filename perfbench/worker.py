"""One workload in one fresh process: import ucfw, build the inputs, run
whole rounds through ucfw's experiment entry points, check every output,
and print one JSON line of raw measurements for ``run.py``.

    python3 perfbench/worker.py --workload solve --seed 0 --out perfbench/out/solve --seconds 25 --trace 0
    python3 perfbench/worker.py --workload solve --seed 0 --out perfbench/out/solve --probe

``--probe`` stops after set-up and reports when set-up ended, so the parent
can time process start through input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# numpy, ucfw and checks are imported inside functions: the first import of
# numpy must fall inside the timed ``import ucfw``.


def _import_ucfw():
    """Import ucfw from the checkout's ``src`` and nowhere else."""
    src = HERE.parent / "src"
    if not (src / "ucfw" / "__init__.py").is_file():
        raise SystemExit(f"no ucfw sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    from ucfw import experiments

    return experiments, time.perf_counter() - t0


def _sub_seed(seed: int, k: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, one round = the same operations each time
# ---------------------------------------------------------------------------


class Fig2:
    """The paper's curved-vs-flat grid at its protocol.  Its inputs do not
    depend on the seed: the flat reference fault fails the same 12 of 30
    operations on every run."""

    DIM, HORIZON, RADIUS = 100, 1000, 5.0

    def __init__(self, ex, seed: int, out: Path):
        self.ex, self.out = ex, out
        self.optima: dict = {}

    def run(self, k: int) -> None:
        self.ex.run_fig2(self.out, seed=0, dim=self.DIM, horizon=self.HORIZON)

    def check(self, k: int) -> list[list[str]]:
        runs = checks.read_json(self.out / "manifest.json")["runs"]
        results = []
        for run in runs:
            key = (run["location"], run["p"])
            if key not in self.optima:
                cfg = self.ex.ExperimentConfig(
                    dim=self.DIM, horizon=self.HORIZON, seed=0, optimum_location=run["location"]
                )
                _, f = self.ex.build_problem(cfg, run["p"])
                self.optima[key] = checks.kkt_optimum(f.A, f.x0, run["p"], self.RADIUS)[1]
            csv = self.out / run["csv"]
            results.append(
                checks.check_fw_run(csv, csv.with_suffix(".json"), self.optima[key], run["rule"])
            )
        return _pad(results, 2 * 3 * 5)  # locations x rules x p


class Solve:
    """A fixed mix of lp-ball solve configs: every rule at d = 8, 100, 1000.
    x0 lies 1.5x past the enclosing l2 ball along a seeded direction, so the
    gradient floor c is positive and the reference stops within tens of
    steps; the deterministic rule runs its whole horizon."""

    # (dim, p, deterministic horizon); short and exact stop on the gap
    MIX = ((8, 3.0, 8000), (100, 2.5, 8000), (1000, 1.5, 4000))
    RULES = ("deterministic", "short", "exact")
    RADIUS = 1.0

    def __init__(self, ex, seed: int, out: Path):
        import numpy as np

        self.ex, self.out = ex, out
        rng = np.random.default_rng(seed)
        self.configs = []
        for dim, p, horizon in self.MIX:
            direction = rng.standard_normal(dim)
            enclosing = self.RADIUS * dim ** max(0.0, 0.5 - 1.0 / p)
            for rule in self.RULES:
                self.configs.append({
                    "set": {"family": "lp", "p": p, "radius": self.RADIUS, "dim": dim},
                    "objective": {
                        "family": "quadratic", "dim": dim, "cond": 100.0,
                        "x0_direction": direction.tolist(), "x0_scale": 1.5 * enclosing,
                    },
                    "rule": rule,
                    "T": horizon if rule == "deterministic" else 2000,
                    "seed": int(rng.integers(2**31)),
                })
        self.optima: dict = {}

    def run(self, k: int) -> None:
        for i, cfg in enumerate(self.configs):
            self.ex.run_solve(cfg, self.out / f"c{i}")

    def check(self, k: int) -> list[list[str]]:
        from ucfw.objectives import objective_from_json

        results = []
        for i, cfg in enumerate(self.configs):
            if i not in self.optima:
                f = objective_from_json(cfg["objective"])
                self.optima[i] = checks.kkt_optimum(f.A, f.x0, cfg["set"]["p"], self.RADIUS)[1]
            d = self.out / f"c{i}"
            results.append(checks.check_fw_run(d / "trace.csv", d / "trace.json", self.optima[i], cfg["rule"]))
        return results


class Online:
    """The FTL sweep (T = 1e4, d = 8, p in {2, 2.5, 3, 5}); each round
    draws a new adversarial stream seed from the run's seed."""

    T, DIM, P_GRID = 10_000, 8, (2.0, 2.5, 3.0, 5.0)

    def __init__(self, ex, seed: int, out: Path):
        self.ex, self.out, self.seed = ex, out, seed

    def run(self, k: int) -> None:
        self.ex.run_online_suite(
            self.out, seed=_sub_seed(self.seed, k), T=self.T, p_grid=self.P_GRID, dim=self.DIM
        )

    def check(self, k: int) -> list[list[str]]:
        import numpy as np
        from ucfw import online

        # the stream run_online_suite builds: base e1, flip scale 0.5
        base = np.zeros(self.DIM)
        base[0] = 1.0
        C = online.adversarial_stream(base, flip_scale=0.5, seed=_sub_seed(self.seed, k)).materialize(self.T)
        x1_dir = np.random.default_rng(online._X1_SEED).standard_normal(self.DIM)
        runs = checks.read_json(self.out / "manifest.json")["runs"]
        results = []
        for run in runs:
            x1 = -checks.lp_argmin(x1_dir[None, :], run["p"], 1.0)[0]
            results.append(checks.check_ftl_run(self.out / run["csv"], C, run["p"], 1.0, x1))
        return _pad(results, len(self.P_GRID))


class Verify:
    """The verification battery (14 positive checks, 4 negative controls);
    each round draws a new sampler seed from the run's seed."""

    def __init__(self, ex, seed: int, out: Path):
        self.ex, self.out, self.seed = ex, out, seed

    def run(self, k: int) -> None:
        self.ex.run_verify_all(self.out, seed=_sub_seed(self.seed, k))

    def check(self, k: int) -> list[list[str]]:
        report = checks.read_json(self.out / "verify_report.json")
        return checks.check_verify_report(report, n_positive=14, n_negative=4)


WORKLOADS = {"fig2": Fig2, "solve": Solve, "online": Online, "verify": Verify}


def _pad(results: list, expected: int) -> list:
    return results + [["missing output"]] * (expected - len(results))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def instrument(tracer) -> None:
    """Wrap each layer's public functions and methods, and the entry points
    the workloads call (as ``experiments`` spans).  ``experiments``
    imports ``run_fw``, ``reference_optimum``, ``run_ftl`` and
    ``line_plot_svg`` by value, so those names are patched there too."""
    from ucfw import bounds, experiments, geometry, objectives, online, solver, verify

    def n_rows(args, out):
        return len(args[0])

    for name in ("run_fig2", "run_solve", "run_online_suite", "run_verify_all"):
        tracer.patch(experiments, name, "experiments")

    for mod in (solver, experiments):
        tracer.patch(mod, "run_fw", "solver.run_fw", count=lambda args, out: len(out))
        tracer.patch(mod, "reference_optimum", "solver.reference_optimum")
    tracer.patch(solver, "exact_line_search", "solver.exact_line_search")
    tracer.patch(solver.RunTrace, "to_csv", "solver.to_csv", count=n_rows)
    tracer.patch(solver.RunTrace, "write_sidecar", "solver.write_sidecar")
    for cls in (geometry.LpBall, geometry.L1Ball, geometry.SchattenBall, geometry.LevelSet):
        for attr in ("lmo", "norm", "dual_norm", "membership_excess", "boundary_point"):
            tracer.patch(cls, attr, f"geometry.{attr}")
        for attr in ("batch_norm", "batch_membership_excess"):
            tracer.patch(cls, attr, "geometry.batch_norm", count=lambda args, out: args[1].size // args[0].dim)
    tracer.patch(objectives.QuadraticObjective, "value", "objectives.value")
    tracer.patch(objectives.QuadraticObjective, "gradient", "objectives.gradient")
    for mod in (online, experiments):
        tracer.patch(mod, "run_ftl", "online.run_ftl", count=lambda args, out: len(out))
    tracer.patch(online.OnlineTrace, "to_csv", "online.to_csv", count=n_rows)
    tracer.patch(verify, "sample_feasible", "verify.sample_feasible", count=lambda args, out: len(out))
    for name in ("check_definition1", "check_lemma1", "check_local_scaling", "check_lemma3"):
        tracer.patch(verify, name, f"verify.{name}")
    for name in ("theorem1_bound", "theorem2_bound", "theorem3_bound", "lemma3_distance_constant"):
        tracer.patch(bounds, name, "bounds")
    tracer.patch(bounds.RateBound, "evaluate", "bounds")
    tracer.patch(bounds.RecursionConstants, "evaluate", "bounds")
    tracer.patch(experiments, "line_plot_svg", "svg.line_plot_svg")


# (metric, span name, field of tracer.layer_table)
_SPAN_METRICS = [
    ("solver.reference_optimum.self_s", "solver.reference_optimum", "self_s"),
    ("solver.reference_optimum.incl_s", "solver.reference_optimum", "incl_s"),
    ("solver.exact_line_search.calls", "solver.exact_line_search", "calls"),
    ("solver.exact_line_search.self_s", "solver.exact_line_search", "self_s"),
    ("solver.run_fw.calls", "solver.run_fw", "calls"),
    ("solver.run_fw.iters", "solver.run_fw", "units"),
    ("solver.run_fw.self_s", "solver.run_fw", "self_s"),
    ("solver.to_csv.rows", "solver.to_csv", "units"),
    ("solver.to_csv.self_s", "solver.to_csv", "self_s"),
    ("solver.write_sidecar.self_s", "solver.write_sidecar", "self_s"),
    *[(f"geometry.{m}.{f}", f"geometry.{m}", f)
      for m in ("lmo", "norm", "dual_norm", "membership_excess", "boundary_point")
      for f in ("calls", "self_s")],
    ("geometry.batch_norm.points", "geometry.batch_norm", "outer_units"),
    ("geometry.batch_norm.self_s", "geometry.batch_norm", "self_s"),
    *[(f"objectives.{m}.{f}", f"objectives.{m}", f) for m in ("gradient", "value") for f in ("calls", "self_s")],
    ("online.run_ftl.rounds", "online.run_ftl", "units"),
    ("online.run_ftl.self_s", "online.run_ftl", "self_s"),
    ("online.to_csv.rows", "online.to_csv", "units"),
    ("online.to_csv.self_s", "online.to_csv", "self_s"),
    ("verify.sample_feasible.points", "verify.sample_feasible", "units"),
    ("verify.sample_feasible.self_s", "verify.sample_feasible", "self_s"),
    *[(f"verify.{c}.self_s", f"verify.{c}", "self_s")
      for c in ("check_definition1", "check_lemma1", "check_local_scaling", "check_lemma3")],
    ("bounds.self_s", "bounds", "self_s"),
    ("svg.line_plot_svg.self_s", "svg.line_plot_svg", "self_s"),
    ("experiments.self_s", "experiments", "self_s"),
]

# (metric, span name, numerator field, denominator field): microseconds per unit
_RATE_METRICS = [
    ("solver.run_fw.us_per_iter", "solver.run_fw", "incl_s", "units"),
    ("geometry.lmo.us_per_call", "geometry.lmo", "self_s", "calls"),
    ("online.run_ftl.us_per_round", "online.run_ftl", "incl_s", "units"),
]


def layer_metrics(tr) -> dict[str, float]:
    from tracer import child_calls, layer_table

    spans = tr.arrays()
    table = layer_table(tr.names, spans)
    empty = {"calls": 0, "units": 0, "outer_units": 0, "self_s": 0.0, "incl_s": 0.0}
    out = {m: table.get(span, empty)[f] for m, span, f in _SPAN_METRICS}
    for m, span, num, den in _RATE_METRICS:
        row = table.get(span, empty)
        out[m] = 1e6 * row[num] / row[den] if row[den] else 0.0
    out["solver.reference_optimum.lmo_calls"] = child_calls(
        tr.names, spans, "geometry.lmo", "solver.reference_optimum"
    )
    return out


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="measuring time; not needed with --probe")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds is None and not args.probe:
        ap.error("--seconds is required unless --probe")

    ex, import_s = _import_ucfw()
    global checks  # imported after ucfw, so import_s covers numpy and scipy
    import checks
    rounds_dir = args.out / "rounds"
    workload = WORKLOADS[args.workload](ex, args.seed, rounds_dir)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end, "import_s": import_s}
    if args.probe:
        print(json.dumps(result))
        return 0

    shutil.rmtree(rounds_dir, ignore_errors=True)
    walls, cpus, failures = [], [], []
    attempted = 0

    def check_round(k: int) -> None:
        nonlocal attempted
        for errors in workload.check(k):
            attempted += 1
            if errors:
                failures.append(errors[0])

    # whole rounds until the next one would run past --seconds (at least one)
    while not walls or sum(walls) + statistics.median(walls) <= args.seconds:
        t0, c0 = time.perf_counter(), time.process_time()
        workload.run(len(walls))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        check_round(len(walls) - 1)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        instrument(tracer)
        t0 = time.perf_counter()
        tracer.call("experiments", workload.run, 0)
        traced_wall = time.perf_counter() - t0
        tracer.restore()
        check_round(0)
        layers = layer_metrics(tracer)
        layers["experiments.bytes_written"] = _bytes_under(rounds_dir)
        layers["process.cpu_s"] = statistics.median(cpus)
        layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
        tracer.save(args.out / "spans.npz")
        result["layers"] = layers

    import numpy

    result.update(
        walls=walls,
        cpus=cpus,
        attempted=attempted,
        failed=len(failures),
        failures=sorted(set(failures))[:5],
        maxrss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        blas_threads={k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
