"""ucfw benchmark: run workloads, each in its own fresh process, and print
every metric by name with its unit.

    python3 perfbench/run.py                      # all four workloads in turn
    python3 perfbench/run.py --workload online --seed 3 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones, from a separate traced round.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

This process imports neither numpy nor ucfw.  It starts ``worker.py``
several times to time set-up (process start through ``import ucfw`` and
input generation) and once to run the workload, one process at a time,
with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fig2", "solve", "online", "verify")
SETUP_PROBES = 6  # set-up-only processes per run, besides the workload process
WORKER_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)  # the worker imports ucfw from src/ only
    return env


def _worker(args: list[str]) -> tuple[float, dict]:
    """Run worker.py to completion; return its start time and its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.monotonic()
    try:
        done = subprocess.run(
            cmd, env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return start, json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    out = HERE / "out" / name
    base = ["--workload", name, "--seed", str(seed), "--out", str(out)]
    setups, imports = [], []

    def setup_sample(start: float, report: dict) -> None:
        setups.append(report["setup_end"] - start)
        imports.append(report["import_s"])

    # probes before and after the workload spread the samples over the run,
    # so a slow spell of the machine shifts few of them
    for _ in range(SETUP_PROBES // 2):
        setup_sample(*_worker([*base, "--probe"]))
    start, rep = _worker([*base, "--seconds", str(seconds), "--trace", str(int(trace))])
    setup_sample(start, rep)
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        setup_sample(*_worker([*base, "--probe"]))

    if trace:
        values = dict(rep["layers"], **{"process.import_s": statistics.median(imports)})
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(rep["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": rep["maxrss_mib"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    print(
        f"# {name}: seed={seed} rounds={len(rep['walls'])} "
        f"round_wall_s={[round(w, 3) for w in rep['walls']]} "
        f"attempted={rep['attempted']} failed={rep['failed']} failures={rep['failures']} "
        f"numpy={rep['numpy']} blas_threads={rep['blas_threads']}",
        flush=True,
    )
    # every operation's outputs are checked, and one that fails a check is
    # counted in failed; a run that cannot check exits non-zero instead
    return {
        "correct": True,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ucfw benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "ucfw" / "__init__.py").is_file():
            raise BenchError(f"no ucfw sources under {ROOT / 'src'}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {n: run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for n, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{n:7s} {metric:40s} {m['value']:14.6g} {m['unit']}")
        print(f"{n:7s} {'attempted / failed':40s} {res['attempted']:>8d} / {res['failed']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
