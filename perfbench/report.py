"""Print the README's reference tables from the spans that traced runs
left in perfbench/out/<workload>/spans.npz:

    for w in fig2 solve online verify; do
        python3 perfbench/run.py --workload $w --seed 0 --trace 1 > /dev/null
    done
    python3 perfbench/report.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_table  # noqa: E402
from worker import WORKLOADS, Solve  # noqa: E402

# README layer -> span names
LAYERS = {
    "solver: reference": ("solver.reference_optimum", "solver.exact_line_search"),
    "solver: loop": ("solver.run_fw",),
    "solver: output": ("solver.to_csv", "solver.write_sidecar"),
    "geometry: per-call": ("geometry.lmo", "geometry.norm", "geometry.dual_norm", "geometry.membership_excess"),
    "geometry: batch": ("geometry.batch_norm", "geometry.boundary_point"),
    "objectives": ("objectives.gradient", "objectives.value"),
    "online": ("online.run_ftl", "online.to_csv"),
    "verify": ("verify.sample_feasible", "verify.check_definition1", "verify.check_lemma1",
               "verify.check_local_scaling", "verify.check_lemma3"),
    "bounds": ("bounds",),
    "svg": ("svg.line_plot_svg",),
    "experiments": ("experiments",),
}

# per-call rows: (label, span name, time field, unit field)
PER_CALL = [
    ("geometry.lmo", "geometry.lmo", "self_s", "calls"),
    ("geometry.norm", "geometry.norm", "self_s", "calls"),
    ("geometry.dual_norm", "geometry.dual_norm", "self_s", "calls"),
    ("geometry.membership_excess (incl. norm)", "geometry.membership_excess", "incl_s", "calls"),
    ("objectives.gradient", "objectives.gradient", "self_s", "calls"),
    ("objectives.value", "objectives.value", "self_s", "calls"),
    ("solver.exact_line_search", "solver.exact_line_search", "self_s", "calls"),
    ("solver.run_fw, per iteration", "solver.run_fw", "incl_s", "units"),
    ("solver.to_csv, per row", "solver.to_csv", "self_s", "units"),
]


def load(workload: str):
    data = np.load(HERE / "out" / workload / "spans.npz")
    names = [str(n) for n in data["names"]]
    return names, {k: data[k] for k in ("name_id", "parent", "start", "end", "units")}


def subset(spans: dict, lo: int, hi: int) -> dict:
    """Spans lo..hi-1 with parents renumbered (outside parents become -1)."""
    out = {k: v[lo:hi] for k, v in spans.items()}
    par = out["parent"] - lo
    out["parent"] = np.where(par >= 0, par, -1)
    return out


def self_time_split() -> None:
    found = [w for w in WORKLOADS if (HERE / "out" / w / "spans.npz").is_file()]
    tables = {w: layer_table(*load(w)) for w in found}
    totals = {w: sum(row["self_s"] for row in t.values()) for w, t in tables.items()}
    print("| layer | " + " | ".join(found) + " |")
    print("| --- |" + " --- |" * len(found))
    for layer, spans in LAYERS.items():
        cells = []
        for w in found:
            s = sum(tables[w][n]["self_s"] for n in spans if n in tables[w])
            cells.append(f"{s:.3f} s ({100 * s / totals[w]:.1f}%)" if s else "-")
        print(f"| {layer} | " + " | ".join(cells) + " |")
    print("| traced round | " + " | ".join(f"{totals[w]:.3f} s" for w in found) + " |")


def per_call_costs() -> None:
    """Per-call self times in the solve round, split by dimension: the
    entry-point spans under the root are the configs in Solve's order."""
    names, spans = load("solve")
    entry = np.flatnonzero((spans["name_id"] == names.index("experiments")) & (spans["parent"] == 0))
    bounds = [*entry, len(spans["name_id"])]
    per_dim = len(Solve.RULES)
    dims = [d for d, _, _ in Solve.MIX]
    cols = {}
    for j, dim in enumerate(dims):
        lo, hi = bounds[j * per_dim], bounds[(j + 1) * per_dim]
        cols[dim] = layer_table(names, subset(spans, lo, hi))
    print("| layer | " + " | ".join(f"d={d}, p={p:g}" for d, p, _ in Solve.MIX) + " |")
    print("| --- |" + " --- |" * len(dims))
    for label, span, num, den in PER_CALL:
        cells = []
        for d in dims:
            row = cols[d].get(span)
            cells.append(f"{1e6 * row[num] / row[den]:.1f} µs" if row and row[den] else "-")
        print(f"| {label} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    self_time_split()
    print()
    per_call_costs()
