"""The nine benchmark programs of the paper's evaluation (§3.1, Table 1)
modelled in mini-Java, plus the harness that regenerates Tables 1-5 and
Figure 2.

Five SPECjvm98 programs (javac, db, jack, raytrace, jess), two Java
Grande programs (euler, mc), and two IBM-internal tools (juru,
analyzer). Each module carries an *original* and a hand-*revised*
source (the paper's manual rewrites), input configurations, the Table-5
rewriting summary, and the paper's published numbers for comparison.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.benchmarks.registry": (
        "Benchmark", "Rewriting", "all_benchmarks", "get_benchmark",
    ),
    "repro.benchmarks.runner": (
        "BenchmarkRun", "run_pair", "run_runtime_pair", "figure2_series",
    ),
})

__all__ = [
    "Benchmark",
    "Rewriting",
    "all_benchmarks",
    "get_benchmark",
    "BenchmarkRun",
    "run_pair",
    "run_runtime_pair",
    "figure2_series",
]
