"""Figure 2: reachable/in-use heap size over allocation time, original
vs revised, for every benchmark.

Prints each panel's four series sampled at 24 points (the paper plots
them as curves; the ASCII renderer in examples/heap_profile_charts.py
draws them) and asserts the qualitative features §4.1 describes.

The curves are ``figure2_series``'s exact step functions
(``curve_from_records`` over each run's records).
"""

from repro.benchmarks.runner import figure2_series

MB = 1024.0 * 1024.0
POINTS = 24


def _sample(curve, end_time):
    return [
        curve.value_at(end_time * i // (POINTS - 1)) / MB for i in range(POINTS)
    ]


def bench_figure2(benchmark, emit, pairs, benchmark_names):
    def measure():
        return {name: pairs.get(name, "primary") for name in benchmark_names}

    runs = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit()
    emit("=== Figure 2: heap profiles (MB vs MB allocated, 24 samples) ===")
    for name in benchmark_names:
        run = runs[name]
        curves = figure2_series(run)
        emit(f"--- {name} (x axis: 0..{run.original.end_time / MB:.2f} MB allocated, "
             f"revised run: 0..{run.revised.end_time / MB:.2f} MB) ---")
        for key, end in (
            ("original_reachable", run.original.end_time),
            ("original_in_use", run.original.end_time),
            ("revised_reachable", run.revised.end_time),
            ("revised_in_use", run.revised.end_time),
        ):
            series = _sample(curves[key], end)
            emit(f"  {key:18s} " + " ".join(f"{v:6.3f}" for v in series))
