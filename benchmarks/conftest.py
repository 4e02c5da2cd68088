"""Shared fixtures for the table/figure benches.

Profiled original/revised pairs are expensive, so they are computed
once per session and shared across bench modules. ``emit`` prints
through pytest's capture so the regenerated table rows appear in the
``pytest benchmarks/ --benchmark-only`` output, and writes them to
benchmarks/out/report.txt, where each ``=== title ===`` section holds
the latest run of its bench.
"""

import os
from typing import Dict, List, Optional

import pytest

from repro.benchmarks import all_benchmarks, run_pair

REPORT_DIR = os.path.join(os.path.dirname(__file__), "out")


def is_header(line: str) -> bool:
    return line.startswith("=== ") and line.endswith(" ===")


def read_sections(path: str) -> Dict[Optional[str], List[str]]:
    """The report's sections in file order: each ``=== title ===``
    header mapped to the lines under it (a repeated header keeps its
    first place and its last lines; lines before any header go under
    None). Blank lines are dropped; :func:`write_sections` puts one
    between sections."""
    sections: Dict[Optional[str], List[str]] = {}
    current: Optional[str] = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for line in f.read().splitlines():
                if is_header(line):
                    current = line
                    sections[current] = []
                elif line:
                    sections.setdefault(current, []).append(line)
    return sections


def write_sections(path: str, sections: Dict[Optional[str], List[str]]) -> None:
    blocks = [
        "\n".join(([] if header is None else [header]) + lines)
        for header, lines in sections.items()
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n" + "\n\n".join(blocks) + "\n")


@pytest.fixture(scope="session")
def emit(request):
    """Print a line through (and past) pytest's output capture, and
    write it into its section of the report: a header empties its
    section (or starts one at the end), and the lines after it fill it."""
    capman = request.config.pluginmanager.getplugin("capturemanager")
    os.makedirs(REPORT_DIR, exist_ok=True)
    report_path = os.path.join(REPORT_DIR, "report.txt")
    current: Optional[str] = None

    def _emit(line: str = "") -> None:
        nonlocal current
        if line:
            sections = read_sections(report_path)
            if is_header(line):
                current = line
                sections[line] = []
            else:
                sections.setdefault(current, []).append(line)
            write_sections(report_path, sections)
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line)
        else:
            print(line)

    return _emit


class _PairCache:
    def __init__(self) -> None:
        self._runs = {}

    def get(self, name: str, which: str = "primary"):
        key = (name, which)
        if key not in self._runs:
            self._runs[key] = run_pair(all_benchmarks()[name], which)
        return self._runs[key]


@pytest.fixture(scope="session")
def pairs():
    return _PairCache()


@pytest.fixture(scope="session")
def benchmark_names():
    # paper's presentation order (Tables 2-5), plus our cache probe
    return ["javac", "jack", "raytrace", "jess", "euler", "mc", "juru", "analyzer", "db", "cache"]
