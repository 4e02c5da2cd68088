"""What each command imports: a fresh interpreter runs one command and
reports the ``repro`` modules it loaded. The budget is a set of module
names, not a time, so it holds on any host.

The log readers (``report``, ``timeline``, ``watch``) and the serve
daemon load nothing that runs or rewrites programs: no VM, compiler,
bytecode, optimizer, static analysis or linter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = str(Path(repro.__file__).resolve().parent.parent)
HEAVY = (
    "repro.runtime",
    "repro.bytecode",
    "repro.mjava",
    "repro.transform",
    "repro.analysis",
    "repro.lint",
)
PROGRAM = """
class Main {
    public static void main(String[] args) {
        char[] wasted = new char[5000];
        for (int i = 0; i < 40; i = i + 1) { char[] junk = new char[200]; }
        wasted[0] = 'x';
    }
}
"""

# Wraps the code under test: it sees the probe's own arguments as
# ``argv``, and the loaded modules go to the file named first.
PROBE = """
import json, sys
out, argv = sys.argv[1], sys.argv[2:]
{code}
with open(out, "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.split(".")[0] == "repro"), fh)
"""


def loaded_after(tmp_path, code, *argv):
    """The repro modules loaded once a fresh interpreter has run ``code``
    with ``argv`` bound to the given arguments."""
    out = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code), str(out), *argv],
        env=env, cwd=tmp_path, check=True, capture_output=True, timeout=120,
    )
    return set(json.loads(out.read_text()))


def cli_loads(tmp_path, *argv):
    """The repro modules ``python -m repro ARGV`` loads."""
    code = (
        "import runpy\n"
        "sys.argv = ['repro', *argv]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    return loaded_after(tmp_path, code, *argv)


def heavy(modules):
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in HEAVY)
    )


@pytest.fixture(scope="module")
def log_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("budget")
    source = root / "prog.mj"
    source.write_text(PROGRAM)
    log = root / "run.dlog2"
    assert main([
        "profile", str(source), "--main", "Main", "--interval", "4096",
        "--sink", "stream", "--log", str(log),
    ]) == 0
    return str(log)


def test_import_repro_loads_the_package_only(tmp_path):
    loaded = loaded_after(tmp_path, "import repro")
    assert loaded <= {"repro", "repro._lazy", "repro.errors"}, sorted(loaded)


def test_help_loads_no_subsystem(tmp_path):
    loaded = cli_loads(tmp_path, "--help")
    assert loaded <= {
        "repro", "repro._lazy", "repro.errors", "repro.cli", "repro.__main__",
    }, sorted(loaded)


@pytest.mark.parametrize("argv", [
    ("report", "{log}"),
    ("timeline", "{log}"),
    ("watch", "{log}", "--once"),
], ids=lambda argv: argv[0])
def test_log_readers_load_no_program_machinery(tmp_path, log_file, argv):
    loaded = cli_loads(tmp_path, *(a.format(log=log_file) for a in argv))
    assert "repro.stream.codec" in loaded  # the command did decode the log
    assert not heavy(loaded), heavy(loaded)


def test_serve_daemon_loads_no_program_machinery(tmp_path):
    loaded = loaded_after(tmp_path, "import repro.serve.server")
    assert "repro.stream.aggregate" in loaded
    assert not heavy(loaded), heavy(loaded)


def test_probe_sees_a_command_that_runs_programs(tmp_path, log_file):
    """The probe is not blind: ``run`` does load the VM and compiler."""
    source = Path(log_file).parent / "prog.mj"
    loaded = cli_loads(tmp_path, "run", str(source), "--main", "Main")
    assert {"repro.runtime.interpreter", "repro.mjava.compiler"} <= loaded
