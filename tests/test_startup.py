"""What a `polysat` process loads, and how it fails without a command.

Each command runs as `python -m polysat.cli` would run it, in a fresh
interpreter, and the modules it loaded are compared with what a bare
interpreter of the same environment has loaded on its own.
"""

import os
import subprocess
import sys

import pytest

import polysat
from polysat import build_pj
from polysat.io import dumps

# Runs polysat.cli as -m does, then lists sys.modules on stderr.
RUN_CLI = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('polysat.cli', run_name='__main__',"
    " alter_sys=True)\n"
    "finally:\n"
    "    sys.stderr.write('\\nmodules: ' + ' '.join(sys.modules))\n"
)
BARE = "import sys; sys.stderr.write('\\nmodules: ' + ' '.join(sys.modules))"
NEVER = {"click", "dataclasses", "inspect"}


def python(code, *args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(polysat.__file__))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def modules(result):
    return set(result.stderr.rpartition("\nmodules: ")[2].split())


@pytest.fixture(scope="module")
def bare():
    return modules(python(BARE))


@pytest.mark.parametrize(
    "command, needed, absent",
    [
        (
            "dk-table",
            {"polysat.io", "polysat.kfamily", "polysat.poset"},
            {"polysat.saturation", "polysat.construct", "polysat.graphdual"},
        ),
        (
            "certify",
            {"polysat.io", "polysat.saturation"},
            {"polysat.construct", "polysat.graphdual"},
        ),
        pytest.param(
            "dual --table",
            {"polysat.io", "polysat.graphdual", "polysat.kfamily"},
            {"polysat.saturation", "polysat.construct"},
            id="dual-table",
        ),
    ],
)
def test_command_loads_only_what_it_runs(bare, command, needed, absent):
    result = python(
        RUN_CLI, *command.split(), "-", stdin=dumps(build_pj(3)[0])
    )
    assert result.returncode == 0, result.stderr
    loaded = modules(result) - bare
    assert needed <= loaded
    assert not loaded & (NEVER | absent)


@pytest.mark.parametrize("args", [[], ["construct"]])
def test_missing_command_is_a_usage_error(args):
    result = python(RUN_CLI, *args)
    assert result.returncode == 2 and result.stdout == ""
    assert "Traceback" not in result.stderr
