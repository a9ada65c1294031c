"""What a `polysat` process loads, and how it fails without a command.

Each command runs as `python -m polysat.cli` would run it, in a fresh
interpreter, and the modules it loaded are compared with what a bare
interpreter of the same environment has loaded on its own.
"""

import functools
import os
import pathlib
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
# argparse, with the gettext and locale it loads, parses only --help and
# usage errors: a well-formed command line is read from cli.GRAMMAR.
NEVER = {"argparse", "click", "dataclasses", "gettext", "inspect", "locale"}
SRC = pathlib.Path(polysat.__file__).parent


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


@functools.lru_cache(maxsize=None)
def launch(command):
    """Run one command with P_3 on stdin, which the commands that read a
    poset read by default: (exit code, stderr, the modules it loaded)."""
    result = python(RUN_CLI, *command.split(), stdin=dumps(build_pj(3)[0]))
    return result.returncode, result.stderr, modules(result)


def source_lines(loaded):
    """Lines of polysat source a process compiled: the modules it loaded,
    and cli.py, which runpy runs as __main__ rather than as polysat.cli."""
    files = {"cli.py"}
    for name in loaded:
        if name == "polysat":
            files.add("__init__.py")
        elif name.startswith("polysat."):
            files.add(name.split(".")[1] + ".py")
    return sum(
        (SRC / name).read_text(encoding="utf-8").count("\n") for name in files
    )


@pytest.mark.parametrize(
    "command, needed, absent",
    [
        (
            "dk-table",
            {"polysat.io", "polysat.kfamily", "polysat.poset"},
            {
                "polysat.saturation",
                "polysat.construct",
                "polysat.graphdual",
                "polysat.canonical",
            },
        ),
        (
            "certify",
            {"polysat.io", "polysat.saturation"},
            {"polysat.construct", "polysat.graphdual"},
        ),
        pytest.param(
            "dual --table",
            {"polysat.io", "polysat.kfamily"},
            {"polysat.saturation", "polysat.construct", "polysat.graphdual"},
            id="dual-table",
        ),
        pytest.param(
            "saturate --ks 1,2",
            {"polysat.io", "polysat.saturation", "polysat.kfamily"},
            {"polysat.construct", "polysat.graphdual", "polysat.canonical"},
            id="saturate",
        ),
        pytest.param(
            "construct pj --j 3 --dot",
            {"polysat.io", "polysat.construct", "polysat.kfamily"},
            {"polysat.saturation", "polysat.graphdual", "polysat.canonical"},
            id="construct",
        ),
        pytest.param(
            "enumerate --n 3",
            {"polysat.io", "polysat.poset", "polysat.canonical"},
            {
                "polysat.kfamily",
                "polysat.saturation",
                "polysat.construct",
                "polysat.graphdual",
            },
            id="enumerate",
        ),
        pytest.param(
            "feasible --n 6 --c 4 --a 2",
            {"polysat.construct"},
            {"polysat.saturation", "polysat.graphdual", "polysat.canonical"},
            id="feasible",
        ),
        pytest.param(
            "feasible --n 10 --a 5 --c 3 --dual",
            {"polysat.construct"},
            {"polysat.saturation", "polysat.graphdual", "polysat.canonical"},
            id="feasible-dual",
        ),
    ],
)
def test_command_loads_only_what_it_runs(bare, command, needed, absent):
    code, stderr, loaded = launch(command)
    assert code == 0, stderr
    loaded -= bare
    assert needed <= loaded
    assert not loaded & (NEVER | absent)


# The most polysat source lines each command may compile, as each process
# compiles them from source when no bytecode is cached.  dk-table reads a
# poset and runs one flow, and code it never calls lives elsewhere;
# certify and saturate compile one norm search.  Each ceiling is the
# command's present count, so a line added to what a command compiles
# must be paid for by a line taken out.  They are keyed by command, so a
# test keeps its name when its ceiling moves.
CEILINGS = {
    "dk-table": 1056,
    "certify": 1448,
    "saturate --ks 1,2": 1448,
    "dual --table": 1056,
    "construct pj --j 3": 1369,
    "enumerate --n 3": 903,
    "feasible --n 6 --c 4 --a 2": 1369,
    "feasible --n 10 --a 5 --c 3 --dual": 1369,
}


@pytest.mark.parametrize("command", list(CEILINGS))
def test_command_compiles_bounded_source(command):
    code, stderr, loaded = launch(command)
    assert code == 0, stderr
    assert source_lines(loaded) <= CEILINGS[command]


@pytest.mark.parametrize("args", [[], ["construct"]])
def test_missing_command_is_a_usage_error(args):
    result = python(RUN_CLI, *args)
    assert result.returncode == 2 and result.stdout == ""
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "args, code",
    [
        (["--help"], 0),
        (["construct", "nca", "--help"], 0),
        (["dk-table", "--cs"], 2),
    ],
)
def test_help_and_usage_errors_go_to_argparse(args, code):
    result = python(RUN_CLI, *args)
    assert result.returncode == code and "Traceback" not in result.stderr
    assert "argparse" in modules(result)
