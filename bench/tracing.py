"""The traced run: polysat's commands in one process, with spans around
calls into each module's public functions.

Spans are recorded from outside the program: each function named in
FUNCTIONS is replaced, at every polysat module attribute bound to it, by
a wrapper that records (name, start, end, parent).  Spans stay in memory
until the pass ends.  A function's self time is its span minus the part
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import sys
import time
from collections import defaultdict

from workloads import PIPE

# Public functions whose calls are traced, by module.  `cli.main` is the
# span the runner opens around each command; `poset.Poset` times the
# constructor.
FUNCTIONS = (
    "cli.main",
    "io.loads",
    "io.dumps",
    "io.export_dot",
    "poset.Poset",
    "poset.from_covers",
    "poset.height",
    "poset.width",
    "poset.enumerate_posets",
    "kfamily.dk",
    "kfamily.d_sequence",
    "saturation.is_polyunsaturated",
    "saturation.min_joint_norm",
    "saturation.find_saturated",
    "construct.build_pj",
    "construct.from_delta",
    "construct.realize_nca",
    "graphdual.conjugate",
    "graphdual.verify_realizer",
)


class Tracer:
    """Spans as [name, start, end, parent index] plus call counts."""

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self._stack = []

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def exit(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out


def _wrap(tracer, name, fn):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced function at all its bindings; yields the names of
    functions that polysat no longer has."""
    undo = []
    absent = []
    modules = [m for k, m in list(sys.modules.items())
               if k == "polysat" or k.startswith("polysat.")]
    for qual in FUNCTIONS[1:]:
        mod_name, attr = qual.split(".")
        orig = getattr(importlib.import_module(f"polysat.{mod_name}"), attr, None)
        if orig is None:
            absent.append(qual)
        elif inspect.isclass(orig):
            init = orig.__init__
            orig.__init__ = _wrap(tracer, qual, init)
            undo.append((orig, "__init__", init))
        else:
            wrapper = _wrap(tracer, qual, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        undo.append((m, key, orig))
    try:
        yield absent
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def run_op_inprocess(op, workdir, tracer=None):
    """Run op's steps through polysat.cli.main in this process; returns
    (stdouts, exit codes) as a subprocess run would."""
    import click

    from polysat import cli

    outs, codes = [], []
    for argv, stdin in op.steps:
        if stdin == PIPE:
            data = outs[-1]
        elif stdin:
            with open(os.path.join(workdir, stdin), encoding="utf-8") as fh:
                data = fh.read()
        else:
            data = ""
        out = io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(data), out, io.StringIO()
        if tracer:
            tracer.calls["cli.main"] += 1
            tracer.enter("cli.main")
        try:
            cli.main.main(list(argv), prog_name="polysat", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:
            code = 1
        finally:
            if tracer:
                tracer.exit()
            sys.stdin, sys.stdout, sys.stderr = saved
        outs.append(out.getvalue())
        codes.append(code)
    return outs, codes


def inprocess_pass(ops, workdir, tracer=None):
    """One pass over ops in this process: (wall seconds, [(outs, codes)])."""
    results = []
    start = time.perf_counter()
    for op in ops:
        results.append(run_op_inprocess(op, workdir, tracer))
    return time.perf_counter() - start, results
