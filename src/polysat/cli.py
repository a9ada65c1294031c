"""Command-line surface tying the modules together.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage or
limit errors.  JSON is the single interchange format; DOT is export-only.

GRAMMAR is the one table of commands.  A well-formed command line is read
from it straight; argparse, loaded only for --help and usage errors, builds
its parser from it and prints those (no -h, no abbreviations).  Commands
import what they run when they run: `dk-table` and `dual --table` read no
search code.  Search options left unset are left out, so the defaults apply.
"""

import functools
import sys

from .errors import BadParameters, PolysatError


def _read_poset(source):
    from . import io

    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PolysatError(f"cannot read {source}: {exc}") from None
    return io.loads(text)


def _int_list(value):
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        import argparse  # a usage error, which argparse reports

        raise argparse.ArgumentTypeError(
            "expected comma-separated integers"
        ) from None


def construct_poset(dot, j=None, b=None, n=None, c=None, a=None):
    """Emit the poset that `construct pj`, `delta` or `nca` builds."""
    from . import construct, io

    if j is not None:
        p = construct.build_pj(j)[0]
    elif b is not None:
        p = construct.from_delta(b)
    else:
        p = construct.realize_nca(n, c, a)
    sys.stdout.write(io.export_dot(p) if dot else io.dumps(p))


def _dk_table_lines(seq, csv):
    delta = seq.delta()
    if csv:
        yield "k,d_k,delta_d_k"
        for k, (d, b) in enumerate(zip(seq.d, delta.b), start=1):
            yield f"{k},{d},{b}"
    else:
        yield f"{'k':>3} {'d_k':>5} {'delta':>6}"
        for k, (d, b) in enumerate(zip(seq.d, delta.b), start=1):
            yield f"{k:>3} {d:>5} {b:>6}"


def dk_table(input, csv):
    from .kfamily import d_sequence

    for line in _dk_table_lines(d_sequence(_read_poset(input)), csv):
        print(line)


def _print_report(report):
    """Print a certificate report as JSON and exit 0 iff polyunsaturated."""
    import json

    from .saturation import NoJointPartition

    pairs = []
    for (k, l), verdict in sorted(report.pair_verdicts.items()):
        entry = {"k": k, "l": l}
        if isinstance(verdict, NoJointPartition):
            entry["verdict"] = "no_joint_partition"
            entry["min_joint_norm"] = verdict.min_joint_norm
            entry["dk_plus_dl"] = report.d[k - 1] + report.d[l - 1]
        else:
            entry["verdict"] = "witness"
            entry["chains"] = [
                list(c.elems) for c in verdict.partition.chains
            ]
        pairs.append(entry)
    obj = {
        "height": report.c,
        "polyunsaturated": report.conclusion,
        "pairs": pairs,
    }
    print(json.dumps(obj, sort_keys=True))
    sys.exit(0 if report.conclusion else 1)


def certify(input, **limits):
    from .saturation import is_polyunsaturated

    p = _read_poset(input)
    _print_report(is_polyunsaturated(p, **limits))


def saturate(input, ks, **limits):
    import json

    from .saturation import find_saturated

    p = _read_poset(input)
    targets = sorted(set(ks))
    cp = find_saturated(p, targets, **limits)
    partition = None if cp is None else [list(c.elems) for c in cp.chains]
    print(json.dumps({"saturated_for": targets, "partition": partition}))
    if cp is None:
        sys.exit(1)


def dual(input, table, csv, **limits):
    """Cliques and colorings of the comparability graph G: --table prints
    omega_k(G) = e_k from the input's own flow, for every poset; else
    certify the conjugate, whose chain partitions are G's colorings."""
    p = _read_poset(input)
    if table:
        from . import kfamily

        seq = kfamily.DSequence(kfamily.chain_unions(p)[1:])
        for line in _dk_table_lines(seq, csv):
            print(line)
        return
    from . import graphdual, saturation

    q = graphdual.conjugate(p)
    _print_report(saturation.is_polyunsaturated(q, **limits))


def enumerate_cmd(n):
    from . import io
    from .poset import enumerate_posets

    for p in enumerate_posets(n):
        sys.stdout.write(io.dumps(p))


def feasible(n, c, a, dual_side):
    """Print whether a polyunsaturated poset with the given parameters
    exists, and exit 1 if none does."""
    from . import construct

    if dual_side:
        if None in (n, a, c):
            raise BadParameters("--dual needs --n, --a, and --c")
        verdict = construct.feasible_dual_nac(n, a, c)
    elif None not in (n, c, a):
        verdict = construct.feasible_nca(n, c, a)
    elif n is None and None not in (c, a):
        ok = construct.feasible_ca(c, a)
        print("feasible" if ok else "infeasible: need a >= c - 2")
        sys.exit(0 if ok else 1)
    elif a is None and None not in (n, c):
        ok = construct.feasible_nc(n, c)
        need = "c" if c <= 2 else "binom(c, 2)"
        print("feasible" if ok else f"infeasible: need n >= {need}")
        sys.exit(0 if ok else 1)
    else:
        raise BadParameters("give --c plus --a and/or --n")
    if verdict.feasible:
        print("feasible")
    else:
        print("infeasible: " + ", ".join(verdict.failed_conditions))
        sys.exit(1)


SUPPRESS = "==SUPPRESS=="  # argparse.SUPPRESS: left out unless given
# A flag, and a required integer option.
_FLAG, _INT = {"action": "store_true"}, {"type": int, "required": True}
_INPUT = ("input", {"nargs": "?", "default": "-"})
_HELP = ("--help", {"action": "help", "help": "Show this message and exit."})
_LIMITS = (
    ("--limit-n", {"type": int, "default": SUPPRESS}),
    ("--budget-seconds", {"dest": "budget_s", "metavar": "SECONDS",
                          "type": float, "default": SUPPRESS}),
)
_FEASIBLE = "Existence of a polyunsaturated poset with the given parameters."

# The grammar of every command.  A group lists its commands under a
# title; a command names its run function and its arguments, each with
# argparse's add_argument keywords, in the order its help page lists them.
GRAMMAR = dict(title="commands", commands={
    "construct": dict(title="posets", commands={
        "pj": dict(run=construct_poset, args=(
            ("--j", dict(_INT, help="Tower index j >= 1.")),
            ("--dot", dict(_FLAG, help="Emit DOT instead of JSON.")),
        )),
        "delta": dict(run=construct_poset, args=(
            ("--b", dict(_INT, type=_int_list,
                         help="Comma-separated sequence.")),
            ("--dot", _FLAG),
        )),
        "nca": dict(run=construct_poset, args=(
            ("--n", _INT), ("--c", _INT), ("--a", _INT), ("--dot", _FLAG),
        )),
    }, help="Build named posets and emit them as JSON (or DOT)."),
    "dk-table": dict(run=dk_table, args=(_INPUT, ("--csv", _FLAG))),
    "certify": dict(run=certify, args=(_INPUT, *_LIMITS)),
    "saturate": dict(run=saturate, args=(_INPUT, ("--ks", dict(
        _INT, type=_int_list, help="Comma-separated k values."
    )), *_LIMITS)),
    "dual": dict(run=dual, args=(
        _INPUT,
        ("--table", dict(_FLAG, help="e_k, the largest union of k chains.")),
        ("--csv", _FLAG), *_LIMITS,
    )),
    "enumerate": dict(run=enumerate_cmd, args=(("--n", _INT),)),
    "feasible": dict(run=feasible, help=_FEASIBLE, args=(
        ("--n", {"type": int}), ("--c", {"type": int}), ("--a", {"type": int}),
        ("--dual", dict(_FLAG, dest="dual_side")),
    ), description=_FEASIBLE + "  Give any two of --n/--c/--a, or all"
        " three.  With --dual, interprets the parameters on the coloring"
        " (independence-number) side."),
}, description="Exact computations on finite posets: maximum k-families,"
    " saturated chain partitions, and polyunsaturated constructions.")


def _scan(argv):
    """vars(parse_args(argv)) read from GRAMMAR, if argv is the command, one
    input at most, flags and `--option value` (value not `-...`); or None."""
    spec = GRAMMAR
    while "commands" in spec:
        if not argv or argv[0] not in spec["commands"]:
            return None
        spec, argv = spec["commands"][argv[0]], argv[1:]
    ns, options, inputs = {"run": spec["run"]}, {}, []
    for name, kw in spec["args"]:
        dest = kw.get("dest", name.lstrip("-").replace("-", "_"))
        options[name] = dest, kw
        if kw.get("default") != SUPPRESS:
            ns[dest] = kw.get("default", False if "action" in kw else None)
    required = {name for name, kw in spec["args"] if kw.get("required")}
    args = iter(argv)
    for arg in args:
        if arg.startswith("--") and arg in options:
            dest, kw = options[arg]
            required.discard(arg)
            if "action" in kw:
                ns[dest] = True
                continue
            value = next(args, "-")  # a missing value reads as an option
            if value.startswith("-"):
                return None
            try:
                ns[dest] = kw["type"](value)
            except Exception:  # argparse converts it again and says why
                return None
        elif arg == "-" or not arg.startswith("-"):
            inputs.append(arg)
        else:
            return None
    if required or len(inputs) > ("input" in ns):
        return None
    ns.update(zip(["input"], inputs))
    return ns


@functools.lru_cache(maxsize=None)
def _parser(prog):
    """GRAMMAR as argparse's parser, built once: parsing leaves it as is."""
    import argparse

    def build(make, spec):
        parser = make(
            description=spec.get("description") or spec.get("help"),
            add_help=False, allow_abbrev=False,
        )
        for name, kw in (_HELP, *spec.get("args", ())):
            if kw.get("default") == SUPPRESS:  # argparse tests it by `is`
                kw = dict(kw, default=argparse.SUPPRESS)
            parser.add_argument(name, **kw)
        if "run" in spec:
            parser.set_defaults(run=spec["run"])
            return parser
        # A missing command's error names its metavar; without one (or a
        # dest) argparse 3.10 raises TypeError there.
        commands = parser.add_subparsers(
            title=spec["title"], metavar="COMMAND", required=True
        )
        add = commands.add_parser
        for name, cmd in spec["commands"].items():
            build(functools.partial(add, name, help=cmd.get("help")), cmd)
        return parser

    return build(functools.partial(argparse.ArgumentParser, prog), GRAMMAR)


class _Main:
    """The `polysat` command.

    Call it, or its main method, with a list of arguments (default
    sys.argv[1:]).  A PolysatError prints `error: ...` on stderr and
    exits 2; so does a usage error, through argparse.  A reader that
    closes the pipe early, as `| head` does, ends the command with exit 1.
    """

    name = "polysat"

    def main(self, args=None, prog_name=None, standalone_mode=True):
        # standalone_mode is accepted for callers written against click and
        # changes nothing: in both modes, errors exit through SystemExit.
        ns = _scan(sys.argv[1:] if args is None else args) or vars(
            _parser(prog_name or self.name).parse_args(args)
        )
        run = ns.pop("run")
        try:
            try:
                run(**ns)
            finally:
                sys.stdout.flush()
        except PolysatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        except BrokenPipeError:
            import os

            # Point stdout at /dev/null, so the flush at exit stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)

    __call__ = main


main = _Main()


if __name__ == "__main__":
    main()
