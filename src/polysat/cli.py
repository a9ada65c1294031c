"""Command-line surface tying the modules together.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage or
limit errors.  JSON is the single interchange format; DOT is export-only.

The parser is the standard library's argparse, and each command imports
the modules it runs when it runs, so a process loads only what its
command needs: `dk-table` reads no search or construction code.  Search
options left unset are left out of the call, so the library's defaults
apply.
"""

import argparse
import functools
import sys

from .errors import BadParameters, PolysatError


def _read_poset(source, realizer=None):
    from . import io

    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PolysatError(f"cannot read {source}: {exc}") from None
    return io.loads(text, realizer)


def _int_list(value):
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers"
        ) from None


def _realizer(spec):
    from .poset import Realizer

    one, _, two = spec.partition("/")
    return Realizer(_int_list(one), _int_list(two))


def _emit_poset(p, dot):
    from . import io

    sys.stdout.write(io.export_dot(p) if dot else io.dumps(p))


def construct_pj(j, dot):
    from .construct import build_pj

    _emit_poset(build_pj(j)[0], dot)


def construct_delta(b, dot):
    from .construct import from_delta

    _emit_poset(from_delta(b), dot)


def construct_nca(n, c, a, dot):
    from .construct import realize_nca

    _emit_poset(realize_nca(n, c, a), dot)


def _dk_table_lines(p, csv):
    from .kfamily import d_sequence

    seq = d_sequence(p)
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
    p = _read_poset(input)
    for line in _dk_table_lines(p, csv):
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


def dual(input, realizer, table, csv, **limits):
    """The conjugate's dk-table or certificate: its chain partitions are
    the proper colorings of the input's comparability graph."""
    from . import graphdual

    q = graphdual.conjugate(_read_poset(input, realizer))
    if table:
        for line in _dk_table_lines(q, csv):
            print(line)
        return
    from . import saturation

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
        from .graphdual import feasible_dual_nac

        verdict = feasible_dual_nac(n, a, c)
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser that takes only the options it lists: --help
    but no -h, and no abbreviations of long options."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument(
            "--help", action="help", help="Show this message and exit."
        )


def _commands(parent, title):
    # A metavar names the required subcommand in the error for a missing
    # one; without it (or a dest) argparse 3.10 raises TypeError there.
    return parent.add_subparsers(
        title=title, metavar="COMMAND", required=True
    )


def _command(commands, name, run, summary=None, description=None):
    cmd = commands.add_parser(
        name, help=summary, description=description or summary
    )
    cmd.set_defaults(run=run)
    return cmd


def _search_limits(cmd):
    cmd.add_argument("--limit-n", type=int, default=argparse.SUPPRESS)
    cmd.add_argument(
        "--budget-seconds",
        dest="budget_s",
        metavar="SECONDS",
        type=float,
        default=argparse.SUPPRESS,
    )


@functools.lru_cache(maxsize=None)
def _parser(prog):
    """The parser of every command.  Parsing leaves it unchanged, so it is
    built once per program name, as in-process callers run many commands."""
    top = _Parser(
        prog=prog,
        description="Exact computations on finite posets: maximum"
        " k-families, saturated chain partitions, and polyunsaturated"
        " constructions.",
    )
    commands = _commands(top, "commands")

    summary = "Build named posets and emit them as JSON (or DOT)."
    construct = commands.add_parser(
        "construct", help=summary, description=summary
    )
    kinds = _commands(construct, "posets")
    cmd = _command(kinds, "pj", construct_pj)
    cmd.add_argument(
        "--j", type=int, required=True, help="Tower index j >= 1."
    )
    cmd.add_argument(
        "--dot", action="store_true", help="Emit DOT instead of JSON."
    )
    cmd = _command(kinds, "delta", construct_delta)
    cmd.add_argument(
        "--b", type=_int_list, required=True, help="Comma-separated sequence."
    )
    cmd.add_argument("--dot", action="store_true")
    cmd = _command(kinds, "nca", construct_nca)
    for name in ("--n", "--c", "--a"):
        cmd.add_argument(name, type=int, required=True)
    cmd.add_argument("--dot", action="store_true")

    cmd = _command(commands, "dk-table", dk_table)
    cmd.add_argument("input", nargs="?", default="-")
    cmd.add_argument("--csv", action="store_true")

    cmd = _command(commands, "certify", certify)
    cmd.add_argument("input", nargs="?", default="-")
    _search_limits(cmd)

    cmd = _command(commands, "saturate", saturate)
    cmd.add_argument("input", nargs="?", default="-")
    cmd.add_argument(
        "--ks", type=_int_list, required=True, help="Comma-separated k values."
    )
    _search_limits(cmd)

    cmd = _command(commands, "dual", dual)
    cmd.add_argument("input", nargs="?", default="-")
    cmd.add_argument(
        "--realizer",
        type=_realizer,
        help="Two comma-separated permutations joined by '/'; defaults to the"
        " construction-carried realizer.",
    )
    cmd.add_argument(
        "--table", action="store_true", help="dk-table of the conjugate."
    )
    cmd.add_argument("--csv", action="store_true")
    _search_limits(cmd)

    cmd = _command(commands, "enumerate", enumerate_cmd)
    cmd.add_argument("--n", type=int, required=True)

    cmd = _command(
        commands,
        "feasible",
        feasible,
        "Existence of a polyunsaturated poset with the given parameters.",
        "Existence of a polyunsaturated poset with the given parameters."
        "  Give any two of --n/--c/--a, or all three.  With --dual,"
        " interprets the parameters on the coloring (independence-number)"
        " side.",
    )
    for name in ("--n", "--c", "--a"):
        cmd.add_argument(name, type=int)
    cmd.add_argument("--dual", dest="dual_side", action="store_true")
    return top


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
        ns = vars(_parser(prog_name or self.name).parse_args(args))
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
