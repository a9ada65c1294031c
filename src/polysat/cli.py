"""Command-line surface tying the modules together.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage or
limit errors.  JSON is the single interchange format; DOT is export-only.
"""

from __future__ import annotations

import json
import sys

import click

from . import construct as con
from . import graphdual, io, kfamily, poset, saturation
from .errors import PolysatError


class _Group(click.Group):
    """Maps every PolysatError of a subcommand to a message and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PolysatError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


def _read_poset(source):
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PolysatError(f"cannot read {source}: {exc}") from None
    return io.loads(text)


def _int_list(ctx, param, value):
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise click.BadParameter("expected comma-separated integers") from None


def _emit_poset(p, dot):
    click.echo(io.export_dot(p) if dot else io.dumps(p), nl=False)


@click.group(cls=_Group)
def main():
    """Exact computations on finite posets: maximum k-families, saturated
    chain partitions, and polyunsaturated constructions."""


@main.group("construct")
def construct_group():
    """Build named posets and emit them as JSON (or DOT)."""


@construct_group.command("pj")
@click.option("--j", "j", type=int, required=True, help="Tower index j >= 1.")
@click.option("--dot", is_flag=True, help="Emit DOT instead of JSON.")
def construct_pj(j, dot):
    p, _ = con.build_pj(j)
    _emit_poset(p, dot)


@construct_group.command("delta")
@click.option(
    "--b", required=True, callback=_int_list, help="Comma-separated sequence."
)
@click.option("--dot", is_flag=True)
def construct_delta(b, dot):
    _emit_poset(con.from_delta(b), dot)


@construct_group.command("nca")
@click.option("--n", "n", type=int, required=True)
@click.option("--c", "c", type=int, required=True)
@click.option("--a", "a", type=int, required=True)
@click.option("--dot", is_flag=True)
def construct_nca(n, c, a, dot):
    _emit_poset(con.realize_nca(n, c, a), dot)


def _dk_table_lines(p, csv):
    seq = kfamily.d_sequence(p)
    delta = seq.delta()
    if csv:
        yield "k,d_k,delta_d_k"
        for k, (d, b) in enumerate(zip(seq.d, delta.b), start=1):
            yield f"{k},{d},{b}"
    else:
        yield f"{'k':>3} {'d_k':>5} {'delta':>6}"
        for k, (d, b) in enumerate(zip(seq.d, delta.b), start=1):
            yield f"{k:>3} {d:>5} {b:>6}"


@main.command("dk-table")
@click.argument("input", default="-")
@click.option("--csv", is_flag=True)
def dk_table(input, csv):
    p = _read_poset(input)
    for line in _dk_table_lines(p, csv):
        click.echo(line)


def _print_report(report):
    """Print a certificate report as JSON and exit 0 iff polyunsaturated."""
    pairs = []
    for (k, l), verdict in sorted(report.pair_verdicts.items()):
        entry = {"k": k, "l": l}
        if isinstance(verdict, saturation.NoJointPartition):
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
    click.echo(json.dumps(obj, sort_keys=True))
    sys.exit(0 if report.conclusion else 1)


@main.command("certify")
@click.argument("input", default="-")
@click.option("--limit-n", type=int, default=saturation.DEFAULT_LIMIT_N)
@click.option(
    "--budget-seconds", type=float, default=saturation.DEFAULT_BUDGET_S
)
def certify(input, limit_n, budget_seconds):
    p = _read_poset(input)
    report = saturation.is_polyunsaturated(
        p, limit_n=limit_n, budget_s=budget_seconds
    )
    _print_report(report)


@main.command("saturate")
@click.argument("input", default="-")
@click.option(
    "--ks", required=True, callback=_int_list, help="Comma-separated k values."
)
@click.option("--limit-n", type=int, default=saturation.DEFAULT_LIMIT_N)
@click.option(
    "--budget-seconds", type=float, default=saturation.DEFAULT_BUDGET_S
)
def saturate(input, ks, limit_n, budget_seconds):
    p = _read_poset(input)
    targets = sorted(ks)
    cp = saturation.find_saturated(
        p, targets, limit_n=limit_n, budget_s=budget_seconds
    )
    if cp is None:
        click.echo(json.dumps({"saturated_for": targets, "partition": None}))
        sys.exit(1)
    click.echo(
        json.dumps(
            {
                "saturated_for": targets,
                "partition": [list(c.elems) for c in cp.chains],
            }
        )
    )


def _parse_realizer(ctx, param, spec):
    if spec is None:
        return None
    one, _, two = spec.partition("/")
    return poset.Realizer(
        _int_list(ctx, param, one), _int_list(ctx, param, two)
    )


@main.command("dual")
@click.argument("input", default="-")
@click.option(
    "--realizer",
    callback=_parse_realizer,
    help="Two comma-separated permutations joined by '/'; defaults to the"
    " construction-carried realizer.",
)
@click.option("--table", is_flag=True, help="dk-table of the conjugate.")
@click.option("--csv", is_flag=True)
@click.option("--limit-n", type=int, default=saturation.DEFAULT_LIMIT_N)
@click.option(
    "--budget-seconds", type=float, default=saturation.DEFAULT_BUDGET_S
)
def dual(input, realizer, table, csv, limit_n, budget_seconds):
    p = _read_poset(input)
    if table:
        for line in _dk_table_lines(graphdual.conjugate(p, realizer), csv):
            click.echo(line)
        return
    report = graphdual.is_co_polyunsaturated(
        p, realizer, limit_n=limit_n, budget_s=budget_seconds
    )
    _print_report(report)


@main.command("enumerate")
@click.option("--n", "n", type=int, required=True)
def enumerate_cmd(n):
    for p in poset.enumerate_posets(n):
        click.echo(io.dumps(p), nl=False)


@main.command("feasible")
@click.option("--n", "n", type=int, default=None)
@click.option("--c", "c", type=int, default=None)
@click.option("--a", "a", type=int, default=None)
@click.option("--dual", "dual_side", is_flag=True)
def feasible(n, c, a, dual_side):
    """Existence of a polyunsaturated poset with the given parameters.

    Give any two of --n/--c/--a, or all three.  With --dual, interprets
    the parameters on the coloring (independence-number) side.
    """
    if dual_side:
        if None in (n, a, c):
            raise click.UsageError("--dual needs --n, --a, and --c")
        verdict = graphdual.feasible_dual_nac(n, a, c)
    elif None not in (n, c, a):
        verdict = con.feasible_nca(n, c, a)
    elif n is None and None not in (c, a):
        ok = con.feasible_ca(c, a)
        click.echo("feasible" if ok else "infeasible: need a >= c - 2")
        sys.exit(0 if ok else 1)
    elif a is None and None not in (n, c):
        ok = con.feasible_nc(n, c)
        click.echo(
            "feasible" if ok else "infeasible: need n >= binom(c, 2)"
        )
        sys.exit(0 if ok else 1)
    else:
        raise click.UsageError("give --c plus --a and/or --n")
    if verdict.feasible:
        click.echo("feasible")
    else:
        click.echo("infeasible: " + ", ".join(verdict.failed_conditions))
        sys.exit(1)


if __name__ == "__main__":
    main()
