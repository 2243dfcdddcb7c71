"""Command-line surface: coefficient queries, tables, verification sweeps.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 unsupported shape, 4 internal invariant breach (a bug), 141 stdout
closed by its reader.  Output is deterministic byte-for-byte for fixed
arguments, but for the ``wall_time_s`` of a ``verify`` report.  Set
FUSIONKIT_TRACE=1 to stream bracket words of every involution step to stderr.

``main`` builds its parser on first use and keeps it for the life of the
process, so a caller that runs many requests through ``main`` pays for it
once; ``build_parser`` returns a fresh one.  A table validates mu once,
takes one fusion row per la, each from the plan of the narrower of la and
mu, and builds each output row once as a tuple; only JSON names its fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from functools import lru_cache
from operator import itemgetter

from .coefficients import (
    UnsupportedShape,
    _fusion_row,
    _rule_paths,
    fusion_oracle,
    fusion_rule,
    fusion_tableaux,
    lr_lattice,
    lr_paths,
)
from .partitions import (
    FusionContext,
    _format_partition,
    _restricted,
    format_partition,
    is_restricted,
    parse_partition,
    restricted_partitions_of,
)
from .words import pair_word, render

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141
# verify.run_suite's suites, named here so that queries need not import verify
SUITES = ("involution", "monotone", "duality", "paths-identity", "gepner-witten", "all")
TABLE_FIELDS = ("lambda", "mu", "nu", "n", "k", "N")


def _cmd_lr(args) -> int:
    la, mu, nu = (parse_partition(t) for t in (args.la, args.mu, args.nu))
    fn = lr_lattice if args.method == "lattice" else lr_paths
    print(fn(la, mu, nu))
    return EXIT_OK


def _cmd_fusion(args) -> int:
    la, mu, nu = (parse_partition(t) for t in (args.la, args.mu, args.nu))
    ctx = FusionContext(args.n, args.k)
    for name, p in (("lambda", la), ("mu", mu), ("nu", nu)):
        if not is_restricted(p, ctx):
            raise ValueError(
                f"{name} = {format_partition(p)} is not ({ctx.n},{ctx.k})-restricted"
            )
    fn = {"rule": fusion_rule, "oracle": fusion_oracle, "tableaux": fusion_tableaux}[
        args.method
    ]
    value = fn(la, mu, nu, ctx)
    print(value)
    if args.explain:
        _explain(la, mu, nu, ctx)
    return EXIT_OK


def _explain(la, mu, nu, ctx) -> None:
    """List the paths ``fusion_rule`` counts, each with its bracket word where
    the level excludes D2: mu of two columns."""
    if mu and mu[0] > 2:
        print("# explanation available only for shapes with at most two columns")
        return
    worded = mu[:1] == (2,)
    for path in _rule_paths(la, mu, nu, ctx):
        word = f"  word {render(pair_word(path, 1))}" if worded else ""
        print(f"# labels {path.labels()}{word}")


def _cmd_table(args) -> int:
    if args.max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {args.max_size}")
    mu = parse_partition(args.mu)
    ctx = FusionContext(args.n, args.k)
    mu_text = _format_partition(mu)
    if not _restricted(mu, ctx):
        raise ValueError(f"mu = {mu_text} is not restricted")
    rows = []
    for la_size in range(0, args.max_size + 1):
        for la in restricted_partitions_of(la_size, ctx):
            la_text = _format_partition(la)
            for nu, value in _fusion_row(la, mu, ctx).items():
                rows.append((la_text, mu_text, _format_partition(nu), args.n, args.k, value))
    # (lambda, nu) names each row once, so this key alone fixes the order
    rows.sort(key=itemgetter(0, 2))
    if args.format == "json":
        import json  # CSV tables, lr and fusion queries write none
        records = [dict(zip(TABLE_FIELDS, row)) for row in rows]
        print(json.dumps({"schema": "fusionkit.table/1", "rows": records}, indent=2, sort_keys=True))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(TABLE_FIELDS)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def _usable_cpus() -> int:
    """CPUs this process may run on, where the platform reports its affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_verify(args) -> int:
    from .verify import run_suite

    jobs = args.jobs or _usable_cpus()
    report = run_suite(
        args.suite,
        n_max=args.n_max,
        k_max=args.k_max,
        size_max=args.size_max,
        jobs=jobs,
    )
    print(report.to_json())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="Exact sl(n) level-k fusion coefficients by path counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lr = sub.add_parser("lr", help="classical Littlewood-Richardson coefficient")
    p_lr.add_argument("la")
    p_lr.add_argument("mu")
    p_lr.add_argument("nu")
    p_lr.add_argument("--method", choices=["paths", "lattice"], default="paths")
    p_lr.set_defaults(fn=_cmd_lr)

    p_f = sub.add_parser("fusion", help="level-k fusion coefficient")
    p_f.add_argument("la")
    p_f.add_argument("mu")
    p_f.add_argument("nu")
    p_f.add_argument("--n", type=int, required=True)
    p_f.add_argument("--k", type=int, required=True)
    p_f.add_argument("--method", choices=["rule", "oracle", "tableaux"], default="rule")
    p_f.add_argument("--explain", action="store_true")
    p_f.set_defaults(fn=_cmd_fusion)

    p_t = sub.add_parser("table", help="all nonzero coefficients for a fixed mu")
    p_t.add_argument("--n", type=int, required=True)
    p_t.add_argument("--k", type=int, required=True)
    p_t.add_argument("--mu", required=True)
    p_t.add_argument("--max-size", type=int, default=6)
    p_t.add_argument("--format", choices=["json", "csv"], default="json")
    p_t.set_defaults(fn=_cmd_table)

    p_v = sub.add_parser("verify", help="run a verification sweep")
    p_v.add_argument("--suite", choices=list(SUITES), default="all")
    p_v.add_argument("--n-max", type=int, default=3)
    p_v.add_argument("--k-max", type=int, default=2)
    p_v.add_argument("--size-max", type=int, default=6)
    p_v.add_argument("--jobs", type=int, default=0, help="0 means every CPU this process may use")
    p_v.set_defaults(fn=_cmd_verify)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the unwritten rest goes nowhere, so the exit flush passes
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UnsupportedShape as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
