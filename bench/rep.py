"""One repetition of one workload in a fresh interpreter.

    python3 bench/rep.py WORKLOAD --seed N [--jobs J] [--spans PATH]

Prints one JSON object on stdout.  Run it from a checkout: it imports
fusionkit from the checkout's ``src`` and nothing else.  With ``--spans`` the
layers are traced (see tracer.py) and the spans are written to PATH.

Each repetition starts cold on purpose: the module-level caches of fusionkit
would otherwise carry warm state from one repetition to the next, and a
user's ``fusionkit`` process always starts cold.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import fusionkit  # noqa: E402
from fusionkit import cli, coefficients, involutions, partitions, paths, verify, words  # noqa: E402

import tables  # noqa: E402
from tracer import Tracer  # noqa: E402

# Check names and `checked` counts of the sweeps at the commit that defined
# this benchmark.  The sweeps certify these exact counts; any change fails the gate.
FROZEN_CHECKS = {
    "classical-sweep": {
        "lr_paths_equals_lr_lattice": 631,
        "psi_squared_identity": 12318,
        "psi_reverses_sign": 11726,
        "psi_fixed_points_are_fitting": 592,
        "signed_sum_equals_fitting_count": 1678,
    },
    "level-sweep": {
        "phi_squared_identity": 8833,
        "phi_reverses_sign": 5648,
        "phi1_image_in_D2": 248,
        "phi2_after_phi1_identity": 248,
        "phi1_after_phi2_identity": 248,
        "fixed_points_equal_oracle": 5115,
        "rule_equals_oracle": 10555,
        "tableaux_equal_rule": 10555,
        "fusion_at_most_classical": 10555,
        "fusion_equals_classical_at_big_level": 354,
        "fusion_equals_classical_when_unobstructed": 10280,
    },
}
CLASSICAL_SIZE = 7
LEVEL_BOUNDS = (5, 4, 10)  # n <= 5, k <= 4, |nu| <= 10
LAYER_MODULES = {
    "partitions": partitions,
    "paths": paths,
    "words": words,
    "involutions": involutions,
    "coefficients": coefficients,
    "verify": verify,
    "cli": cli,
    "package": fusionkit,
}


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class TripleClock:
    """Times each triple a sweep certifies, from outside the sweep.

    A sweep records all checks of one (n, k, lambda, mu, nu) triple one after
    another, so a triple's latency runs from the previous triple's last
    record to its own last record.  Latencies ride on the CheckResult objects,
    so those certified in pool workers come back with the results; the last
    triple of each worker process has no successor and is not timed.
    """

    def __init__(self):
        self.key = None
        self.mark = self.last = time.perf_counter()
        self.record = verify.CheckResult.record
        self.merge = verify.CheckResult.merge

    def install(self) -> None:
        clock, record, merge = self, self.record, self.merge

        def timed_record(result, ok, /, **context):
            now = time.perf_counter()
            key = tuple(context.get(f) for f in ("n", "k", "lambda", "mu", "nu"))
            if key != clock.key:
                if clock.key is not None:
                    result.__dict__.setdefault("latencies", []).append(clock.last - clock.mark)
                clock.key, clock.mark = key, clock.last
            clock.last = now
            record(result, ok, **context)

        def carrying_merge(check, other):
            merge(check, other)
            check.__dict__.setdefault("latencies", []).extend(other.__dict__.get("latencies", ()))

        verify.CheckResult.record = timed_record
        verify.CheckResult.merge = carrying_merge

    def latencies(self, checks) -> list[float]:
        out = [t for c in checks for t in c.__dict__.get("latencies", ())]
        if self.key is not None:
            out.append(self.last - self.mark)
        return out


def run_sweep(workload: str, jobs: int, timed_triples: bool) -> dict:
    clock = TripleClock()
    if timed_triples:
        clock.install()
    cpu0, started = cpu_seconds(), time.perf_counter()
    if workload == "classical-sweep":
        checks = verify.classical_lr_checks(CLASSICAL_SIZE)
        checks += verify.classical_involution_checks(CLASSICAL_SIZE, jobs=jobs)
    else:
        checks = verify.fusion_involution_checks(*LEVEL_BOUNDS, jobs=jobs)
    wall, cpu = time.perf_counter() - started, cpu_seconds() - cpu0
    frozen = FROZEN_CHECKS[workload]
    problems = [
        f"{c.name}: checked {c.checked}, passed {c.passed}"
        for c in checks
        if not c.passed or frozen.get(c.name) != c.checked
    ]
    missing = set(frozen) - {c.name for c in checks}
    problems += [f"{name}: missing" for name in sorted(missing)]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_s": clock.latencies(checks) if timed_triples else [],
        "attempted": len(frozen),
        "failed": min(len(problems), len(frozen)),
        "problems": problems[:10],
        "checks": sum(c.checked for c in checks),
    }


def run_queries(seed: int, tracer: Tracer | None) -> dict:
    requests = tables.table_requests(seed)
    latencies, outputs = [], []
    cpu0, started = cpu_seconds(), time.perf_counter()
    for i, (n, k, mu) in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(tables.table_argv(n, k, mu))
        except Exception as exc:  # a crash is a failed request, not a failed run
            code = repr(exc)
        latencies.append(time.perf_counter() - t0)
        outputs.append((code, buf.getvalue()))
    wall, cpu = time.perf_counter() - started, cpu_seconds() - cpu0
    problems = []
    for (n, k, mu), (code, text) in zip(requests, outputs):
        found = [f"exit {code}"] if code != 0 else tables.table_problems(text, n, k, mu)
        if found:
            problems.append(f"table n={n} k={k} mu={tables.format_partition(mu)}: {found[0]}")
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_s": latencies,
        "attempted": len(requests),
        "failed": len(problems),
        "problems": problems[:10],
        "checks": 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["classical-sweep", "level-sweep", "table-queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--spans", help="trace the layers and write the spans here")
    args = parser.parse_args(argv)
    if not os.path.abspath(fusionkit.__file__).startswith(SRC + os.sep):
        print(f"fusionkit imported from {fusionkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install(LAYER_MODULES)
    try:
        if args.workload == "table-queries":
            result = run_queries(args.seed, tracer)
        else:
            result = run_sweep(args.workload, args.jobs, timed_triples=tracer is None)
    except Exception:  # a crashed sweep fails every check it owed
        owed = FROZEN_CHECKS.get(args.workload) or tables.table_requests(args.seed)
        result = {"crashed": traceback.format_exc(), "attempted": len(owed), "failed": len(owed),
                  "wall_s": 0.0, "cpu_s": 0.0, "latencies_s": [], "checks": 0}
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children.ru_maxrss
    ) / 1024
    result["jobs"] = args.jobs
    if tracer is not None and "crashed" not in result:
        tracer.uninstall()
        tracer.write_spans(args.spans)
        info = paths.enumerate_paths.cache_info()
        result["layers"] = {
            "stats": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                       "items": s.items, "nonneg": s.nonneg}
                for name, s in sorted(tracer.stats.items())
            },
            "layer_self_s": dict(tracer.layer_self),
            "enumerate_paths_cache": {
                "hits": info.hits, "misses": info.misses, "size": info.currsize,
            },
            "spans": tracer.span_count(),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
