"""fusionkit benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every repetition runs in a fresh
interpreter (bench/rep.py) that imports fusionkit from the checkout's ``src``.

With ``--trace 0`` it repeats the workload until ``--seconds`` have passed
(at least three times) and reports medians.  Before each repetition it
measures set-up, the entry point's import time, in a few fresh interpreters,
so that set-up samples are spread over the run like the repetitions.  With ``--trace 1``
it runs the workload once untraced and once traced with ``jobs=1``, so that
every span is in-process, and reports the per-layer metrics, each layer's
share of self time and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Everything else (machine, samples, spans) goes under
``.bench_build/bench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "bench")

WORKLOADS = {
    "classical-sweep": {"entry": "fusionkit.verify", "jobs": 1},
    "level-sweep": {"entry": "fusionkit.verify", "jobs": 2},
    "table-queries": {"entry": "fusionkit.cli", "jobs": 1},
}
MIN_REPS = 3
SETUP_SAMPLES_PER_REP = 4
TAIL_PERCENTILE = 95
MIN_BEYOND = 10
# Stop starting repetitions after this long, so that a run ends within 180 s.
RUN_LIMIT_S = 120
REP_TIMEOUT_S = 150

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MOVES = {
    "partitions.normalize.calls": "wall_s on both sweeps, queries_per_s (validate once)",
    "partitions.sigma_dot.calls": "query_p95_ms and queries_per_s on table-queries, a little wall_s on classical-sweep; none on level-sweep",
    "partitions.sigma_dot.nonneg_ratio": "as sigma_dot.calls: the useful share of permutations",
    "partitions.sigma_dot.total_s": "as sigma_dot.calls",
    "partitions.self_s": "wall_s on both sweeps, queries_per_s",
    "paths.enumerate_paths.calls": "peak_rss_mb on every workload, wall_s on level-sweep",
    "paths.enumerate_paths.cache_hit_ratio": "peak_rss_mb on every workload, wall_s on level-sweep",
    "paths.enumerate_paths.cache_size": "peak_rss_mb on every workload",
    "paths.vertical_strips.calls": "wall_s on classical-sweep",
    "paths.boundary_shapes.calls": "wall_s on classical-sweep",
    "paths.self_s": "wall_s on classical-sweep",
    "words.pair_word.calls": "wall_s on both sweeps",
    "words.self_s": "wall_s on both sweeps",
    "involutions.psi.total_s": "wall_s on classical-sweep; 0 on table-queries",
    "involutions.phi.total_s": "wall_s on level-sweep; 0 on table-queries",
    "involutions.in_D2.calls": "wall_s on level-sweep",
    "involutions.self_s": "wall_s on both sweeps; 0 on table-queries",
    "coefficients.omega_terms.terms": "query metrics, wall_s on level-sweep",
    "coefficients.fusion_oracle.total_s": "query metrics, wall_s on level-sweep",
    "coefficients.fusion_rule.total_s": "wall_s on level-sweep",
    "coefficients.fusion_tableaux.total_s": "wall_s on level-sweep",
    "coefficients.fusion_expand.total_s": "query metrics",
    "coefficients.self_s": "query metrics, wall_s on level-sweep",
    "verify.checks": "none: the sweeps certify fixed counts",
    "verify.parallel_util": "wall_s on level-sweep",
    "verify.self_s": "wall_s on both sweeps",
    "cli.import_s": "setup_s on table-queries",
    "cli.self_s": "query_p50_ms on table-queries",
    "trace.overhead_ratio": "none: traced wall time over untraced wall time, both jobs=1",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(samples, pct: float) -> float:
    """Nearest-rank percentile that keeps at least MIN_BEYOND samples above it."""
    ordered = sorted(samples)
    index = max(math.ceil(pct / 100 * len(ordered)) - 1, 0)
    if len(ordered) - 1 - index < MIN_BEYOND:
        raise BenchError(
            f"p{pct:g} of {len(ordered)} samples leaves fewer than {MIN_BEYOND} beyond it"
        )
    return ordered[index]


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def child_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("FUSIONKIT_TRACE", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a Python child in its own session; on timeout kill it with its pool workers."""
    with subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[:2]} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def import_seconds(module: str, samples: int) -> list[float]:
    """Import time of ``module`` in ``samples`` fresh interpreters."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'src')!r})\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - t)\n"
    )
    return [float(run_child(["-c", code], 60)) for _ in range(samples)]


def run_rep(workload: str, seed: int, jobs: int, spans: str | None = None) -> dict:
    argv = [os.path.join(HERE, "rep.py"), workload, "--seed", str(seed), "--jobs", str(jobs)]
    if spans:
        argv += ["--spans", spans]
    out = run_child(argv, REP_TIMEOUT_S)
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"rep.py printed no result: {out[-500:]!r}") from exc


def timed_run(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], dict]:
    spec = WORKLOADS[workload]
    import_seconds(spec["entry"], 1)  # warm-up: writes the bytecode cache
    setup: list[float] = []
    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        setup += import_seconds(spec["entry"], SETUP_SAMPLES_PER_REP)
        reps.append(run_rep(workload, seed, spec["jobs"]))
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and (now - started) + (now - rep_started) > seconds:
            break
        if now - started > RUN_LIMIT_S:
            break
    timed = [r for r in reps if "crashed" not in r]
    if not timed:
        raise BenchError(f"every repetition crashed: {reps[0]['crashed']}")
    latencies = [t for r in timed for t in r["latencies_s"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "queries_per_s": statistics.median(len(r["latencies_s"]) / r["wall_s"] for r in timed),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p95_ms": tail_percentile(latencies, TAIL_PERCENTILE) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    samples = {"setup_s": setup, "query_samples": len(latencies)}
    return metrics, [{**r, "latencies_s": len(r["latencies_s"])} for r in reps], samples


def layer_metrics(traced: dict, base: dict, base_jobs1: dict, cli_import: float) -> dict:
    layers = traced["layers"]
    stats = layers["stats"]
    self_s = layers["layer_self_s"]
    cache = layers["enumerate_paths_cache"]

    def stat(name, field):
        return stats.get(name, {}).get(field, 0)

    sigma_calls = stat("partitions.sigma_dot", "calls")
    cache_calls = cache["hits"] + cache["misses"]
    return {
        "partitions.normalize.calls": stat("partitions.normalize", "calls"),
        "partitions.sigma_dot.calls": sigma_calls,
        "partitions.sigma_dot.nonneg_ratio": (
            stat("partitions.sigma_dot", "nonneg") / sigma_calls if sigma_calls else 0.0
        ),
        "partitions.sigma_dot.total_s": stat("partitions.sigma_dot", "total_s"),
        "partitions.self_s": self_s.get("partitions", 0.0),
        "paths.enumerate_paths.calls": cache_calls,
        "paths.enumerate_paths.cache_hit_ratio": cache["hits"] / cache_calls if cache_calls else 0.0,
        "paths.enumerate_paths.cache_size": cache["size"],
        "paths.vertical_strips.calls": stat("paths.vertical_strips", "calls"),
        "paths.boundary_shapes.calls": stat("paths.boundary_shapes", "calls"),
        "paths.self_s": self_s.get("paths", 0.0),
        "words.pair_word.calls": stat("words.pair_word", "calls"),
        "words.self_s": self_s.get("words", 0.0),
        "involutions.psi.total_s": stat("involutions.psi", "total_s"),
        "involutions.phi.total_s": stat("involutions.phi", "total_s"),
        "involutions.in_D2.calls": stat("involutions.in_D2", "calls"),
        "involutions.self_s": self_s.get("involutions", 0.0),
        "coefficients.omega_terms.terms": stat("coefficients.omega_terms", "items"),
        "coefficients.fusion_oracle.total_s": stat("coefficients.fusion_oracle", "total_s"),
        "coefficients.fusion_rule.total_s": stat("coefficients.fusion_rule", "total_s"),
        "coefficients.fusion_tableaux.total_s": stat("coefficients.fusion_tableaux", "total_s"),
        "coefficients.fusion_expand.total_s": stat("coefficients.fusion_expand", "total_s"),
        "coefficients.self_s": self_s.get("coefficients", 0.0),
        "verify.checks": traced["checks"],
        "verify.parallel_util": base["cpu_s"] / (base["wall_s"] * base["jobs"]),
        "verify.self_s": self_s.get("verify", 0.0),
        "cli.import_s": cli_import,
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.overhead_ratio": traced["wall_s"] / base_jobs1["wall_s"],
    }


def claims(workload: str, metrics: dict, sigma_share: float) -> list[str]:
    """The traffic-split claims the workloads were chosen on, as measured."""
    if workload == "table-queries":
        ok = metrics["involutions.psi.total_s"] == 0 and metrics["involutions.phi.total_s"] == 0
        return [f"psi and phi absent: {'holds' if ok else 'FAILS'} "
                f"(psi {metrics['involutions.psi.total_s']} s, phi {metrics['involutions.phi.total_s']} s)"]
    if workload == "level-sweep":
        return [f"sigma_dot small: {'holds' if sigma_share < 0.05 else 'FAILS'} "
                f"({sigma_share:.2%} of traced time)"]
    ratio = metrics["paths.enumerate_paths.cache_hit_ratio"]
    return [f"enumerate_paths cache unused: {'holds' if ratio == 0 else 'FAILS'} (hit ratio {ratio})"]


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    spec = WORKLOADS[workload]
    base = run_rep(workload, seed, spec["jobs"])
    base_jobs1 = base if spec["jobs"] == 1 else run_rep(workload, seed, 1)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.csv.gz")
    traced = run_rep(workload, seed, 1, spans=spans)
    reps = [base, base_jobs1, traced] if base_jobs1 is not base else [base, traced]
    for r in reps:
        if "crashed" in r:
            raise BenchError(f"a repetition crashed: {r['crashed']}")
    cli_import = statistics.median(import_seconds("fusionkit.cli", 5))
    metrics = layer_metrics(traced, base, base_jobs1, cli_import)
    layer_self = traced["layers"]["layer_self_s"]
    total_self = sum(layer_self.values())
    shares = {layer: layer_self.get(layer, 0.0) / total_self for layer in sorted(layer_self)}
    sigma_share = metrics["partitions.sigma_dot.total_s"] / total_self
    extra = {
        "layer_self_share": shares,
        "claims": claims(workload, metrics, sigma_share),
        "spans": traced["layers"]["spans"],
        "spans_file": os.path.relpath(spans, ROOT),
        "functions": traced["layers"]["stats"],
        "moves": LAYER_MOVES,
    }
    return metrics, [{**r, "latencies_s": len(r["latencies_s"])} for r in reps], extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    declared_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "fusionkit", "__init__.py")):
        print(f"error: no fusionkit source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(declared_path, encoding="utf-8") as f:
        declared = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    host = machine()
    try:
        if args.trace:
            metrics, reps, extra = traced_run(args.workload, args.seed)
            kind = "per_layer"
        else:
            metrics, reps, extra = timed_run(args.workload, args.seed, args.seconds)
            kind = "end_to_end"
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)} but declared {sorted(units)}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    why = next(w["why"] for w in declared["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {why}")
    print(f"machine nproc={host['nproc']} python={host['python']} cpu={host['cpu_model']}")
    print(f"repetitions {len(reps)}" + (f", query samples {extra['query_samples']}" if not args.trace else ""))
    for name in (m["name"] for m in declared[kind]):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if args.trace:
        print("layer share of traced self time: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in extra["layer_self_share"].items()))
        for line in extra["claims"]:
            print(f"claim: {line}")
    for r in reps:
        for problem in r.get("problems", []):
            print(f"FAILED: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": host, "why": why, "result": result,
        "repetitions": reps, "detail": extra,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
