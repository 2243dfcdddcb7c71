"""Tests of the benchmark's own machinery: python3 -m pytest bench/tests"""

import contextlib
import io
import json
import os
import random

import pytest

import run
import tables
from tracer import Tracer

ROOT = os.path.dirname(run.HERE)


def test_tracer_self_time_of_nested_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    fns = {}

    def outer():
        now[0] += 1
        fns["inner"]()
        fns["leaf"]()
        now[0] += 2

    def inner():
        now[0] += 3
        fns["leaf"]()

    def leaf():
        now[0] += 0.5
        fns["nested_leaf"]()

    def nested_leaf():
        now[0] += 0.25

    fns["inner"] = tracer.wrap(inner, "b.inner", "b")
    fns["leaf"] = tracer.wrap(leaf, "c.leaf", "c", leaf=True)
    fns["nested_leaf"] = tracer.wrap(nested_leaf, "c.nested_leaf", "c", leaf=True)
    tracer.wrap(outer, "a.outer", "a")()

    stats = tracer.stats
    assert (stats["a.outer"].calls, stats["a.outer"].total_s, stats["a.outer"].self_s) == (1, 7.5, 3.0)
    assert (stats["b.inner"].total_s, stats["b.inner"].self_s) == (3.75, 3.0)
    # a leaf inside a leaf is counted but its time stays with the outer leaf
    assert (stats["c.leaf"].calls, stats["c.leaf"].self_s) == (2, 1.5)
    assert (stats["c.nested_leaf"].calls, stats["c.nested_leaf"].total_s) == (2, 0.0)
    assert dict(tracer.layer_self) == {"a": 3.0, "b": 3.0, "c": 1.5}
    assert sum(tracer.layer_self.values()) == stats["a.outer"].total_s
    # leaves leave no span; the inner span's parent is the outer span
    assert tracer.span_count() == 2
    by_name = {tracer.span_name[i]: i for i in range(2)}
    inner_i, outer_i = by_name[0], by_name[1]
    assert tracer.span_parent[inner_i] == tracer.span_id[outer_i]
    assert tracer.span_parent[outer_i] == -1


def test_tracer_charges_generators_per_resume():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def items():
        for _ in range(3):
            now[0] += 1
            yield None

    gen = tracer.wrap(items, "a.items", "a")

    def consume():
        for _ in gen():
            now[0] += 10

    tracer.wrap(consume, "b.consume", "b")()
    assert tracer.stats["a.items"].items == 3
    assert tracer.stats["a.items"].total_s == 3.0
    assert tracer.layer_self["b"] == 30.0


def test_qdim_gate_accepts_a_true_table_and_rejects_a_perturbed_row():
    from fusionkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table", "--n", "3", "--k", "2", "--mu", "2,1", "--max-size", "3",
                         "--format", "csv"])
    assert code == 0
    text = out.getvalue()
    assert tables.table_problems(text, 3, 2, (2, 1), max_size=3) == []
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.rstrip().endswith(",1"))
    bumped = lines[:row] + [lines[row].rstrip()[:-1] + "2\r\n"] + lines[row + 1:]
    assert tables.table_problems("".join(bumped), 3, 2, (2, 1), max_size=3)
    dropped = lines[:row] + lines[row + 1:]
    assert tables.table_problems("".join(dropped), 3, 2, (2, 1), max_size=3)


def test_qdim_is_multiplicative_on_a_level_one_table():
    # sl(2) level 1: every quantum dimension is 1, so each lambda has one nu.
    text = 'lambda,mu,nu,n,k,N\r\n0,1,1,2,1,1\r\n1,1,"1,1",2,1,1\r\n'
    assert tables.table_problems(text, 2, 1, (1,), max_size=1) == []
    assert tables.table_problems(text.replace("2,1,1\r\n", "2,1,2\r\n"), 2, 1, (1,), max_size=1)


def test_tail_percentile_keeps_ten_samples_beyond():
    rng = random.Random(3)
    samples = [rng.random() for _ in range(200)]
    p95 = run.tail_percentile(samples, 95)
    assert sum(1 for s in samples if s > p95) >= run.MIN_BEYOND
    with pytest.raises(run.BenchError):
        run.tail_percentile(samples[:199], 95)
    assert run.tail_percentile(list(range(1000)), 95) == 949


def test_query_generator_is_deterministic_per_seed():
    a, b, c = (tables.table_requests(s) for s in (7, 7, 8))
    assert a == b and a != c
    domain = tables.query_domain()
    assert sorted(a) == sorted(domain * tables.PASSES)
    assert len(a) >= 200
    assert all(mu[0] <= tables.MU_MAX_COLUMNS and sum(mu) <= tables.MU_MAX_SIZE for _, _, mu in a)


def test_declared_metrics_match_the_measured_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert [m["name"] for m in declared["per_layer"]] == list(run.LAYER_MOVES)
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)
