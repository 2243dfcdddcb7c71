"""A catalogue of cliffs, and a runner that checks each stays within its budget.

    python tools/cliffs.py [ID ...]

A cliff is a family of inputs, indexed by m, on which a public function of
fusionkit once drew far more than it returned: shapes listed and dropped,
tableau entries tried on prefixes that no tableau completes.  Each entry names
the function, the family, the sizes to run and a budget: the most the probe
may draw for what it returns.

The runner runs each size in a child process with a timeout
(``python tools/cliffs.py --probe ID M``, with ``PYTHONPATH`` on this
checkout's ``src``), which prints its counts and seconds as JSON, and prints
one JSON object: per probe, the counts, the seconds and the status.  The gate
reads the counts, not the time: a count is the same on every machine, where
timings on a loaded two-core box vary by 30%.  An entry whose function is the
enumerator itself has no count of its own; it gates on the answer, and on the
timeout.  So do the rows and columns of up to 1,000 boxes, which have one path
each (a walk that recursed once per box would fail them), and the level-m
coefficients of a row of m boxes, on which the signed sum once walked
Fibonacci-many permutations, recursing once per column.  The one CLI entry,
``fusionkit table``, gates on the partitions it draws against the rows it
prints.  The exit status is 0 when every probe is within its budget.  Standard library only;
``tests/test_package.py`` runs the smallest size of each entry in tier-1,
in-process.
"""

from __future__ import annotations

import builtins
import json
import os
import subprocess
import sys
import time
from collections import namedtuple
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 30

Cliff = namedtuple("Cliff", "id target family sizes probe budget")


@contextmanager
def _counting(module, name):
    """Count what ``module.name``, a generator function or ``range``, yields
    while the block runs; the count is the one item of the list it gives."""
    count = [0]
    original = module.__dict__.get(name)
    inner = original or getattr(builtins, name)

    def counted(*args, **kwargs):
        for item in inner(*args, **kwargs):
            count[0] += 1
            yield item

    setattr(module, name, counted)
    try:
        yield count
    finally:
        if original is None:
            delattr(module, name)
        else:
            setattr(module, name, original)


def _hooks(m: int) -> tuple[int, int]:
    """Shapes ``partitions_of`` yields to ``subpartitions`` of the hook, and shapes returned."""
    from fusionkit import partitions

    with _counting(partitions, "partitions_of") as drawn:
        listed = partitions.subpartitions((m,) + (1,) * m)
    return drawn[0], len(listed)


def _columns(m: int) -> tuple[int, int]:
    """Entries ``_tableaux`` tries for the Kac-Walton row of a column, and tableaux found."""
    from fusionkit import coefficients
    from fusionkit.partitions import FusionContext

    with _counting(coefficients, "range") as tried, _counting(coefficients, "_tableaux") as found:
        coefficients.fusion_kac_walton((), (1,) * m, FusionContext(m + 1, 1))
    return tried[0], found[0]


def _column_partitions(m: int) -> tuple[int, int]:
    """Partitions listed inside a column of m boxes, and 1 when they are that column."""
    from fusionkit.partitions import partitions_of

    listed = list(partitions_of(m, (1,) * m))
    return len(listed), int(listed == [(1,) * m])


def _lone_path(route: str, shapes, level=None) -> tuple[int, int]:
    """The count ``fusionkit.coefficients.<route>`` gives for ``shapes`` (at
    ``FusionContext(*level)``, if given), and 1 when it is the one path."""
    from fusionkit import coefficients
    from fusionkit.partitions import FusionContext

    count = getattr(coefficients, route)(*shapes, *([FusionContext(*level)] if level else []))
    return count, int(count == 1)


def _row_of_a_row(m: int) -> tuple[int, int]:
    """Entries of ``fusion_expand((), (m,))`` at n = 2 and level m, and 1 when it is {(m,): 1}."""
    from fusionkit.coefficients import fusion_expand
    from fusionkit.partitions import FusionContext

    row = fusion_expand((), (m,), FusionContext(2, m))
    return len(row), int(row == {(m,): 1})


def _wide_table(m: int) -> tuple[int, int]:
    """Shapes ``partitions_of`` yields to ``fusionkit table --n m --k 1 --mu 1
    --max-size 4m``, and the rows of its table."""
    import contextlib
    import io

    from fusionkit import cli, partitions

    out = io.StringIO()
    argv = ["table", "--n", str(m), "--k", "1", "--mu", "1", "--max-size", str(4 * m)]
    with _counting(partitions, "partitions_of") as drawn, contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return drawn[0], len(json.loads(out.getvalue())["rows"]) if code == 0 else 0


CLIFFS = [
    Cliff(
        "subpartitions-hooks", "fusionkit.partitions.subpartitions", "(m,) + (1,) * m",
        (12, 30, 60), _hooks, lambda m, returned: returned,
    ),
    # every prefix of the walk completes, so each of the m cells has at most as many
    # prefixes as there are tableaux; listing the cells tries m entries more
    Cliff(
        "kac-walton-columns", "fusionkit.coefficients.fusion_kac_walton",
        "(), (1,) * m, FusionContext(m + 1, 1)",
        (12, 20, 40), _columns, lambda m, returned: m * (returned + 1),
    ),
    Cliff(
        "partitions-of-a-column", "fusionkit.partitions.partitions_of", "m, (1,) * m",
        (1000, 10000, 100000), _column_partitions, lambda m, returned: returned,
    ),
    Cliff(
        "lr-paths-of-a-row", "fusionkit.coefficients.lr_paths", "(), (m,), (m,)",
        (10, 100, 1000), lambda m: _lone_path("lr_paths", ((), (m,), (m,))),
        lambda m, returned: returned,
    ),
    Cliff(
        "lr-paths-of-a-column", "fusionkit.coefficients.lr_paths", "(), (1,) * m, (1,) * m",
        (10, 100, 1000), lambda m: _lone_path("lr_paths", ((), (1,) * m, (1,) * m)),
        lambda m, returned: returned,
    ),
    Cliff(
        "fusion-rule-of-a-column", "fusionkit.coefficients.fusion_rule",
        "(), (1,) * m, (1,) * m, FusionContext(m, 1)",
        (10, 100, 1000), lambda m: _lone_path("fusion_rule", ((), (1,) * m, (1,) * m), (m, 1)),
        lambda m, returned: returned,
    ),
    Cliff(
        "fusion-expand-of-a-row", "fusionkit.coefficients.fusion_expand",
        "(), (m,), FusionContext(2, m)", (10, 100, 1000), _row_of_a_row,
        lambda m, returned: returned,
    ),
    Cliff(
        "fusion-oracle-of-a-row", "fusionkit.coefficients.fusion_oracle",
        "(), (m,), (m,), FusionContext(3, m)",
        (10, 100, 1000), lambda m: _lone_path("fusion_oracle", ((), (m,), (m,)), (3, m)),
        lambda m, returned: returned,
    ),
    # one restricted la of each size up to 4m, each with one nu: a table that lists
    # partitions beyond the la it keeps draws more than it prints
    Cliff(
        "wide-table", "fusionkit.cli.main", "table --n m --k 1 --mu 1 --max-size 4m",
        (16, 100, 400), _wide_table, lambda m, returned: returned,
    ),
]


def _env() -> dict:
    src = os.path.join(ROOT, "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def run(cliff: Cliff, m: int) -> dict:
    """One probe in a child process: its counts, seconds and status."""
    result = {"id": cliff.id, "target": cliff.target, "family": cliff.family, "m": m}
    try:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", cliff.id, str(m)],
            env=_env(), capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return dict(result, status=f"timed out after {TIMEOUT_S} s")
    if done.returncode:
        return dict(result, status=f"error: {done.stderr.strip().splitlines()[-1:]}")
    result.update(json.loads(done.stdout))
    result["budget"] = cliff.budget(m, result["returned"])
    within = result["returned"] and result["drawn"] <= result["budget"]
    return dict(result, status="ok" if within else "over budget")


def probe(cliff_id: str, m: int) -> dict:
    cliff = next(c for c in CLIFFS if c.id == cliff_id)
    import fusionkit.coefficients  # noqa: F401  (the import is not the probe's time)

    started = time.perf_counter()
    drawn, returned = cliff.probe(m)
    return {"drawn": drawn, "returned": returned, "seconds": round(time.perf_counter() - started, 4)}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--probe"]:
        print(json.dumps(probe(argv[1], int(argv[2]))))
        return 0
    unknown = set(argv) - {c.id for c in CLIFFS}
    if unknown:
        print(f"unknown cliffs: {sorted(unknown)}", file=sys.stderr)
        return 2
    results = [run(c, m) for c in CLIFFS if not argv or c.id in argv for m in c.sizes]
    failed = [f"{r['id']}@{r['m']}" for r in results if r["status"] != "ok"]
    print(json.dumps({"results": results, "summary": {"probes": len(results), "failed": failed}}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
