"""Inputs and correctness gate of the ``table-queries`` workload.

The gate is independent of the oracle: for an (n, k) fusion ring the quantum
dimension is a character, so for every restricted lambda the table must give
sum_nu N(lambda, mu; nu) qdim(nu) = qdim(lambda) qdim(mu), where
qdim(p) = prod_{i<j<=n} sin(pi (p_i - p_j + j - i)/(n + k)) / sin(pi (j - i)/(n + k)).
"""

from __future__ import annotations

import csv
import io
import math
import random

N_VALUES = range(2, 5)
K_VALUES = range(1, 6)
MU_MAX_SIZE = 6
# Six-column mu are left out: one such table takes seconds and would set the run.
MU_MAX_COLUMNS = 5
MAX_SIZE = 5
PASSES = 2
HEADER = ["lambda", "mu", "nu", "n", "k", "N"]
REL_TOL = 1e-9


def restricted_partitions(n: int, k: int, size: int, max_part: int | None = None):
    """Partitions of ``size`` with at most n rows and first minus n-th part at most k."""
    out = []

    def rec(rest, cap, prefix):
        if rest == 0:
            if _is_restricted(tuple(prefix), n, k):
                out.append(tuple(prefix))
            return
        if len(prefix) == n:
            return
        for part in range(min(cap, rest), 0, -1):
            rec(rest - part, part, prefix + [part])

    rec(size, size if max_part is None else max_part, [])
    return out


# The gate parses and checks partitions itself rather than trusting the
# fusionkit functions whose output it judges.
def _is_restricted(p, n: int, k: int) -> bool:
    if len(p) > n or any(a < b for a, b in zip(p, p[1:])) or min(p, default=1) < 1:
        return False
    return not p or p[0] - (p[n - 1] if len(p) == n else 0) <= k


def format_partition(p) -> str:
    return ",".join(map(str, p)) if p else "0"


def parse_partition(text: str) -> tuple[int, ...]:
    parts = tuple(int(t) for t in text.split(","))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def query_domain() -> list[tuple[int, int, tuple[int, ...]]]:
    """Every (n, k, mu) the client may ask about, in a fixed order."""
    return [
        (n, k, mu)
        for n in N_VALUES
        for k in K_VALUES
        for size in range(1, MU_MAX_SIZE + 1)
        for mu in restricted_partitions(n, k, size, MU_MAX_COLUMNS)
    ]


def table_requests(seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The client's requests for one session: the whole domain twice, each
    pass in its own seeded order.

    Covering the domain a fixed number of times keeps a session's total work
    the same for every seed, and the second pass finds the path cache warm,
    as repeated user queries do; the seed sets which tables share warm caches.
    """
    rng = random.Random(seed)
    requests = []
    for _ in range(PASSES):
        batch = query_domain()
        rng.shuffle(batch)
        requests += batch
    return requests


def table_argv(n: int, k: int, mu) -> list[str]:
    return [
        "table", "--n", str(n), "--k", str(k), "--mu", format_partition(mu),
        "--max-size", str(MAX_SIZE), "--format", "csv",
    ]


def qdim(p, n: int, k: int) -> float:
    full = tuple(p) + (0,) * (n - len(p))
    h = n + k
    value = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            value *= math.sin(math.pi * (full[i] - full[j] + j - i) / h)
            value /= math.sin(math.pi * (j - i) / h)
    return value


def table_problems(text: str, n: int, k: int, mu, max_size: int = MAX_SIZE) -> list[str]:
    """Everything wrong with one CSV table; an empty list means it passes."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != HEADER:
        return [f"bad header {rows[:1]}"]
    problems = []
    lambdas = {
        la for size in range(max_size + 1) for la in restricted_partitions(n, k, size)
    }
    sums = dict.fromkeys(lambdas, 0.0)
    mu_text = format_partition(mu)
    for row in rows[1:]:
        if len(row) != len(HEADER):
            problems.append(f"bad row {row}")
            continue
        la_text, row_mu, nu_text, row_n, row_k, value = row
        try:
            la, nu, count = parse_partition(la_text), parse_partition(nu_text), int(value)
        except ValueError:
            problems.append(f"unparsable row {row}")
            continue
        if (row_mu, row_n, row_k) != (mu_text, str(n), str(k)) or la not in sums or count <= 0:
            problems.append(f"row outside the request {row}")
            continue
        if sum(nu) != sum(la) + sum(mu) or not _is_restricted(nu, n, k):
            problems.append(f"nu not a restricted partition of the right size {row}")
            continue
        sums[la] += count * qdim(nu, n, k)
    q_mu = qdim(mu, n, k)
    for la, total in sorted(sums.items()):
        expected = qdim(la, n, k) * q_mu
        if abs(total - expected) > REL_TOL * abs(expected):
            problems.append(
                f"qdim sum for lambda={format_partition(la)} is {total!r}, expected {expected!r}"
            )
    return problems
