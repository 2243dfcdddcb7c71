"""Exhaustive desk-scale verification sweeps with machine-readable reports.

Each suite re-derives a family of identities by brute force and reports
per-check pass/fail counts with counterexamples, each named by its check.
Every check of every suite counts only what it ``record``s, so each count
is of cases that could have failed.  The signed sum is the reference
throughout: the level sweeps, the two-row closed-form check among them,
take it one row per (la, mu), for every nu at once, and certify the fast
routes and the closed form against it, and the same plan walked without
signs counts the chains behind the unobstructed check; both involution
sweeps walk its individual terms (``omega_terms``) and check the
involution laws in one loop, which applies psi or phi once per term.
The classical LR sweep compares the two routes that ``lr_paths`` and
``lr_lattice`` serve, triple by triple.  The ``all`` suite ends with the
second oracle: each signed-sum row against ``fusion_kac_walton``'s.
"""

from __future__ import annotations

import time

from .coefficients import (
    _fusion_row,
    _fusion_rule,
    _fusion_tableaux,
    _lr_lattice,
    _lr_paths,
    _path_identity_sides,
    _plan_walk,
    fusion_kac_walton,
    gepner_witten,
    omega_terms,
)
from .involutions import _psi, in_D1, in_D2, phi, phi1, phi2
from .partitions import (
    FusionContext,
    Partition,
    _conjugate,
    _format_partition,
    partitions_of,
    partitions_up_to,
    rank_level_dual,
    restricted_partitions_of,
    restricted_supersets,
    subpartitions,
)
from .words import fits

MAX_COUNTEREXAMPLES = 10


class CheckResult:
    """The count of cases one check recorded, and its first counterexamples."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list[dict] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, **context) -> None:
        self.checked += 1
        if not ok and len(self.failures) < MAX_COUNTEREXAMPLES:
            self.failures.append({"check": self.name, **context})

    def merge(self, other: "CheckResult") -> None:
        self.checked += other.checked
        self.failures.extend(other.failures[: MAX_COUNTEREXAMPLES - len(self.failures)])

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "counterexamples": self.failures,
        }


class Report:
    """The checks one suite ran, with its parameters and wall time."""

    def __init__(self, suite: str, params: dict, checks: list[CheckResult], wall_time_s: float):
        self.suite = suite
        self.params = params
        self.checks = checks
        self.wall_time_s = wall_time_s

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "schema": "fusionkit.report/1",
            "command": "verify",
            "suite": self.suite,
            "params": self.params,
            "checks": [c.as_dict() for c in self.checks],
            "ok": self.ok,
            "wall_time_s": round(self.wall_time_s, 3),
        }

    def to_json(self) -> str:
        import json  # loaded only where a report is written
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _merge_check_lists(parts: list[list[CheckResult]]) -> list[CheckResult]:
    merged: dict[str, CheckResult] = {}  # first-seen order
    for chunk in parts:
        for check in chunk:
            merged.setdefault(check.name, CheckResult(check.name)).merge(check)
    return list(merged.values())


def _info(la, mu, nu, ctx: FusionContext | None = None) -> dict:
    """Counterexample context of a normalized triple; the keys also name the triple."""
    info = {
        "lambda": _format_partition(la),
        "mu": _format_partition(mu),
        "nu": _format_partition(nu),
    }
    if ctx is not None:
        info.update(n=ctx.n, k=ctx.k)
    return info


def _grid(n_max: int, k_max: int, bound: int) -> list[tuple[int, int, int]]:
    """One work item per (n, k) with 2 <= n <= n_max and 1 <= k <= k_max."""
    return [(n, k, bound) for n in range(2, n_max + 1) for k in range(1, k_max + 1)]


def _mu_units(n_max: int, k_max: int, size_max: int, max_cols: int | None = None):
    """One work item (n, k, size_max, (mu,)) per mu of ``_shapes``, in ``_grid``
    order; an (n, k) without shapes keeps one item with no mu, so its checks are listed."""
    units = []
    for n, k, _ in _grid(n_max, k_max, size_max):
        mus = _shapes(FusionContext(n, k), size_max, max_cols)
        units += [(n, k, size_max, tuple(mus[i : i + 1])) for i in range(max(len(mus), 1))]
    return units


def _shapes(ctx: FusionContext, size_max: int, max_cols: int | None = None):
    """Nonempty restricted mu with |mu| <= size_max (and at most ``max_cols``
    columns), listed deterministically."""
    return [
        mu
        for total in range(1, size_max + 1)
        for mu in restricted_partitions_of(total, ctx)
        if max_cols is None or mu[0] <= max_cols
    ]


def _rows(ctx: FusionContext, mus, size_max: int):
    """Restricted (la, mu, nus) with mu from ``mus``, and nus the restricted
    nu with nu/la of size |mu| and |nu| <= size_max, in sweep order."""
    for mu in mus:
        for la_size in range(0, size_max - sum(mu) + 1):
            for la in restricted_partitions_of(la_size, ctx):
                yield la, mu, restricted_supersets(la, sum(mu), ctx)


def _involution_laws(terms, inv, involution: CheckResult, sign_flip: CheckResult, info):
    """Record that ``inv`` squares to the identity and flips the sign of each
    term it moves; returns the fixed terms, in term order.

    ``inv`` runs once per term: the image of an image is read from the
    table of images.  An image outside ``terms`` has no entry there, so it
    fails the square law: an involution of the terms maps them onto themselves.
    """
    images = {term: inv(term) for term in terms}
    fixed = []
    for term in terms:
        image = images[term]
        back = images.get(image)
        involution.record(back == term, **info, sigma=list(term.sigma))
        if image == term:
            fixed.append(term)
        else:
            sign_flip.record(image.sign == -term.sign, **info)
    return fixed


# ---------------------------------------------------------------------------
# classical sweeps

def classical_lr_checks(size_max: int) -> list[CheckResult]:
    """Fitting-path counts agree with lattice-word counts for |nu| <= size_max."""
    agree = CheckResult("lr_paths_equals_lr_lattice")
    for nu in partitions_up_to(size_max):
        if not nu:
            continue
        subs = list(subpartitions(nu))
        for la in subs:
            # by LR symmetry a nonzero coefficient has mu inside nu, so this misses none
            for mu in sorted(m for m in subs if sum(la) + sum(m) == sum(nu)):
                a, b = _lr_paths(la, mu, nu), _lr_lattice(la, mu, nu)
                if a or b:
                    agree.record(a == b, **_info(la, mu, nu), paths=a, lattice=b)
    return [agree]


def _classical_involution_chunk(args) -> list[CheckResult]:
    (nu,) = args
    involution = CheckResult("psi_squared_identity")
    sign_flip = CheckResult("psi_reverses_sign")
    fixed_points = CheckResult("psi_fixed_points_are_fitting")
    signed_sum = CheckResult("signed_sum_equals_fitting_count")
    for la in subpartitions(nu):
        rest = sum(nu) - sum(la)
        if rest == 0:
            continue
        for mu in partitions_of(rest):
            info = _info(la, mu, nu)
            terms = list(omega_terms(la, mu, nu))
            total = sum(term.sign for term in terms)
            fixed = _involution_laws(terms, lambda t: _psi(t, mu), involution, sign_flip, info)
            for term in fixed:
                ok = term.sigma == tuple(range(1, len(term.sigma) + 1)) and fits(term.path, mu)
                fixed_points.record(ok, **info)
            expected = _lr_paths(la, mu, nu)  # la inside nu, |la| + |mu| = |nu|
            signed_sum.record(
                total == expected and len(fixed) == expected,
                **info,
                signed=total,
                fixed=len(fixed),
                lr=expected,
            )
    return [involution, sign_flip, fixed_points, signed_sum]


def classical_involution_checks(size_max: int, jobs: int = 1) -> list[CheckResult]:
    """Involution laws and the signed sum over every triple with |nu| <= size_max."""
    work = [(nu,) for nu in partitions_up_to(size_max) if nu]
    return _run_chunks(_classical_involution_chunk, work, jobs)


# ---------------------------------------------------------------------------
# fusion sweeps

def _fusion_chunk(args) -> list[CheckResult]:
    n, k, size_max, mus = args
    ctx = FusionContext(n, k)
    involution = CheckResult("phi_squared_identity")
    sign_flip = CheckResult("phi_reverses_sign")
    image_d2 = CheckResult("phi1_image_in_D2")
    round_trip_1 = CheckResult("phi2_after_phi1_identity")
    round_trip_2 = CheckResult("phi1_after_phi2_identity")
    fixed_eq = CheckResult("fixed_points_equal_oracle")
    rule_eq = CheckResult("rule_equals_oracle")
    tableaux_eq = CheckResult("tableaux_equal_rule")
    bound = CheckResult("fusion_at_most_classical")
    big_level = CheckResult("fusion_equals_classical_at_big_level")
    vacuous = CheckResult("fusion_equals_classical_when_unobstructed")
    checks = [
        involution,
        sign_flip,
        image_d2,
        round_trip_1,
        round_trip_2,
        fixed_eq,
        rule_eq,
        tableaux_eq,
        bound,
        big_level,
        vacuous,
    ]
    for la, mu, nus in _rows(ctx, mus, size_max):
        row, chains = _fusion_row(la, mu, ctx), _chain_totals(la, mu, ctx)
        for nu in nus:
            info = _info(la, mu, nu, ctx)
            oracle = row.get(nu, 0)
            rule = _fusion_rule(la, mu, nu, ctx)
            rule_eq.record(rule == oracle, **info, rule=rule, oracle=oracle)
            tab = _fusion_tableaux(la, mu, nu, ctx)
            tableaux_eq.record(tab == rule, **info, tableaux=tab, rule=rule)
            classical = _lr_paths(la, mu, nu)
            bound.record(oracle <= classical, **info, oracle=oracle, classical=classical)
            if k >= sum(la) + sum(mu):
                big_level.record(oracle == classical, **info, oracle=oracle, classical=classical)
            held, every = chains.get(nu, (0, 0))
            if held == every:  # no chain of any term meets an unrestricted boundary
                vacuous.record(oracle == classical, **info, oracle=oracle, classical=classical)
            if mu[0] != 2 or len(mu) == ctx.n:
                continue  # the involution acts on genuinely two-column shapes below n rows
            terms = list(omega_terms(la, mu, nu, ctx))
            fixed = _involution_laws(terms, lambda t: phi(t, ctx, mu), involution, sign_flip, info)
            for term in terms:
                path = term.path
                if in_D1(path, ctx):
                    img = phi1(path, ctx)
                    image_d2.record(in_D2(img, ctx), **info)
                    round_trip_1.record(phi2(img, ctx) == path, **info)
                if path.ascents[0] >= path.ascents[1] and in_D2(path, ctx):
                    img = phi2(path, ctx)
                    round_trip_2.record(in_D1(img, ctx) and phi1(img, ctx) == path, **info)
            fixed_eq.record(len(fixed) == oracle, **info, fixed=len(fixed), oracle=oracle)
    return checks


def _chain_totals(la, mu, ctx: FusionContext) -> dict[Partition, tuple[int, int]]:
    """Per nu, the unsigned totals (restricted, unrestricted) of the strip
    chains from la over every term's composition: two unsigned walks of the
    plan.  Unrestricted chains keep n rows but may take any span, so the two
    agree exactly when no boundary is obstructed."""
    held = _plan_walk(la, mu, ctx, signed=False)  # among the unrestricted chains
    # no shape on a chain spans more than |la| + |mu|, so this level bounds nothing
    every = _plan_walk(la, mu, FusionContext(ctx.n, ctx.k + sum(la) + sum(mu)), signed=False)
    return {s: (held.get(s, 0), count) for s, count in every.items()}


def fusion_involution_checks(
    n_max: int, k_max: int, size_max: int, jobs: int = 1
) -> list[CheckResult]:
    return _run_chunks(_fusion_chunk, _mu_units(n_max, k_max, size_max, 2), jobs)


def _monotone_chunk(args) -> list[CheckResult]:
    n, k, size_max, mus = args
    ctx = FusionContext(n, k)
    up = FusionContext(n, k + 1)
    monotone = CheckResult("fusion_monotone_in_level")
    for la, mu, nus in _rows(ctx, mus, size_max):
        low_row, high_row = _fusion_row(la, mu, ctx), _fusion_row(la, mu, up)
        for nu in nus:
            low, high = low_row.get(nu, 0), high_row.get(nu, 0)
            monotone.record(
                low <= high, **_info(la, mu, nu, ctx), at_level=low, at_next_level=high
            )
    return [monotone]


def monotone_checks(n_max: int, k_max: int, size_max: int, jobs: int = 1) -> list[CheckResult]:
    """One- and two-column shapes: the coefficient never drops as k grows."""
    return _run_chunks(_monotone_chunk, _mu_units(n_max, k_max, size_max, 2), jobs)


def _duality_chunk(args) -> list[CheckResult]:
    n, k, size_max, mus = args
    ctx = FusionContext(n, k)
    invariance = CheckResult("duality_invariance")
    dual_conjugate = CheckResult("dual_of_low_shape_is_conjugate")
    for mu in mus:
        if n >= 3 and len(mu) <= 2:
            dual_conjugate.record(
                rank_level_dual(mu, ctx) == _conjugate(mu), **_info((), mu, (), ctx)
            )
    for la, mu, nus in _rows(ctx, mus, size_max):
        row = _fusion_row(la, mu, ctx)
        dual_row = _fusion_row(rank_level_dual(la, ctx), rank_level_dual(mu, ctx), ctx.dual())
        for nu in nus:
            lhs, rhs = row.get(nu, 0), dual_row.get(rank_level_dual(nu, ctx), 0)
            info = _info(la, mu, nu, ctx)
            invariance.record(lhs == rhs, **info, value=lhs, dual_value=rhs)
    return [invariance, dual_conjugate]


def duality_checks(n_max: int, k_max: int, size_max: int, jobs: int = 1) -> list[CheckResult]:
    return _run_chunks(_duality_chunk, _mu_units(n_max, k_max, size_max), jobs)


def _identity_chunk(args) -> list[CheckResult]:
    n, k, skew_max = args
    ctx = FusionContext(n, k)
    identity = CheckResult("restricted_path_identity")
    for la in _base_shapes(ctx):
        rows = {}  # la's fusion rows, shared by every nu over it
        for extra in range(0, skew_max + 1):
            for nu in restricted_supersets(la, extra, ctx):
                lhs, rhs = _path_identity_sides(la, nu, ctx, rows)
                identity.record(lhs == rhs, **_info(la, (), nu, ctx), lhs=lhs)
    return [identity]


def _base_shapes(ctx: FusionContext):
    """Restricted shapes with empty last row: class representatives, since
    adding a full column shifts every object in the identity equally."""
    out = [()]
    for total in range(1, (ctx.n - 1) * ctx.k + 1):
        for la in partitions_of(total, max_part=ctx.k, max_len=ctx.n - 1):
            out.append(la)
    return out


def path_identity_checks(n_max: int, k_max: int, skew_max: int, jobs: int = 1) -> list[CheckResult]:
    return _run_chunks(_identity_chunk, _grid(n_max, k_max, skew_max), jobs)


# ---------------------------------------------------------------------------
# two-row closed form

def _gepner_witten_chunk(args) -> list[CheckResult]:
    n, k, size_max, mus = args
    ctx = FusionContext(n, k)
    closed_form = CheckResult("gepner_witten_equals_oracle")
    for la, mu, nus in _rows(ctx, mus, size_max):
        row = _fusion_row(la, mu, ctx)
        for nu in nus:
            formula, oracle = gepner_witten(la, mu, nu, k), row.get(nu, 0)
            closed_form.record(
                formula == oracle, **_info(la, mu, nu, ctx), formula=formula, oracle=oracle
            )
    return [closed_form]


def gepner_witten_checks(k_max: int, size_max: int) -> list[CheckResult]:
    """At n = 2 the closed form ``gepner_witten`` equals the signed sum, for
    k <= k_max and |nu| <= size_max.  Serial: the whole sweep is too small
    for a pool to pay for itself."""
    return _run_chunks(_gepner_witten_chunk, _mu_units(2, k_max, size_max), 1)


# ---------------------------------------------------------------------------
# the second oracle

def _oracle_chunk(args) -> list[CheckResult]:
    n, k, size_max, mus = args
    ctx = FusionContext(n, k)
    second = CheckResult("fusion_expand_equals_kac_walton")
    for la, mu, _ in _rows(ctx, mus, size_max):
        row, reference = _fusion_row(la, mu, ctx), fusion_kac_walton(la, mu, ctx)
        differ = sorted(
            nu for nu in row.keys() | reference.keys() if row.get(nu) != reference.get(nu)
        )
        info = {"lambda": _format_partition(la), "mu": _format_partition(mu), "n": n, "k": k}
        second.record(not differ, **info, differ_at=[_format_partition(nu) for nu in differ])
    return [second]


def oracle_checks(n_max: int, k_max: int, size_max: int, jobs: int = 1) -> list[CheckResult]:
    """Each signed-sum row (la, mu) with |la| + |mu| <= size_max equals the
    Kac-Walton row, which builds no path, strip or plan."""
    return _run_chunks(_oracle_chunk, _mu_units(n_max, k_max, size_max), jobs)


# ---------------------------------------------------------------------------
# suite runner

def _run_chunks(fn, work, jobs: int) -> list[CheckResult]:
    if jobs <= 1 or len(work) <= 1:
        parts = [fn(item) for item in work]
    else:
        from concurrent.futures import ProcessPoolExecutor  # costly to import

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            parts = list(pool.map(fn, work))
    return _merge_check_lists(parts)


def run_suite(
    suite: str,
    n_max: int = 3,
    k_max: int = 2,
    size_max: int = 6,
    jobs: int = 1,
) -> Report:
    # smaller values leave the (n, k) grid or the sizes empty, or count no workers
    for bound, value, least in (
        ("n_max", n_max, 2), ("k_max", k_max, 1), ("size_max", size_max, 0), ("jobs", jobs, 0)
    ):
        if value < least:
            raise ValueError(f"{bound} must be at least {least}, got {value}")
    started = time.perf_counter()
    checks: list[CheckResult] = []
    if suite in ("involution", "all"):
        checks += classical_lr_checks(min(size_max, 8))
        checks += classical_involution_checks(min(size_max, 8), jobs)
        checks += fusion_involution_checks(n_max, k_max, size_max, jobs)
    if suite in ("monotone", "all"):
        checks += monotone_checks(n_max, k_max, size_max, jobs)
    if suite in ("duality", "all"):
        checks += duality_checks(n_max, k_max, min(size_max, 8), jobs)
    if suite in ("paths-identity", "all"):
        checks += path_identity_checks(
            min(n_max, 3), min(k_max, 3), min(size_max, 5), jobs
        )
    if suite in ("gepner-witten", "all"):
        checks += gepner_witten_checks(k_max=max(k_max, 4), size_max=min(size_max + 2, 10))
    if suite == "all":
        checks += oracle_checks(n_max, k_max, min(size_max, 8), jobs)
    if not checks:  # on a nonempty grid every suite reports its checks
        raise ValueError(f"unknown suite {suite!r}")
    return Report(
        suite=suite,
        params={"n_max": n_max, "k_max": k_max, "size_max": size_max, "jobs": jobs},
        checks=checks,
        wall_time_s=time.perf_counter() - started,
    )
