"""Acceptance sweep: one test per criterion, printing a pass/fail line each.

Every expected value below was recomputed from the signed-sum oracle or an
independent brute-force route before being frozen; the sweep bounds are the
contract bounds.
"""

import importlib.util
from pathlib import Path

import pytest

from fusionkit.coefficients import fusion_expand, fusion_oracle
from fusionkit.partitions import FusionContext, partitions_up_to, subpartitions
from fusionkit.verify import (
    classical_involution_checks,
    classical_lr_checks,
    duality_checks,
    fusion_involution_checks,
    monotone_checks,
    path_identity_checks,
)

REPORTS = Path(__file__).resolve().parent.parent / "reports"
REPORT_PATH = REPORTS / "gepner_witten_n2.md"


def _conclude(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _summarize(checks) -> tuple[bool, str]:
    ok = all(c.passed for c in checks)
    detail = ", ".join(f"{c.name}={c.checked}" for c in checks)
    bad = [f for c in checks for f in c.failures[:2]]
    if bad:
        detail += f"; counterexamples: {bad}"
    return ok, detail


@pytest.fixture(scope="module")
def fusion_sweep():
    return {c.name: c for c in fusion_involution_checks(4, 3, 9)}


def test_criterion_01_lr_equivalence():
    checks = classical_lr_checks(10)
    ok, detail = _summarize(checks)
    _conclude("criterion 1 (LR path/lattice equivalence, |nu| <= 10)", ok, detail)
    # a sweep that skipped or repeated a triple would move this count
    assert [(c.name, c.checked) for c in checks] == [("lr_paths_equals_lr_lattice", 5461)]


def test_criterion_02_classical_involution():
    checks = classical_involution_checks(8)
    ok, detail = _summarize(checks)
    _conclude("criterion 2 (classical involution suite, |nu| <= 8)", ok, detail)
    # a path rebuild that dropped or duplicated terms would move these counts
    assert [(c.name, c.checked) for c in checks] == [
        ("psi_squared_identity", 59308),
        ("psi_reverses_sign", 58024),
        ("psi_fixed_points_are_fitting", 1284),
        ("signed_sum_equals_fitting_count", 4069),
    ]


def test_criterion_03_fusion_involution(fusion_sweep):
    names = [
        "phi_squared_identity",
        "phi_reverses_sign",
        "phi1_image_in_D2",
        "phi2_after_phi1_identity",
        "phi1_after_phi2_identity",
        "fixed_points_equal_oracle",
        "rule_equals_oracle",
    ]
    ok, detail = _summarize([fusion_sweep[n] for n in names])
    _conclude("criterion 3 (level-k involution suite, n<=4 k<=3 |nu|<=9)", ok, detail)
    # a work split that dropped or duplicated a mu would move these counts
    assert [(c.name, c.checked) for c in fusion_sweep.values()] == [
        ("phi_squared_identity", 1489),
        ("phi_reverses_sign", 970),
        ("phi1_image_in_D2", 78),
        ("phi2_after_phi1_identity", 78),
        ("phi1_after_phi2_identity", 78),
        ("fixed_points_equal_oracle", 814),
        ("rule_equals_oracle", 2042),
        ("tableaux_equal_rule", 2042),
        ("fusion_at_most_classical", 2042),
        ("fusion_equals_classical_at_big_level", 86),
        ("fusion_equals_classical_when_unobstructed", 1960),
    ]


def test_criterion_04_tableau_recount(fusion_sweep):
    ok, detail = _summarize([fusion_sweep["tableaux_equal_rule"]])
    _conclude("criterion 4 (skew-filling recount equals the path rule)", ok, detail)


def test_criterion_05_classical_bounds(fusion_sweep):
    names = [
        "fusion_at_most_classical",
        "fusion_equals_classical_when_unobstructed",
        "fusion_equals_classical_at_big_level",
    ]
    ok, detail = _summarize([fusion_sweep[n] for n in names])
    _conclude("criterion 5 (fusion vs classical bounds)", ok, detail)


def test_criterion_06_monotone_in_level():
    ok, detail = _summarize(monotone_checks(4, 4, 8))
    _conclude("criterion 6 (monotone in the level, k = 1..4)", ok, detail)


def test_criterion_07_rank_level_duality():
    ok, detail = _summarize(duality_checks(4, 4, 8))
    _conclude("criterion 7 (rank-level duality invariance, n,k <= 4, |nu| <= 8)", ok, detail)


def test_criterion_08_restricted_path_identity():
    ok, detail = _summarize(path_identity_checks(3, 3, 5))
    _conclude("criterion 8 (restricted path identity, n,k <= 3, |skew| <= 5)", ok, detail)


def test_criterion_09_positivity(fusion_sweep):
    # the oracle raises on any negative value, so a completed sweep is the
    # certificate; re-assert explicitly on a fresh pass
    checked = 0
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            ctx = FusionContext(n, k)
            for mu in [(1,), (2,), (1, 1), (2, 1), (2, 2)]:
                for nu in partitions_up_to(6, (6,) * n):
                    for la in subpartitions(nu):
                        value = fusion_oracle(la, mu, nu, ctx)
                        assert value >= 0
                        checked += 1
    _conclude("criterion 9 (oracle positivity)", True, f"explicit={checked}, plus sweep")


def test_criterion_10_su3_level2_table():
    # recomputed by the oracle: the printed constant 2 in the build notes
    # is the classical multiplicity, not the level-2 one (see the ledger)
    table = fusion_expand((2, 1), (2, 1), FusionContext(3, 2))
    expected = {(3, 2, 1): 1, (2, 2, 2): 1}
    _conclude("criterion 10 (worked su(3) level-2 table)", table == expected,
              f"table={table}")


def test_criterion_11_gepner_witten_report():
    # the printed threshold lives only in the script that writes the report
    script = REPORTS / "gepner_witten_n2.py"
    spec = importlib.util.spec_from_file_location(script.stem, script)
    writer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(writer)
    generated = writer.report_markdown(6, 10)
    committed = REPORT_PATH.read_text()
    ok = generated == committed and "Conclusion" in generated
    _conclude("criterion 11 (two-row closed-form comparison report)", ok,
              f"report at {REPORT_PATH}, {len(generated.splitlines())} lines")
