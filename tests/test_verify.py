import pytest

from fusionkit import coefficients, involutions, verify
from fusionkit.coefficients import lr_paths, omega_terms
from fusionkit.involutions import SignedTerm, canonical_violation
from fusionkit.partitions import FusionContext, _restricted
from fusionkit.paths import boundary_shapes, path_to_tableau
from fusionkit.verify import (
    MAX_COUNTEREXAMPLES,
    CheckResult,
    Report,
    _grid,
    _mu_units,
    _rows,
    _shapes,
    classical_involution_checks,
    classical_lr_checks,
    duality_checks,
    fusion_involution_checks,
    gepner_witten_checks,
    monotone_checks,
    oracle_checks,
    path_identity_checks,
)


def test_work_units_follow_the_sweep_order():
    units = [(n, k, mus) for n, k, _, mus in _mu_units(3, 2, 6, 2)]
    assert units == [
        (n, k, (mu,)) for n, k, _ in _grid(3, 2, 6) for mu in _shapes(FusionContext(n, k), 6, 2)
    ]
    # an (n, k) without shapes still lists its checks, with nothing checked
    assert _mu_units(2, 1, 0) == [(2, 1, 0, ())]
    assert [c.checked for c in fusion_involution_checks(2, 1, 0)] == [0] * 11


@pytest.mark.parametrize(
    "sweep", [fusion_involution_checks, monotone_checks, duality_checks, oracle_checks]
)
def test_pool_gives_the_serial_report(sweep):
    # per-mu work units come back from the pool in work order
    serial = [c.as_dict() for c in sweep(3, 2, 6, jobs=1)]
    pooled = [c.as_dict() for c in sweep(3, 2, 6, jobs=2)]
    assert pooled == serial
    assert all(c["checked"] for c in serial)


def _passed(checks) -> dict:
    return {c.name: c.passed for c in checks}


def test_the_image_table_cannot_hide_a_broken_involution(monkeypatch):
    # each sweep applies its involution once per term and reads the image of an
    # image from a table; a wrong image for one sigma must still break the law
    psi, phi = verify._psi, verify.phi
    assert _passed(classical_involution_checks(5))["psi_squared_identity"]
    assert _passed(fusion_involution_checks(3, 2, 6))["phi_squared_identity"]

    def psi_keeps_one_sigma(term, mu):
        # the image path under the old sigma: a term outside the swept set
        image = psi(term, mu)
        return SignedTerm(term.sigma, image.path) if term.sigma == (2, 1, 3) else image

    def phi_fixes_one_sigma(term, ctx, mu):
        return term if term.sigma == (2, 1) else phi(term, ctx, mu)

    monkeypatch.setattr(verify, "_psi", psi_keeps_one_sigma)
    monkeypatch.setattr(verify, "phi", phi_fixes_one_sigma)
    assert not _passed(classical_involution_checks(5))["psi_squared_identity"]
    assert not _passed(fusion_involution_checks(3, 2, 6))["phi_squared_identity"]


def test_an_image_outside_the_terms_breaks_the_square_law(monkeypatch):
    # swapping the positions r, r + 1 of sigma instead of its values r, r + 1 gives
    # the image a sigma that no term has; any transposition still flips the sign,
    # and mapping that image again by the same wrong rule would return the term
    psi = verify._psi

    def psi_swaps_positions(term, mu):
        image = psi(term, mu)
        if image == term:
            return image
        r = canonical_violation(path_to_tableau(term.path), mu)
        sigma = list(term.sigma)
        sigma[r - 1], sigma[r] = sigma[r], sigma[r - 1]
        return SignedTerm(tuple(sigma), image.path)

    monkeypatch.setattr(verify, "_psi", psi_swaps_positions)
    squared = {c.name: c for c in classical_involution_checks(5)}["psi_squared_identity"]
    assert not squared.passed
    assert squared.checked == 606


def test_the_classical_sweep_builds_no_tableau(monkeypatch):
    # the sweep holds normalized mu and finds each violation on the path's own
    # steps: it builds no tableau and no separate pair word, and normalizes nothing
    def forbidden(*args, **kwargs):
        raise AssertionError("the classical sweep repeated work that psi does once")

    for name in ("path_to_tableau", "pair_word", "normalize"):
        monkeypatch.setattr(involutions, name, forbidden, raising=False)
    checks = classical_involution_checks(5)
    assert all(c.passed for c in checks)
    assert [(c.name, c.checked) for c in checks] == [
        ("psi_squared_identity", 606),
        ("psi_reverses_sign", 494),
        ("psi_fixed_points_are_fitting", 112),
        ("signed_sum_equals_fitting_count", 247),
    ]


def test_gepner_witten_check_refutes_the_printed_threshold(monkeypatch):
    (closed_form,) = gepner_witten_checks(4, 7)
    assert (closed_form.name, closed_form.checked, closed_form.passed) == (
        "gepner_witten_equals_oracle", 440, True
    )

    def printed(la, mu, nu, k):
        # the closed form with k where the true threshold has 2k
        threshold = sum(p[0] - p[1] for p in ((*s, 0, 0) for s in (la, mu, nu)))
        return lr_paths(la, mu, nu) if k >= threshold else 0

    monkeypatch.setattr(verify, "gepner_witten", printed)
    (closed_form,) = gepner_witten_checks(4, 7)
    assert not closed_form.passed and closed_form.checked == 440


def test_second_oracle_check_names_the_rows_that_differ(monkeypatch):
    (second,) = oracle_checks(3, 2, 5)
    assert (second.name, second.checked, second.passed) == (
        "fusion_expand_equals_kac_walton", 90, True
    )
    reference = verify.fusion_kac_walton

    def drops_nu_21(la, mu, ctx):
        return {nu: value for nu, value in reference(la, mu, ctx).items() if nu != (2, 1)}

    monkeypatch.setattr(verify, "fusion_kac_walton", drops_nu_21)
    (second,) = oracle_checks(3, 2, 5)
    assert not second.passed and second.checked == 90
    assert second.failures[0] == {
        "check": "fusion_expand_equals_kac_walton",
        "lambda": "1,1", "mu": "1", "n": 2, "k": 1, "differ_at": ["2,1"],
    }


def test_lr_check_compares_both_served_routes(monkeypatch):
    (agree,) = classical_lr_checks(5)
    assert (agree.checked, agree.passed) == (130, True)
    lattice = verify._lr_lattice

    def lattice_drops_one_mu(la, mu, nu):
        return 0 if mu == (2, 1) else lattice(la, mu, nu)

    monkeypatch.setattr(verify, "_lr_lattice", lattice_drops_one_mu)
    (agree,) = classical_lr_checks(5)
    assert not agree.passed and agree.checked == 130
    assert {f["mu"] for f in agree.failures} == {"2,1"}


def test_unobstructed_counts_equal_the_boundary_walk():
    # the sweep's count test against a walk over every unrestricted term
    seen = set()
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            ctx = FusionContext(n, k)
            for la, mu, nus in _rows(ctx, _shapes(ctx, 7), 7):
                chains = verify._chain_totals(la, mu, ctx)
                for nu in nus:
                    walked = [
                        all(_restricted(s, ctx) for s in boundary_shapes(t.path))
                        for t in omega_terms(la, mu, nu)
                    ]
                    held, every = chains.get(nu, (0, 0))
                    assert (held, every) == (sum(walked), len(walked)), (la, mu, nu, ctx)
                    assert (held == every) == all(walked)
                    seen.add(all(walked))
    assert seen == {False, True}


def test_failed_records_name_their_check():
    check = CheckResult("some_identity")
    check.record(True, n=2)
    for value in range(MAX_COUNTEREXAMPLES + 3):
        check.record(False, n=2, value=value)
    assert check.checked == MAX_COUNTEREXAMPLES + 4
    assert check.failures == [
        {"check": "some_identity", "n": 2, "value": value} for value in range(MAX_COUNTEREXAMPLES)
    ]
    # a call site that names the check itself writes the same report
    named = CheckResult("some_identity")
    named.record(True, check="some_identity", n=2)
    for value in range(MAX_COUNTEREXAMPLES + 3):
        named.record(False, check="some_identity", n=2, value=value)
    assert named.failures == check.failures
    reports = [Report("all", {"n_max": 2}, [c], 0.5) for c in (check, named)]
    assert not reports[0].ok
    assert reports[0].to_json() == reports[1].to_json()


def test_path_identity_sweep_normalizes_nothing_again(monkeypatch):
    # its shapes come normalized from the sweep, so neither side of the identity
    # sends them back through coefficients.normalize
    calls = []
    original = coefficients.normalize
    monkeypatch.setattr(coefficients, "normalize", lambda p: calls.append(p) or original(p))
    (identity,) = path_identity_checks(3, 3, 5)
    assert identity.passed and identity.checked
    assert calls == []
