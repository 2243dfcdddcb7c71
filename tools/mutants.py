"""A catalogue of mutants of fusionkit, and a runner that checks that the tests kill them.

    python tools/mutants.py [ID ...]

Each mutant replaces one exact snippet of one file under ``src/`` and names the
tests that must fail on it.  The runner copies ``src/``, ``tests/`` and the
``reports/`` that the tests read to a temporary directory, applies one mutant
at a time to the copy, runs the named tests there with ``PYTHONPATH`` on the
copy's ``src``, and prints one JSON object: killed or survived per mutant, and
a summary.  A mutant is killed when pytest reports a failed test (exit status 1).

An equivalent mutant changes nothing the tests can observe; it carries its
reason, and the runner runs its tests to show that it survives.  The exit
status is 0 when every other mutant is killed and every equivalent one
survives.  Standard library only; ``tests/test_package.py`` checks, in tier-1,
that each snippet still occurs exactly once in its file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "id file snippet replacement tests equivalent", defaults=(None,))

INV, COEF = "src/fusionkit/involutions.py", "src/fusionkit/coefficients.py"
WORDS, PARTS = "src/fusionkit/words.py", "src/fusionkit/partitions.py"
PSI_LAWS = "tests/test_involutions.py::test_psi_laws_on_one_random_term"
PHI_LAWS = "tests/test_involutions.py::test_phi_laws_on_one_random_term"
D2_IN_FULL = "tests/test_involutions.py::test_in_D2_equals_the_four_conditions_evaluated_in_full"
PSI_SIGMA = "r + 1 if v == r else r if v == r + 1 else v for v in term.sigma"

MUTANTS = [
    Mutant(
        "read-block-2-from-its-start", INV, "reversed(steps[p:]))", "iter(steps[p:]))",
        ["tests/test_involutions.py::test_read_merges_the_pair_word_with_its_boxes"],
    ),
    Mutant(
        "word-of-tie-puts-block-2-first", WORDS,
        "if a[i - 1] <= b[j - 1]:", "if a[i - 1] < b[j - 1]:",
        ["tests/test_words.py"],
    ),
    Mutant(
        "word-of-allows-a-repeated-label", WORDS,
        "if any(map(le, labels, labels[1:])):", "if any(a < b for a, b in zip(labels, labels[1:])):",
        ["tests/test_involutions.py::test_read_rejects_a_block_that_does_not_strictly_decrease"],
    ),
    Mutant(
        "render-marks-the-next-letter", WORDS,
        "if i == mark else ch", "if i + 1 == mark else ch",
        ["tests/test_words.py::test_render_with_marker"],
    ),
    Mutant(
        "psi-swaps-the-next-values", INV, PSI_SIGMA,
        "r + 2 if v == r + 1 else r + 1 if v == r + 2 else v for v in term.sigma",
        [PSI_LAWS],
    ),
    Mutant(
        "psi-swaps-positions-not-values", INV, f"sigma = tuple({PSI_SIGMA})",
        "sigma = tuple(term.sigma[: r - 1]) + (term.sigma[r], term.sigma[r - 1])"
        " + tuple(term.sigma[r + 1 :])",
        [PSI_LAWS],
    ),
    Mutant(
        "psi-flips-the-wrong-end", INV,
        "free[-d:] if d > 0 else free[:-d]", "free[:d] if d > 0 else free[d:]",
        [PSI_LAWS],
    ),
    Mutant(
        "too-few-letters-guard-off-by-one", INV,
        "if len(free) < abs(d):", "if len(free) <= abs(d):",
        ["tests/test_involutions.py::test_one_flip_equals_the_operators_iterated"],
    ),
    Mutant(
        "splice-swaps-the-blocks", INV,
        "blocks[blk - 1].append(box)", "blocks[2 - blk].append(box)",
        [PSI_LAWS, PHI_LAWS],
    ),
    Mutant(
        "d1-keeps-the-top-unpaired-letter", INV,
        "kept = next(i for i, box in enumerate(boxes) if box[1] == nu[0] and w.partner[i] is None)",
        "kept = [i for i, box in enumerate(boxes) if box[1] == nu[0] and w.partner[i] is None][-1]",
        [PHI_LAWS],
    ),
    Mutant(
        "d2-without-the-left-neighbour-exit", INV,
        "if (row, col - 1) in boxes and w.partner[kept]", "if False and w.partner[kept]",
        [D2_IN_FULL, "tests/test_involutions.py::test_phi_splice_equals_a_full_rebuild"],
    ),
    Mutant(
        "d2-first-letter-only-unpaired", INV, " or w.partner[0] == kept):", "):",
        [D2_IN_FULL, PHI_LAWS],
    ),
    Mutant(
        "phi-keeps-sigma", INV,
        "swap = (2, 1) if tuple(term.sigma) == (1, 2) else (1, 2)", "swap = tuple(term.sigma)",
        [PHI_LAWS],
    ),
    Mutant(
        "rule-without-the-d2-subtraction", COEF,
        "if not (level_corrected and in_D2(path, ctx)):", "if True:",
        ["tests/test_coefficients.py"],
    ),
    Mutant(
        "rule-without-pair-ok", COEF,
        "strip_chains(la, nu, mu_conj, ctx, pair_ok=_pair_balanced)",
        "strip_chains(la, nu, mu_conj, ctx)",
        ["tests/test_coefficients.py"],
    ),
    Mutant(
        "tableaux-without-pair-ok", COEF,
        "for strips in strip_chains(la, nu, _conjugate(mu), pair_ok=_pair_lattice)",
        "for strips in strip_chains(la, nu, _conjugate(mu))",
        ["tests/test_coefficients.py"],
    ),
    Mutant(
        "pair-balanced-length-strict", COEF,
        "return len(strip) <= len(prev_strip) and", "return len(strip) < len(prev_strip) and",
        ["tests/test_coefficients.py"],
    ),
    Mutant(
        "violation-on-equal-labels", INV,
        "labels[ends[r - 1] - depth] > labels[ends[r] - depth]",
        "labels[ends[r - 1] - depth] >= labels[ends[r] - depth]",
        ["tests/test_involutions.py::test_equal_entries_in_a_row_are_no_violation"],
    ),
    Mutant(  # adjacent strips of a chain never tie at one rank: only the spot check sees it
        "pair-balanced-label-strict", COEF,
        "all(c - r <= d - s for", "all(c - r < d - s for",
        ["tests/test_coefficients.py::test_pair_test_equals_the_bracket_word"],
    ),
    Mutant(
        "plan-state-dropped-one-row-early", COEF,
        "heights[low] + i + 1 <= n", "heights[low] + i + 2 <= n",
        ["tests/test_coefficients.py"],
    ),
    Mutant(  # equivalent for the signed rows, but _plan_sigmas reads the same plan
        "plan-state-dropped-one-row-late", COEF,
        "heights[low] + i + 1 <= n", "heights[low] + i <= n",
        ["tests/test_coefficients.py::test_plan_sigmas_values"],
    ),
    Mutant(
        "violation-longer-column-strict", INV, "if b >= depth > a:", "if b > depth > a:",
        ["tests/test_involutions.py::test_a_longer_right_column_is_a_violation"],
    ),
    Mutant(
        "d1-without-the-first-row-letter-exit", INV,
        "if w.partner[next(i for i, box in enumerate(boxes) if box[0] == 1)] is not None:",
        "if False:",
        ["tests/test_involutions.py::test_in_D1_needs_unpaired_bot"],
    ),
    Mutant(
        "d2-row-n-step-in-either-block", INV, " or ctx.n not in rows[: path.ascents[0]]:", ":",
        [D2_IN_FULL],
    ),
    Mutant(
        "d2-without-the-edge-test", INV,
        "    if not is_edge(nu, ctx):\n        return None\n    w, boxes = _read(path)\n    _trace(",
        "    w, boxes = _read(path)\n    _trace(",
        [D2_IN_FULL, PHI_LAWS],
    ),
    Mutant(
        "laws-forgive-an-image-outside-the-terms", "src/fusionkit/verify.py",
        "back = images.get(image)", "back = images.get(image, term)",
        ["tests/test_verify.py::test_an_image_outside_the_terms_breaks_the_square_law"],
    ),
    Mutant(
        "dp-sign-counts-the-columns-left-of-j", COEF,
        "-1 if (used >> j).bit_count() % 2 else 1",
        "-1 if (used & ((1 << j) - 1)).bit_count() % 2 else 1",
        ["tests/test_kac_walton.py::test_signed_sum_equals_kac_walton"],
    ),
    Mutant(
        "dp-window-one-past-the-lowest-unused", COEF,
        "for j in range(_lowest_unused(used), m):", "for j in range(_lowest_unused(used) + 1, m):",
        ["tests/test_coefficients.py::test_plan_sigmas_values"],
    ),
    Mutant(
        "plan-row-zero-unbounded", COEF, "[0] if len(mu) <= n else []", "[0]",
        ["tests/test_coefficients.py::test_plan_is_keyed_by_the_clamped_cap"],
    ),
    Mutant(
        "clamp-starts-at-len-mu", COEF, "low, high = len(mu) - 1,", "low, high = len(mu),",
        ["tests/test_coefficients.py::test_plan_is_keyed_by_the_clamped_cap"],
    ),
    Mutant(
        "clamp-ends-one-early", COEF,
        "len(mu) + (mu[0] if mu else 0) - 1", "len(mu) + (mu[0] if mu else 0) - 2",
        ["tests/test_coefficients.py::test_plan_is_keyed_by_the_clamped_cap"],
    ),
    Mutant(
        "plan-sigmas-without-reversed", COEF,
        "reversed(plan[len(comp)].get(used, ()))", "plan[len(comp)].get(used, ())",
        ["tests/test_coefficients.py::test_plan_sigmas_values"],
    ),
    Mutant(
        "unsigned-walk-keeps-the-sign", COEF, "sign if signed else 1", "sign",
        ["tests/test_coefficients.py::test_unsigned_walk_tallies_the_chains"],
    ),
    Mutant(
        "walk-keeps-trailing-zeros", COEF,
        "return {shape[: n - shape.count(0)]: count for shape, count in frontier.items()}",
        "return {shape: count for shape, count in frontier.items()}",
        ["tests/test_coefficients.py::test_fusion_expand_equals_oracle"],
    ),
    Mutant(
        "exclusion-ones-under-not-strict", COEF,
        "if ones_under >= len(two_rows):", "if ones_under > len(two_rows):",
        ["tests/test_acceptance.py::test_criterion_04_tableau_recount"],
    ),
    Mutant(
        "exclusion-dominance-at-the-final-2", COEF,
        "if c1 <= c2 and i != last2:", "if c1 <= c2:",
        ["tests/test_kac_walton.py::test_fast_routes_equal_kac_walton"],
    ),
    Mutant(
        "wrap-strict", COEF, "entry[upper] > entry[lower]", "entry[upper] >= entry[lower]",
        ["tests/test_coefficients.py::test_fusion_at_su3_level_two"],
    ),
    Mutant(
        "kac-walton-counts-a-point-on-the-wall", COEF,
        "if sign and x[0] - x[-1] < level:", "if sign and x[0] - x[-1] <= level:",
        ["tests/test_kac_walton.py::test_reference_spots"],
    ),
    Mutant(
        "strip-above-row-strict", "src/fusionkit/paths.py",
        "(row == 1 or current[row - 2] >= col)", "(row == 1 or current[row - 2] > col)",
        ["tests/test_paths.py"],
    ),
    Mutant(
        "kac-walton-wall-one-out", COEF,
        "n, level = ctx.n, ctx.n + ctx.k", "n, level = ctx.n, ctx.n + ctx.k + 1",
        ["tests/test_kac_walton.py"],
    ),
    Mutant(
        "cli-imports-json", "src/fusionkit/cli.py", "import io\n", "import io\nimport json\n",
        ["tests/test_package.py::test_importing_cli_and_verify_loads_no_costly_module"],
    ),
    Mutant(
        "rule-corrects-n-row-mu", COEF,
        "len(mu_conj) == 2 and len(mu) < ctx.n", "len(mu_conj) == 2 and len(mu) <= ctx.n",
        ["tests/test_coefficients.py", "tests/test_acceptance.py"],
        "no fitting path of a two-column mu with n rows was found in D2 (3,125 paths with"
        " n <= 6, k <= 5, |nu| <= 13); unproven",
    ),
    Mutant(
        "d1-first-block-may-hold-the-first-row-step", INV,
        "if 1 in rows[:p] or ctx.n in rows[:p] or", "if ctx.n in rows[:p] or",
        [PHI_LAWS, "tests/test_involutions.py::test_phi_splice_equals_a_full_rebuild"],
        "a first-block box (1, c) has that block's largest label and block 2's (1, c + 1)"
        " follows it with only ')' between, so its '(' pairs and the first-row letter exit fires",
    ),
    Mutant(
        "apply-without-the-restricted-check", INV,
        "if not _restricted(shape, ctx):", "if not (_restricted(shape, ctx) or True):",
        [PHI_LAWS, "tests/test_involutions.py::test_phi_splice_equals_a_full_rebuild"],
        "a guard on an internal fault: phi's moves keep every boundary of a restricted term"
        " restricted, so no term reaches it",
    ),
    Mutant(
        "partitions-of-ignores-max-part-on-the-first-row", PARTS,
        "parts[-1] if parts else cap", "parts[-1] if parts else total",
        ["tests/test_partitions.py::test_partitions_of_equals_the_reference"],
    ),
    Mutant(
        "partitions-of-room-test-strict", PARTS,
        "rest >= (parts[-1] - 1) * (slots - len(parts))",
        "rest > (parts[-1] - 1) * (slots - len(parts))",
        ["tests/test_partitions.py::test_partitions_of_equals_the_reference"],
    ),
    Mutant(
        "subpartitions-drops-its-sort", PARTS,
        "sorted((p for p in box if _contains(nu, p)), reverse=True)",
        "[p for p in box if _contains(nu, p)]",
        ["tests/test_partitions.py::test_subpartitions_equals_the_reference"],
    ),
    Mutant(
        "lift-pads-n-minus-one-rows", PARTS, "(m,) * (n - len(q))", "(m,) * (n - 1 - len(q))",
        ["tests/test_partitions.py::test_restricted_partitions_of_equals_the_filter"],
    ),
    Mutant(
        "lift-skips-the-top-layer", PARTS,
        "for m in range(total // n + 1)", "for m in range(total // n)",
        ["tests/test_partitions.py::test_restricted_partitions_of_equals_the_filter"],
    ),
    Mutant(
        "base-shapes-miss-the-full-box", "src/fusionkit/verify.py",
        "range((ctx.n - 1) * ctx.k + 1)", "range((ctx.n - 1) * ctx.k)",
        ["tests/test_cli.py::test_verify_smoke_all"],
    ),
]


def _env(copy: str) -> dict:
    # no bytecode, so a later mutant of the same size and second reads no stale .pyc
    return dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")


def run(mutant: Mutant, copy: str) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant applied to ``copy``."""
    path = os.path.join(copy, mutant.file)
    with open(path) as f:
        original = f.read()
    if original.count(mutant.snippet) != 1:
        return f"error: the snippet occurs {original.count(mutant.snippet)} times"
    with open(path, "w") as f:
        f.write(original.replace(mutant.snippet, mutant.replacement))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=_env(copy), capture_output=True, text=True, timeout=600,
        )
    except subprocess.TimeoutExpired:
        return "error: timed out"
    finally:
        with open(path, "w") as f:
            f.write(original)
    if done.returncode in (0, 1):
        return "survived" if done.returncode == 0 else "killed"
    return f"error: pytest exited {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    wanted = set(sys.argv[1:])
    unknown = wanted - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    results = []
    with tempfile.TemporaryDirectory() as copy:
        for part in ("src", "tests", "reports"):
            shutil.copytree(
                os.path.join(ROOT, part), os.path.join(copy, part),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        probe = subprocess.run(
            [sys.executable, "-c", "import fusionkit; print(fusionkit.__file__)"],
            cwd=copy, env=_env(copy), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(os.path.join(copy, "src") + os.sep):
            print(f"fusionkit is not imported from the copy: {probe.stdout}{probe.stderr}",
                  file=sys.stderr)
            return 2
        for mutant in MUTANTS:
            if wanted and mutant.id not in wanted:
                continue
            status = run(mutant, copy)
            expected = "survived" if mutant.equivalent else "killed"
            results.append({
                "id": mutant.id, "file": mutant.file, "status": status,
                "expected": expected, "equivalent": mutant.equivalent,
            })
    unexpected = [r["id"] for r in results if r["status"] != r["expected"]]
    summary = {
        "mutants": len(results),
        "killed": sum(r["status"] == "killed" for r in results),
        "survived": sum(r["status"] == "survived" for r in results),
        "equivalent": sum(r["equivalent"] is not None for r in results),
        "unexpected": unexpected,
    }
    print(json.dumps({"results": results, "summary": summary}, indent=1))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
