import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fusionkit import cli
from fusionkit.cli import main
from fusionkit.coefficients import fusion_expand
from fusionkit.partitions import FusionContext, format_partition, restricted_partitions_of

SRC = pathlib.Path(cli.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lr_command(capsys):
    code, out, _ = run_cli(capsys, "lr", "2,1", "2,1", "3,2,1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "lr", "1", "1", "2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "lr", "1", "1", "3")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "lr", "2,1", "2,1", "3,2,1", "--method", "lattice")
    assert code == 0 and out.strip() == "2"


def test_lr_rejects_malformed_partition(capsys):
    code, _, err = run_cli(capsys, "lr", "2,x", "1", "3")
    assert code == 2 and "malformed" in err


def test_fusion_command(capsys):
    code, out, _ = run_cli(capsys, "fusion", "2,1,0", "2,1,0", "3,2,1", "--n", "3", "--k", "2")
    assert code == 0 and out.strip() == "1"
    for method in ("oracle", "tableaux"):
        code, out, _ = run_cli(
            capsys, "fusion", "2,1,0", "2,1,0", "3,2,1", "--n", "3", "--k", "2",
            "--method", method,
        )
        assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(
        capsys, "fusion", "1,0,0", "1,1,0", "2,1,0", "--n", "3", "--k", "2",
        "--method", "oracle",
    )
    assert code == 0 and out.strip() == "1"


def test_fusion_rejects_unrestricted(capsys):
    code, _, err = run_cli(capsys, "fusion", "2,1,0", "2,1,0", "4,2,0", "--n", "3", "--k", "2")
    assert code == 2 and "restricted" in err


def test_fusion_unsupported_shape_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "fusion", "1,0,0,0", "3,2,1", "3,2,1,1,0", "--n", "4", "--k", "3"
    )
    assert code == 3 and "two columns" in err


def test_fusion_explain(capsys):
    code, out, _ = run_cli(
        capsys, "fusion", "2,1,0", "2,1,0", "2,2,2", "--n", "3", "--k", "2", "--explain"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    assert len(lines) == 2 and lines[1].startswith("# labels")


def test_table_json_and_determinism(capsys):
    argv = ("table", "--n", "2", "--k", "1", "--mu", "1", "--max-size", "2")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "fusionkit.table/1"
    rows = payload["rows"]
    assert {tuple(sorted(r.items())) for r in rows} == {
        tuple(sorted(r.items()))
        for r in [
            {"lambda": "0", "mu": "1", "nu": "1", "n": 2, "k": 1, "N": 1},
            {"lambda": "1", "mu": "1", "nu": "1,1", "n": 2, "k": 1, "N": 1},
            {"lambda": "1,1", "mu": "1", "nu": "2,1", "n": 2, "k": 1, "N": 1},
        ]
    }


def _fresh(*argv, **kwargs):
    """Run a fresh interpreter that imports the same fusionkit as this one."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, **kwargs,
    )


def test_queries_do_not_import_the_sweeps():
    code = "import sys, fusionkit.cli; print('fusionkit.verify' in sys.modules)"
    out = _fresh("-c", code, text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_builds_no_parser():
    code = "import fusionkit.cli as c; print(c._parser.cache_info().currsize)"
    out = _fresh("-c", code, text=True, check=True).stdout
    assert out.strip() == "0"


def _reference_table(n, k, mu, max_size, fmt) -> str:
    """The table built from the public ``fusion_expand``, one call per lambda."""
    ctx = FusionContext(n, k)
    rows = [
        {"lambda": format_partition(la), "mu": format_partition(mu),
         "nu": format_partition(nu), "n": n, "k": k, "N": value}
        for size in range(max_size + 1)
        for la in restricted_partitions_of(size, ctx)
        for nu, value in fusion_expand(la, mu, ctx).items()
    ]
    rows.sort(key=lambda r: (r["lambda"], r["nu"]))
    if fmt == "json":
        return json.dumps({"schema": "fusionkit.table/1", "rows": rows}, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["lambda", "mu", "nu", "n", "k", "N"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_table_bytes_equal_the_public_expansion(capsys):
    # (2, 6) and (3, 6) add the six-column mu = (6,)
    grid = [(n, k) for n in (2, 3, 4) for k in (1, 2, 3)] + [(2, 6), (3, 6)]
    queries = [
        (n, k, mu)
        for n, k in grid
        for size in range(1, 7)
        for mu in restricted_partitions_of(size, FusionContext(n, k))
    ]
    assert len(queries) == 134 and (6,) in {mu for _, _, mu in queries}
    for n, k, mu in queries:
        for fmt in ("csv", "json"):
            code, out, err = run_cli(
                capsys, "table", "--n", str(n), "--k", str(k),
                "--mu", format_partition(mu), "--max-size", "4", "--format", fmt,
            )
            assert (code, err) == (0, "")
            assert out == _reference_table(n, k, mu, 4, fmt), (n, k, mu, fmt)


def test_one_process_serves_requests_like_fresh_ones():
    # the parser and the caches persist between calls to main; no call may see another's state
    table = ["table", "--n", "3", "--k", "2", "--mu", "2,1", "--max-size", "4", "--format", "csv"]
    sequence = [
        ["table", "--n", "3", "--k", "2", "--mu", "3,1"],  # span 3 > 2: input error
        table,
        ["fusion", "2,1", "2,1", "3,2,1", "--n", "3", "--k", "2"],
        table,
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from fusionkit.cli import main\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        results.append([main(argv), out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    served = json.loads(_fresh("-c", script, json.dumps(sequence), check=True).stdout)
    assert [code for code, _, _ in served] == [2, 0, 0, 0]
    assert served[1] == served[3]
    for argv, (code, out, err) in zip(sequence, served):
        fresh = _fresh("-m", "fusionkit.cli", *argv)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
            code, out.encode(), err.encode()
        ), argv


def test_trace_lines_only_when_enabled():
    # the setting is read once, at import, so only a fresh interpreter sees it
    argv = [sys.executable, "-m", "fusionkit.cli", "fusion", "2,1", "2,1", "3,2,1",
            "--n", "3", "--k", "2", "--explain"]
    env = {key: value for key, value in os.environ.items() if key != "FUSIONKIT_TRACE"}
    env["PYTHONPATH"] = str(SRC)
    quiet = subprocess.run(argv, capture_output=True, text=True, env=env)
    traced = subprocess.run(
        argv, capture_output=True, text=True, env={**env, "FUSIONKIT_TRACE": "1"}
    )
    assert quiet.returncode == traced.returncode == 0
    assert quiet.stdout == traced.stdout and quiet.stdout.startswith("1\n")
    assert quiet.stderr == ""
    assert "fusionkit: membership word" in traced.stderr


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(la, mu, ctx):
        raise RuntimeError("negative fusion coefficient")

    monkeypatch.setattr(cli, "_fusion_row", broken)
    code, out, err = run_cli(capsys, "table", "--n", "2", "--k", "1", "--mu", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal: negative fusion coefficient\n"


@pytest.mark.parametrize("max_size", ["2", "8"])  # under and over one 8 KiB buffer
def test_a_closed_stdout_ends_quietly(max_size):
    # the read end is closed before the process starts, so its first write
    # fails, at the final flush or in the middle of the table
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "fusionkit.cli", "table", "--n", "3", "--k", "4",
             "--mu", "2,1", "--max-size", max_size],
            stdout=write_end, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_table_csv_and_empty(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n", "2", "--k", "1", "--mu", "1", "--max-size", "0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,mu,nu,n,k,N"
    assert lines[1:] == ["0,1,1,2,1,1"]


def test_table_rejects_a_negative_max_size(capsys):
    # a negative bound would list no lambda and print an empty table with exit 0
    code, out, err = run_cli(
        capsys, "table", "--n", "2", "--k", "1", "--mu", "1", "--max-size", "-3"
    )
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert err == "error: max_size must be at least 0, got -3\n"


# Every check counts something at these bounds; the counts pin what the
# sweeps certify, so a refactor of the sweeps must leave them unchanged.
SMOKE_COUNTS = [
    ("lr_paths_equals_lr_lattice", 130),
    ("psi_squared_identity", 606),
    ("psi_reverses_sign", 494),
    ("psi_fixed_points_are_fitting", 112),
    ("signed_sum_equals_fitting_count", 247),
    ("phi_squared_identity", 61),
    ("phi_reverses_sign", 42),
    ("phi1_image_in_D2", 3),
    ("phi2_after_phi1_identity", 3),
    ("phi1_after_phi2_identity", 3),
    ("fixed_points_equal_oracle", 32),
    ("rule_equals_oracle", 124),
    ("tableaux_equal_rule", 124),
    ("fusion_at_most_classical", 124),
    ("fusion_equals_classical_at_big_level", 16),
    ("fusion_equals_classical_when_unobstructed", 121),
    ("fusion_monotone_in_level", 124),
    ("duality_invariance", 131),
    ("dual_of_low_shape_is_conjugate", 7),
    ("restricted_path_identity", 118),
    ("gepner_witten_equals_oracle", 440),
    ("fusion_expand_equals_kac_walton", 90),
]


def test_verify_smoke_all(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--n-max", "3", "--k-max", "2",
        "--size-max", "5", "--jobs", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "fusionkit.report/1"
    assert report["ok"] is True
    assert report["wall_time_s"] < 5
    assert [(c["name"], c["checked"]) for c in report["checks"]] == SMOKE_COUNTS


def test_verify_jobs_zero_counts_usable_cpus(capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._usable_cpus() == 3
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "monotone", "--n-max", "2", "--k-max", "1",
        "--size-max", "2", "--jobs", "0",
    )
    assert code == 0 and json.loads(out)["params"]["jobs"] == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


@pytest.mark.parametrize("suite", ["involution", "monotone", "duality", "paths-identity", "gepner-witten"])
def test_verify_each_suite(capsys, suite):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", suite, "--n-max", "2", "--k-max", "1",
        "--size-max", "3", "--jobs", "1",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "suite, flag, value, message",
    [
        ("monotone", "--n-max", "1", "n_max must be at least 2, got 1"),
        ("duality", "--k-max", "0", "k_max must be at least 1, got 0"),
        ("paths-identity", "--n-max", "1", "n_max must be at least 2, got 1"),
        ("all", "--n-max", "1", "n_max must be at least 2, got 1"),
        ("monotone", "--size-max", "-1", "size_max must be at least 0, got -1"),
        ("all", "--size-max", "-1", "size_max must be at least 0, got -1"),
        ("monotone", "--jobs", "-3", "jobs must be at least 0, got -3"),
    ],
    ids=["monotone-n1", "duality-k0", "paths-identity-n1", "all-n1", "monotone-size-1",
         "all-size-1", "monotone-jobs-3"],
)
def test_verify_rejects_bounds_that_leave_no_grid(capsys, suite, flag, value, message):
    # each sweep would run nothing, or run serially under a negative jobs count; the error
    # names the bound, not the suite, and comes before any sweep runs
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--jobs", "1", flag, value)
    assert (code, out, err) == (cli.EXIT_INPUT_ERROR, "", f"error: {message}\n")


def test_verify_names_an_unknown_suite():
    from fusionkit.verify import run_suite

    with pytest.raises(ValueError, match="^unknown suite 'nope'$"):
        run_suite("nope", n_max=2, k_max=1, size_max=2)


TALL = ",".join(["1"] * 1000)


@pytest.mark.parametrize("method", ["oracle", "rule", "tableaux"])
def test_fusion_answers_a_tall_query(capsys, method):
    # a thousand nonzero rows, or mu a column of a thousand boxes: no walk
    # may recurse once per row or once per box
    for la, mu, nu, n in ((TALL, "1", TALL + ",1", "1200"), ("0", TALL, TALL, "1000")):
        code, out, err = run_cli(
            capsys, "fusion", la, mu, nu, "--n", n, "--k", "1", "--method", method
        )
        assert (code, out, err) == (0, "1\n", ""), n


@pytest.mark.parametrize("row, n", [("20", "3"), ("30", "2"), ("1000", "2")])
def test_oracle_answers_a_wide_row(capsys, row, n):
    # a one-row mu has Fibonacci-many signed compositions at small n, and a
    # thousand columns: the signed sum may neither list them nor recurse per column
    code, out, err = run_cli(
        capsys, "fusion", "0", row, row, "--n", n, "--k", row, "--method", "oracle"
    )
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("method", ["paths", "lattice"])
@pytest.mark.parametrize("mu", ["1000", TALL], ids=["row", "column"])
def test_lr_answers_a_thousand_box_mu(capsys, method, mu):
    # a row of mu is a chain of a thousand strips, a column one strip of a
    # thousand boxes: neither walk may recurse once per strip or per box
    code, out, err = run_cli(capsys, "lr", "0", mu, mu, "--method", method)
    assert (code, out, err) == (0, "1\n", "")
