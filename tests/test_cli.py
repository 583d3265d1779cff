"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from sigmaforge import cli
from sigmaforge.ideal import difference_generators
from sigmaforge.ring import render_poly


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sigma_traditional_form(capsys):
    code, out, _ = run(capsys, "sigma", "3", "2")
    assert code == 0
    assert out.strip() == "x1*x2 + x1*x3 + x2*x3"


def test_sigma_rejects_small_arity(capsys):
    code, _, err = run(capsys, "sigma", "2", "1")
    assert code == 2
    assert "standing assumption" in err


def test_sigma_json_is_byte_identical(capsys):
    _, first, _ = run(capsys, "sigma", "4", "2", "--output", "json")
    _, second, _ = run(capsys, "sigma", "4", "2", "--output", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["polynomial"].startswith("x1*x2 +")


def test_orbit_command(capsys):
    code, out, _ = run(capsys, "orbit", "x1*x2", "--n", "3")
    assert code == 0
    assert out.strip() == "x1*x2 + x2*x3 + x3*x1"


def test_factor_command(capsys):
    code, out, _ = run(capsys, "factor", "x1*x3^4*x1^2*x2", "--n", "3")
    assert code == 0
    assert out.strip() == "x1*x3 x1 x1 x1*x2 x1*x2"


def test_internal_error_is_not_a_failed_check(capsys, monkeypatch):
    from sigmaforge import atoms

    monkeypatch.setattr(atoms, "semigroup_product", lambda factors, n: None)
    code, out, err = run(capsys, "factor", "x1*x3^4*x1^2*x2", "--n", "3")
    assert (code, out) == (1, "")
    assert err.startswith("internal error: factorization failed to "
                          "multiply back")
    assert "check failed" not in err


def test_atoms_command(capsys):
    code, out, _ = run(capsys, "atoms", "--n", "3", "--degree", "3")
    assert code == 0
    assert out.splitlines() == ["x1*x2*x1", "x1*x2*x3", "x1*x3*x1", "x1*x3*x2"]


def test_rewrite_command(capsys):
    code, out, _ = run(capsys, "rewrite", "x1^2 + x2^2 + x3^2", "--n", "3")
    assert code == 0
    assert out.strip() == "-O[x1*x2] - O[x1*x3] + O[x1]^2"


def test_rewrite_rejects_noninvariant(capsys):
    code, _, err = run(capsys, "rewrite", "x1*x2", "--n", "3")
    assert code == 2
    assert err.startswith("error:")


def test_member_pass_and_fail(capsys):
    gen = difference_generators(3).gens[0]
    code, out, _ = run(capsys, "member", render_poly(gen), "--n", "3")
    assert code == 0
    assert "pass" in out

    code, out, _ = run(capsys, "member", "x1*x2 - x2*x1", "--n", "3")
    assert code == 1
    assert "residual" in out


def test_member_accepts_both_families(capsys):
    # by Theorem 1.1 both families span the same ideal, so every unit,
    # residual witnesses included, is the same for either choice
    for poly, want in (("x1*x2*x3 - x2*x3*x1", 0),
                       ("x1*x2 - x2*x1 + x1^2*x3*x2 - x3*x2*x1^2", 1)):
        for output in ("text", "json"):
            outs = {}
            for gens in ("commutators", "differences"):
                code, out, err = run(capsys, "member", poly, "--n", "3",
                                     "--gens", gens, "--output", output)
                assert (code, err) == (want, ""), gens
                outs[gens] = out
            assert outs["differences"] == outs["commutators"]


def test_member_json_schema(capsys):
    code, out, _ = run(capsys, "member", "x1*x2 - x2*x1", "--n", "3",
                       "--output", "json")
    assert code == 1
    unit = json.loads(out.splitlines()[0])
    assert list(unit) == ["check", "n", "degree", "status", "witness"]


def test_verify_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "thm_1_3_independence", "--n", "3",
                       "--output", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for line in lines:
        unit = json.loads(line)
        assert list(unit) == ["check", "n", "degree", "status", "witness"]
        assert unit["status"] == "pass"


def test_verify_unknown_name_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "thm_9_9")
    assert code == 2


def test_verify_n3_wrong_arity(capsys):
    code, _, err = run(capsys, "verify", "n3", "--n", "4")
    assert code == 2
    assert "n = 3" in err


def test_verify_repeat_runs_byte_identical(capsys):
    args = ("verify", "eq_4", "--n", "4", "--output", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_n3_reduce(capsys):
    code, out, _ = run(capsys, "n3", "reduce", "x1*x2 + x2*x3 + x3*x1")
    assert code == 0
    assert out.strip() == "s2 + c"


def test_n3_output_option_at_either_level(capsys):
    poly = "x1*x2 + x2*x3 + x3*x1"
    for argv in (("n3", "--output", "json", "reduce", poly, "--no-certify"),
                 ("n3", "reduce", poly, "--no-certify", "--output", "json")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["s_form"] == "s2 + c"


def test_n3_reduce_degree_guard(capsys):
    code, _, err = run(capsys, "n3", "reduce", "x1^7 + x2^7 + x3^7")
    assert code == 2
    assert "error:" in err
    code, out, _ = run(capsys, "n3", "reduce", "x1^7 + x2^7 + x3^7",
                       "--no-certify")
    assert code == 0
    assert out.strip() != ""


def test_search_text_and_json(capsys):
    args = ("search", "--n", "3", "--dim", "2", "--family", "block-triangular",
            "--seed", "0", "--budget", "500")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "candidate index=464" in out
    assert "budget exhausted" in out

    code, out, _ = run(capsys, *args, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["candidates"] == 1
    assert report["candidates"][0]["index"] == 464


def test_search_byte_identical(capsys):
    args = ("search", "--family", "conj-cyclic", "--seed", "11",
            "--budget", "50", "--output", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_search_usage_errors(capsys):
    code, _, _ = run(capsys, "search", "--family", "bogus")
    assert code == 2
    code, _, err = run(capsys, "search", "--family", "block-triangular",
                       "--dim", "1")
    assert code == 2
    assert "dim >= 2" in err


def test_jobs_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SIGMAFORGE_JOBS", "2")
    args = ("search", "--family", "dense", "--seed", "3", "--budget", "20",
            "--output", "json")
    _, first, _ = run(capsys, *args)
    monkeypatch.setenv("SIGMAFORGE_JOBS", "1")
    _, second, _ = run(capsys, *args)
    assert first == second


def test_jobs_is_a_search_option_only(capsys):
    code, _, err = run(capsys, "sigma", "3", "2", "--jobs", "2")
    assert code == 2
    assert "--jobs" in err


def test_missing_command_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_verify_does_not_import_the_other_commands_modules():
    """A cold ``verify`` process loads only what the check needs: not the
    modules of the other commands, and not ``dataclasses``."""
    script = textwrap.dedent("""
        import sys

        before = set(sys.modules)
        import sigmaforge.cli

        code = sigmaforge.cli.main(
            ["verify", "thm_1_1", "--n", "3", "--output", "json"])
        names = ("sigmaforge.n3lab", "sigmaforge.matmodel",
                 "sigmaforge.rewrite", "sigmaforge.atoms", "dataclasses")
        print(code, sorted(m for m in names
                           if m in sys.modules and m not in before))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
