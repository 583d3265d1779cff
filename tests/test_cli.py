"""End-to-end tests of the command line interface."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("polynomial, n, output, digest", [
    ("x1^5+x2^5+x3^5+x4^5", "4", "text",
     "94b4f7e482340c45404a11bda0541688bdf4582203dc22925ed7148719e8d0c1"),
    ("x1^5+x2^5+x3^5+x4^5", "4", "json",
     "cd7d8c6c386f669669a05016ca550243efa3ee622ca9ddf438860afab41348b6"),
    ("x1^3*x2^2*x3 + x2^3*x3^2*x1 + x3^3*x1^2*x2", "3", "text",
     "3c34db50b46f3d08926f09c8848130d210c32115578c7d6e1928c7df31ff9936"),
    ("x1^3*x2^2*x3 + x2^3*x3^2*x1 + x3^3*x1^2*x2", "3", "json",
     "cf0df09f6b1d337c6ea2e586f3acf55b51e522c54d8e7be23bae1c7a8364171c"),
], ids=["n4-text", "n4-json", "n3-text", "n3-json"])
def test_rewrite_stdout_is_pinned(capsys, polynomial, n, output, digest):
    """sha256 of the whole stdout; the digests were taken from the
    earlier greedy rewriter, so the closed form matches it byte for
    byte."""
    code, out, _ = run(capsys, "rewrite", polynomial, "--n", n,
                       "--output", output)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("extra,digest", [
    ((), "67fd83e9756c359a3ed75b4f00348a94f6bc98d35115e21123da4d225107ceb9"),
    (("--output", "json"),
     "028af438b4ad94a48d3d088a87aaa02ab9545074627bcb0241469b5c4ac1a3d1"),
    pytest.param(
        ("--max-degree", "8", "--output", "json"),
        "36fa920aad0d8d4f66b1ac46d6eb7360342a532dedd0b0ec9eff00d3a8e44c97",
        marks=pytest.mark.slow),
], ids=["text", "json", "degree-8-json"])
def test_verify_n3_stdout_is_pinned(capsys, extra, digest):
    """sha256 of the whole stdout; the digests were taken while every
    form was still certified by expanding it in the free ring."""
    code, out, _ = run(capsys, "verify", "n3", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SEARCH = ("search", "--n", "3", "--dim", "2", "--family", "block-triangular",
          "--seed", "0")
# the README example, and a dense n=4 run with no candidate
SEARCH_README = SEARCH + ("--budget", "2000")
SEARCH_DENSE = ("search", "--n", "4", "--dim", "3", "--family", "dense",
                "--seed", "1", "--budget", "200")


@pytest.mark.parametrize("argv,code,digest", [
    (("verify", "cor_1_4", "--n", "4", "--output", "json"), 0,
     "f35aa8f318dbaf7f2c42bdd4602c49864cd20bfb7191cf30e68178de3908c0ae"),
    (("verify", "eq_4", "--n", "5", "--output", "json"), 0,
     "b4a444619b2760376ca81fb6a3271baeec6eae6aa5c2f430b0ab4430b7c3ae4c"),
    (("member", "x1*x2*x3 - x3*x2*x1", "--n", "4", "--output", "json"), 1,
     "48930ad47e16f73d6defb49bfc78a6f180869de6320877d43a6445aad08fa330"),
    (("orbit", "x2^2*x1*x3", "--n", "4", "--output", "json"), 0,
     "c79aa7a9c699dab9404ec42ce371ce018f786efd16d92166c0f480c986e2b9a3"),
    (("orbit", "x2^2*x1*x3", "--n", "4", "--output", "text"), 0,
     "c144f6b12a3d0ece07c7725a07bced33cccdab89de4471cc65c1a76c399ee7ac"),
    (("factor", "x1*x3^4*x1^2*x2", "--n", "3", "--output", "json"), 0,
     "edf484e5f10bd0eaf647743345fbe7ac67d5389fa3de9a44efa8b5579e9b6e42"),
    (("factor", "x1*x3^4*x1^2*x2", "--n", "3", "--output", "text"), 0,
     "e88444b6c92bffbbcc993207855be42415e175bc0ae437a83c6d648716412ea7"),
    (("atoms", "--n", "4", "--degree", "4", "--output", "json"), 0,
     "a99c0cda7a0f5f2100313f4e330be6c95d17c169ae364ff3c86d2ec56b839251"),
    (("atoms", "--n", "4", "--degree", "4", "--output", "text"), 0,
     "2126878458b12126bf55a17fccb9ade3cea1eed9f25b1b71c1545cf7d2d985a9"),
    (("sigma", "4", "3", "--output", "text"), 0,
     "aa885b328817e0cd04a924cd507c7c868a34f2ae6cfb4ea0375a34ba4624f2bf"),
    (("sigma", "4", "3", "--output", "json"), 0,
     "a09788b410af8bdbd3af6115c998e8b7694e5c33b1c1d0d3e7dfb8914c33bff1"),
    (("n3", "reduce", "x1*x3 + x2*x1 + x3*x2", "--no-certify",
      "--output", "text"), 0,
     "5bd67e5f58816f6eee1005a466187d953fd035cbbcdaf47d59acbfba7687e183"),
    (("n3", "reduce", "x1*x3 + x2*x1 + x3*x2", "--no-certify",
      "--output", "json"), 0,
     "01a66bb8357750bfcf613d8317dcd81faa12627dfb531a82f0a7f08014568762"),
    (("n3", "reduce", "x1^3+x2^3+x3^3", "--output", "text"), 0,
     "f23b6a53740dee8073e376a456520770670c45bde7d93b3cc3aee546c2e9e705"),
    (SEARCH + ("--budget", "500", "--output", "text"), 0,
     "36c324a849534d3bbfdc2bdc2cb280ed8839ac2c9bda61b41878dea83893535b"),
    (SEARCH + ("--budget", "500", "--output", "json"), 0,
     "7ffc146a0af147e0df61d3bb4286e691451a244e02209d0fdaab147024741c22"),
    (SEARCH_README + ("--output", "text"), 0,
     "41e5798c6ab0f7d4740e638481a32f43567c0fc8588674576802c2483ae949b3"),
    (SEARCH_README + ("--output", "json"), 0,
     "df55da3d86bf084bd74f8eb9d3d19b2fc36bf1811afc6f2d41e18632e053c28f"),
    (SEARCH_DENSE + ("--output", "text"), 0,
     "7135c11410da9129a990899cabed1c9dca21f0b6ca20463f8ad82ee87f854e43"),
    (SEARCH_DENSE + ("--output", "json"), 0,
     "16215f60c865a8efad5b28279eabb3e895df907893454e1dbc6f096ab17a56bd"),
    # the largest n the search accepts at budget 1 is 141
    (("search", "--n", "80", "--dim", "2", "--family", "commuting",
      "--budget", "1"), 0,
     "a0b5f59a70f1a30aaa44c1ffb86d6b1c24022fc37fe2793a7314ca7bca9aa4dc"),
    # a usage error prints nothing on stdout: the digest of b""
    (("sigma", "2", "1", "--output", "text"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
], ids=["cor_1_4", "eq_4", "member", "orbit", "orbit-text", "factor",
        "factor-text", "atoms", "atoms-text", "sigma-text", "sigma-json",
        "n3-reduce-text", "n3-reduce-json", "n3-reduce-certified",
        "search-text", "search-json", "search-readme-text",
        "search-readme-json", "search-dense-text", "search-dense-json",
        "search-n80", "sigma-n2"])
def test_word_commands_stdout_is_pinned(capsys, argv, code, digest):
    """sha256 of the whole stdout and the exit code.  The JSON rows of
    verify, member, orbit, factor and atoms were taken before monomials
    were stored as letter tuples, the others before the command line
    printed through one output path: neither change shows in the
    output.  The search rows were taken when the "budget exhausted"
    line and the ``budget_exhausted`` key went; before, that line or
    key, printed on every run, was the only difference.  The n=80 row
    was taken while every rotation was evaluated from scratch."""
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rewrite_rejects_noninvariant(capsys):
    code, _, err = run(capsys, "rewrite", "x1*x2", "--n", "3")
    assert code == 2
    assert err.startswith("error:")
    # an exponent no tuple length can hold is bad input, not a crash
    code, out, err = run(capsys, "member", "x1^99999999999999999999",
                         "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: exponent 99999999999999999999 exceeds")


@pytest.mark.parametrize("polynomial", [
    "x1^10000000000", "x1^600000*x2^600000 + x3",
    "x1^2*x2^999999"])
def test_member_refuses_a_word_past_the_length_bound(capsys, polynomial):
    """The word is bounded before it is built: a product of factors
    counts whole, and nothing is allocated for it first."""
    code, out, err = run(capsys, "member", polynomial, "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: exponent ")
    assert "exceeds" in err.splitlines()[0]


@pytest.mark.parametrize("polynomial", ["x1^1000000", "x1^13"])
def test_member_refuses_a_slice_past_the_column_bound(capsys, polynomial):
    """A degree whose slice has more than 3^12 word columns is refused
    before any word of it is listed."""
    start = time.perf_counter()
    code, out, err = run(capsys, "member", polynomial, "--n", "3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: the degree-")
    assert "531441 word columns" in err


@pytest.mark.parametrize("argv,message,seconds", [
    (("sigma", "22", "11"), "sigma_11 at n=22 has more than 531441 terms", 1),
    (("sigma", "1000000000", "500000000"),
     "sigma_500000000 at n=1000000000 has more than 531441 terms", 1),
    # sigma_1..sigma_4 at n=40 are built before sigma_5 is refused
    (("verify", "cor_1_4", "--n", "40"),
     "sigma_5 at n=40 has more than 531441 terms", 5),
    (("atoms", "--n", "3", "--degree", "21"),
     "n=3 has more than 531441 atoms of degree 21", 1),
    (("atoms", "--n", "3", "--degree", "1000000"),
     "n=3 has more than 531441 atoms of degree 1000000", 1),
    (("rewrite", "x1^14 + x2^14 + x3^14", "--n", "3"),
     "the orbit of x1^14 expands into more than 531441 products", 1),
    (("n3", "reduce", "x1^17 + x2^17 + x3^17", "--no-certify"),
     "degree 17 exceeds the reduction bound 16", 1),
    (("n3", "reduce", "x1^2000 + x2^2000 + x3^2000", "--no-certify"),
     "degree 2000 exceeds the reduction bound 16", 1),
    (("n3", "reduce", "x1^17 + x2^17 + x3^17", "--max-degree", "17"),
     "degree 17 exceeds the reduction bound 16", 1),
    (("orbit", "x1*x2", "--n", "600000"),
     "an orbit at n=600000 has 600000 members, more than 531441", 1),
    (("search", "--n", "1000", "--family", "dense", "--budget", "100"),
     "100 tuples of 1000 matrices take up to 16966450100 matrix products", 1),
    (("search", "--n", "80", "--family", "commuting", "--budget", "6"),
     "6 tuples of 80 matrices take up to 626166 matrix products", 1),
], ids=["sigma", "sigma_huge_n", "cor_1_4_n40", "atoms", "atoms_huge_degree",
        "rewrite", "n3_reduce_17", "n3_reduce_2000", "n3_reduce_17_certified",
        "orbit_huge_n", "search_huge_n", "search_n80_budget6"])
def test_outside_input_blowups_are_refused(capsys, argv, message, seconds):
    """A request that would list more than ring.MAX_TERMS = 3^12 words
    or terms, check that many matrix products in a search, or reduce
    past degree 16, is refused before that work."""
    from sigmaforge import sigma

    start = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sigma.clear_caches()  # drop the n=40 sums
    assert time.perf_counter() - start < seconds
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)


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


def test_verify_max_degree_zero_is_a_bound(capsys):
    """--max-degree 0 is a bound, not "unset"; a bound below a check's
    least degree is refused before any work, with exit 2."""
    for argv, want in (
            (("thm_1_1", "--max-degree", "0"), "at least 2, got 0"),
            (("thm_1_1", "--max-degree", "1"), "at least 2, got 1"),
            (("thm_1_1", "--max-degree", "-1"), "at least 2, got -1"),
            (("sigma_independence", "--max-degree", "-1"),
             "at least 0, got -1"),
            (("n3", "--max-degree", "0"), "at least 6")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and want in err, argv
    code, out, _ = run(capsys, "verify", "sigma_independence",
                       "--max-degree", "0", "--output", "json")
    assert code == 0
    unit = json.loads(out)
    assert (unit["degree"], unit["witness"]["count"]) == (0, 1)
    code, out, _ = run(capsys, "verify", "thm_1_1", "--max-degree", "2")
    assert (code, out) == (0, "pass thm_1_1 n=3 degree=2\n1/1 units passed\n")


def test_fractional_power_product_is_an_internal_error(capsys, monkeypatch):
    from sigmaforge import sigma

    whole = sigma.elementary_symmetric
    monkeypatch.setattr(sigma, "elementary_symmetric",
                        lambda n, k: whole(n, k) * Fraction(1, 2))
    code, out, err = run(capsys, "verify", "sigma_independence", "--n", "3")
    assert (code, out) == (1, "")
    assert err.startswith("internal error: power product has a fractional "
                          "coefficient")


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
    # every run examines exactly its budget, so no line reports that
    assert "budget exhausted" not in out

    code, out, _ = run(capsys, *args, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["candidates"] == 1
    assert report["candidates"][0]["index"] == 464
    assert "budget_exhausted" not in report


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


def test_jobs_is_not_an_option(capsys):
    for argv in (("search", "--family", "dense", "--jobs", "2"),
                 ("sigma", "3", "2", "--jobs", "2")):
        code, _, err = run(capsys, *argv)
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
