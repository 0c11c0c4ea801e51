import collections
import functools
import hashlib
import json
import math
import shlex
import sys
from pathlib import Path

import pytest

from coopbasis import DEFAULT_MAX_DEGREE, Poly, expand_in_g, phi_family
from coopbasis import arith, filtration, margolis, phi, semistable
from coopbasis.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the module that defines each worker; cli imports it from there when a subcommand runs
OWNER = {"expand_in_g": semistable, "is_semistable_2local": semistable,
         "is_semistable_plocal_residues": semistable, "expand_in_phi": filtration,
         "weight": filtration}


def test_phi_pretty_single(capsys):
    code, out, _ = run(capsys, "phi", "--prime", "2", "--n", "1")
    assert code == 0
    assert "(w - 1)/2" in out


def test_phi_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "phi", "--prime", "2", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["af"] for row in payload["family"]] == [-1, -3, -7]
    fam = phi_family(2, 3)
    for row in payload["family"]:
        assert Poly.from_json(row["coefficients"]) == fam.phi(row["n"])


def test_phi_resource_error_exits_2(capsys):
    code, _, err = run(capsys, "phi", "--prime", "7", "--n", "9")
    assert code == 2
    assert "degree" in err


def test_a_prime_from_2_to_the_32_exits_2_before_trial_division(capsys, monkeypatch):
    arith.require_prime(4294967291)  # the largest prime below 2^32 passes

    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) ran")

    monkeypatch.setattr(arith, "is_prime", no_trial_division)
    code, out, err = run(capsys, "phi", "--prime", "2305843009213693951", "--n", "1")
    assert (code, out) == (2, "")
    assert "below 2^32" in err
    with pytest.raises(ValueError, match="below 2\\^32"):
        arith.require_prime(2 ** 32)


def test_phi_reports_members_over_the_residue_budget(capsys):
    # at p = 3, phi_2 needs e = 4 (cost 729) and phi_3 needs e = 13
    code, _, err = run(capsys, "phi", "--prime", "3", "--n", "3", "--budget", "10")
    assert code == 0
    assert err.splitlines() == [
        f"note: phi_{n} not integrality-tested: residue test over budget 10" for n in (2, 3)]
    code, _, err = run(capsys, "phi", "--prime", "3", "--n", "2")
    assert code == 0
    assert err == ""


def test_g_csv(capsys):
    code, out, _ = run(capsys, "g", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,degree,poly"
    assert len(lines) == 4


def test_expand_g_json(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "g", "w^2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"0": "1", "1": "8", "2": "8"}
    assert payload == expand_in_g(Poly.parse("w^2")).to_json()


def test_expand_g_zero(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "g", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {}


def test_expand_phi_trace(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "phi", "--precision", "4",
                       "((w-1)/2)^2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["M"] == 4
    first = payload["trace"][0]
    assert first["weight"] == -2
    assert first["indices"] == [2]
    assert first["coefficients"] == {"2": "2"}


def test_expand_phi_rejects_non_semistable(capsys):
    code, _, err = run(capsys, "expand", "--basis", "phi", "w/2")
    assert code == 1
    assert "semistable" in err
    assert "nu_2" in err


def test_expand_parse_error(capsys):
    code, _, err = run(capsys, "expand", "--basis", "g", "x^2")
    assert code == 2
    assert "error" in err

    code, _, err = run(capsys, "expand", "--basis", "g", "w^99999999")
    assert code == 2
    assert "degree cap" in err

    for coefficients in ("[0.1]", '["1/0"]'):
        code, _, err = run(capsys, "expand", "--basis", "g", coefficients)
        assert code == 2
        assert "bad coefficient list" in err


def test_expand_accepts_coefficient_list(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "g", "[\"0\", \"0\", \"1\"]",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"0": "1", "1": "8", "2": "8"}


def test_check_integrality_exit_codes(capsys):
    code, out, _ = run(capsys, "check-integrality", "--prime", "2", "(w-1)/2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["integral"] is True

    code, out, _ = run(capsys, "check-integrality", "--prime", "2", "w/2",
                       "--format", "json")
    assert code == 1
    assert json.loads(out)["integral"] is False

    code, out, _ = run(capsys, "check-integrality", "--prime", "3", "(w^2-1)/3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["method"] == "residues"

    code, out, _ = run(capsys, "check-integrality", "--prime", "2", "[0.5]")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [("weight", "-6*w^2"), ("expand", "--basis", "g", "-w^2"),
                                  ("check-integrality", "--prime", "3", "-w")])
def test_a_leading_minus_polynomial_is_pointed_to_the_double_dash(capsys, argv):
    # argparse reads a leading "-" without a space as an option, so the usage error names "--"
    *command, poly = argv
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "required: poly (a polynomial that starts with '-' goes last, after '--')" in err
    code, out, err = run(capsys, *command, "--format", "json", "--", poly)
    assert code == 0 and err == ""
    assert run(capsys, *command, "--format", "json", " " + poly) == (code, out, err)


def test_weight_report(capsys):
    code, out, _ = run(capsys, "weight", "w^2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == 0
    assert payload["argmin"] == [0, 2]


def test_an_infinite_weight_prints_plus_inf_and_null(capsys):
    assert run(capsys, "weight", "0") == (0, "weight +inf  argmin []\n", "")
    code, out, _ = run(capsys, "weight", "0", "--format", "json")
    assert code == 0 and json.loads(out)["weight"] is None

    expand = ("expand", "--basis", "phi", "--precision", "4", "(w-1)/2")
    code, out, err = run(capsys, *expand)
    assert (code, err) == (0, "") and out.endswith("\nresidual weight +inf\n")
    code, out, _ = run(capsys, *expand, "--format", "json")
    assert code == 0 and json.loads(out)["residual_weight"] is None


def test_margolis_json(capsys):
    code, out, _ = run(capsys, "margolis", "--prime", "2", "--k", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 4
    assert len(payload["basis"]) == 7
    assert payload["homology"]["Q0"]["classes"][0]["generators"] == ["z1^8"]
    assert payload["homology"]["Q1"]["classes"][0]["generators"] == ["z3^2"]
    assert payload["cover_rank"] == 3


@pytest.mark.parametrize("k", ["238", "1000000000"])
def test_margolis_over_the_enumeration_budget_exits_2(capsys, k):
    # the p = 2 piece at k = 238 is the first with more than 10^7 monomials (10,141,205)
    code, _, err = run(capsys, "margolis", "--k", k)
    assert code == 2
    assert f"k={k} exceeds enumeration budget 10000000" in err


def test_verify_small_runs_clean(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "2", "--max-n", "4",
                       "--max-k", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert {c["name"] for c in payload["checks"]} == {
        "oracle_equivalence", "integrality", "congruence_suite", "margolis"}
    assert all(c["passed"] for c in payload["congruences"])


def test_verify_odd_prime(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "3", "--max-n", "2",
                       "--max-k", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert "congruences" not in payload

    code, out, _ = run(capsys, "verify", "--prime", "3", "--max-n", "1",
                       "--max-k", "12", "--format", "json")
    assert code == 0
    detail = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}["integrality"]
    assert detail["over_budget_phi"] == [3]
    assert detail["over_budget_k"] == [9, 10, 11, 12]

    code, out, _ = run(capsys, "verify", "--prime", "3")
    assert code == 0
    assert out.rstrip().endswith("overall: PASS")


def test_verify_rejects_composite_prime(capsys):
    code, _, err = run(capsys, "verify", "--prime", "4", "--max-n", "2", "--max-k", "2")
    assert code == 2
    assert "prime" in err


def test_budget_flag(capsys):
    # phi_2 at p=3 needs e=4, cost 3^4 * 9 = 729 > 10
    phi2 = "(9*w^8 - w^6 + 3*w^4 - 3*w^2 - 8)/81"
    code, _, err = run(capsys, "check-integrality", "--prime", "3", phi2, "--budget", "10")
    assert code == 2
    assert "budget" in err
    code, _, _ = run(capsys, "check-integrality", "--prime", "3", phi2, "--budget", "1000000")
    assert code == 0


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_must_be_positive(capsys, budget):
    code, out, err = run(capsys, "check-integrality", "--prime", "3", "w", "--budget", budget)
    assert code == 2
    assert out == ""
    assert f"budget must be positive, got {budget}" in err
    # main checks the budget for every subcommand, also those that do not use it
    for command in (("phi", "--n", "1"), ("g", "--n", "1"), ("expand", "--basis", "g", "w"),
                    ("check-integrality", "--prime", "3", "w"), ("weight", "w"),
                    ("verify", "--max-n", "1", "--max-k", "1"), ("margolis", "--k", "1")):
        code, out, err = run(capsys, *command, "--budget", budget)
        assert (code, out, err) == (2, "", f"error: budget must be positive, got {budget}\n")


@pytest.mark.parametrize("command, expander", [
    (("expand", "--basis", "g"), "expand_in_g"),
    (("expand", "--basis", "phi"), "expand_in_phi"),
    (("weight",), "weight"),
    (("check-integrality", "--prime", "2"), "is_semistable_2local"),
])
def test_g_expansion_commands_refuse_a_degree_over_the_cap(capsys, monkeypatch, command,
                                                           expander):
    def never(*args, **kwargs):
        raise AssertionError(f"{expander} ran on an input over the cap")

    monkeypatch.setattr(OWNER[expander], expander, never)
    # the parser refuses the power before building it; a coefficient list is checked once built
    assert run(capsys, *command, "w^1001") == (
        2, "", "error: power ^1001 in 'w^1001' is over the degree cap 1000\n")
    assert run(capsys, *command, "(w+1)^2000") == (
        2, "", "error: power ^2000 in '(w+1)^2000' is over the degree cap 1000\n")
    assert run(capsys, *command, json.dumps(["0"] * 1001 + ["1"])) == (
        2, "", "error: input has degree 1001, over the g-expansion cap 1000\n")


def test_the_g_expansion_cap_admits_its_own_degree(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "g", "w^1000")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1001
    assert lines[-1].startswith("g_1000: ")
    # the residue test at odd p has its own budget and no degree cap
    assert run(capsys, "check-integrality", "--prime", "3", "w^1001")[0] == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "phi.json"
    code, out, _ = run(capsys, "phi", "--prime", "2", "--n", "2",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["family"][0]["text"] == "(w - 1)/2"


def test_out_file_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "g.json"
    code, out, err = run(capsys, "g", "--n", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(target) in err
    assert len(err.splitlines()) == 1


def test_an_out_file_in_a_missing_directory_is_refused_before_any_work(tmp_path, capsys,
                                                                       monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("expand_in_phi ran although --out cannot be written")

    monkeypatch.setattr(filtration, "expand_in_phi", never)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "expand", "--basis", "phi", "--precision", "48", "((w-1)/2)^3",
                         "--out", str(target))
    assert (code, out, err) == (2, "", f"error: cannot write {target}: No such file or directory\n")


def test_an_out_file_under_a_regular_file_is_refused_before_any_work(tmp_path, capsys,
                                                                    monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("expand_in_phi ran although --out cannot be written")

    monkeypatch.setattr(filtration, "expand_in_phi", never)
    (tmp_path / "afile").write_text("")
    target = tmp_path / "afile" / "x.json"
    code, out, err = run(capsys, "expand", "--basis", "phi", "--precision", "48", "((w-1)/2)^3",
                         "--out", str(target))
    assert (code, out, err) == (2, "", f"error: cannot write {target}: Not a directory\n")


def test_an_out_file_that_is_a_directory_is_refused_before_any_work(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(filtration, "expand_in_phi", _never)
    code, out, err = run(capsys, "expand", "--basis", "phi", "--precision", "48", "((w-1)/2)^3",
                         "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: cannot write {tmp_path}: Is a directory\n")


def test_an_out_file_is_not_truncated_by_a_refused_command(tmp_path, capsys):
    target = tmp_path / "kept.json"
    target.write_text("kept\n")
    code, _, _ = run(capsys, "weight", "w^1001", "--out", str(target))
    assert code == 2
    assert target.read_text() == "kept\n"


def test_csv_not_available_for_expand(capsys):
    code, _, err = run(capsys, "expand", "--basis", "g", "w^2", "--format", "csv")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize("command, worker", [
    (("expand", "--basis", "phi", "--precision", "48", "((w-1)/2)^3"), "expand_in_phi"),
    (("check-integrality", "--prime", "3", "w"), "is_semistable_plocal_residues"),
    (("weight", "w^2"), "weight"),
])
def test_csv_is_refused_before_any_work(capsys, monkeypatch, command, worker):
    def never(*args, **kwargs):
        raise AssertionError(f"{worker} ran although csv is refused")

    monkeypatch.setattr(OWNER[worker], worker, never)
    code, out, err = run(capsys, *command, "--format", "csv")
    assert (code, out, err) == (2, "", "error: csv format is not available for this command\n")


EVERY_PRIME = (("phi", "--n", "1"), ("check-integrality", "w"),
               ("verify", "--max-n", "1", "--max-k", "1"), ("margolis", "--k", "1"))
TWO_LOCAL = (("g", "--n", "1"), ("expand", "--basis", "g", "w^2"),
             ("expand", "--basis", "phi", "w^2"), ("weight", "w^2"))


PRIME_CASES = ([(c, p) for c in EVERY_PRIME for p in (2, 3, 5)] + [(c, 2) for c in TWO_LOCAL]
               + [(("weight", "w^2"), 3)])


@pytest.mark.parametrize("command, prime", [
    pytest.param(c, p, id=f"{' '.join(c)} --prime {p}") for c, p in PRIME_CASES])
def test_a_prime_is_a_parameter_only_where_every_prime_works(capsys, monkeypatch, command, prime):
    argv = [*command, "--prime", str(prime)]
    if command in EVERY_PRIME:
        assert run(capsys, *argv)[0] in (0, 1)
        return

    def never(*args, **kwargs):
        raise AssertionError("a 2-local worker ran although --prime is refused")

    for worker in ("expand_in_g", "expand_in_phi", "weight"):
        monkeypatch.setattr(OWNER[worker], worker, never)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --prime" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1" * 5000, "w^" + "1" * 5000], ids=["literal", "exponent"])
def test_an_integer_over_the_interpreters_digit_limit_is_a_parse_error(capsys, text):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "weight", text) == (
        2, "", f"error: integer of 5000 digits in {text[:80] + '...'!r} is over the limit of "
               f"{limit} digits\n")
    assert run(capsys, "weight", "1" * limit) == (0, "weight 0  argmin [0]\n", "")


@pytest.mark.parametrize("text", ['["' + "1" * 5000 + '"]', "[" + "1" * 5000 + "]"],
                         ids=["string", "number"])
def test_a_coefficient_list_over_the_interpreters_digit_limit_is_a_parse_error(capsys, text):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "weight", text) == (
        2, "", f"error: bad coefficient list: integer of 5000 digits in {text[:80] + '...'!r} is "
               f"over the limit of {limit} digits\n")
    assert run(capsys, "weight", text.replace("1" * 5000, "1" * limit))[0] == 0


def test_a_coefficient_list_refusal_quotes_at_most_80_characters(capsys):
    code, out, err = run(capsys, "weight", '["' + "/".join("1" * 3000) + '"]')
    assert (code, out) == (2, "")
    assert err.startswith("error: bad coefficient list: ") and err.endswith("...\n")
    assert len(err) == len("error: bad coefficient list: ") + 80 + len("...\n")


def test_a_parse_refusal_quotes_at_most_80_characters_of_its_input(capsys):
    # g_683 written out as its product, 7,439 characters
    g_683 = ("*".join(f"(w-{2 * i - 1})" for i in range(1, 684))
             + f"/{2 ** 683 * math.factorial(683)}")
    assert run(capsys, "weight", g_683) == (
        2, "", f"error: product in {g_683[:80] + '...'!r} is over the size cap of {2 ** 22} bits\n")


@pytest.mark.parametrize("command, header", [
    (("phi", "--n", "2"), "n,af,degree,poly"),
    (("g", "--n", "2"), "n,degree,poly"),
    (("verify", "--max-n", "2", "--max-k", "2"), "check,pass"),
    (("margolis", "--k", "2"), "monomial,degree,weight"),
])
def test_csv_renders_for_the_commands_that_have_a_table(capsys, command, header):
    code, out, err = run(capsys, *command, "--format", "csv")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == header and len(lines) > 1


def _never(*args, **kwargs):
    raise AssertionError("built for a format that is not printed")


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_margolis_builds_no_csv_rows_outside_csv(capsys, monkeypatch, fmt):
    monkeypatch.setattr(margolis.SteenrodMonomial, "degree", _never)
    code, out, err = run(capsys, "margolis", "--k", "16", "--format", fmt)
    assert (code, err) == (0, "") and out


def test_margolis_csv_computes_no_homology(capsys, monkeypatch):
    monkeypatch.setattr(margolis, "margolis_homology", _never)
    code, out, err = run(capsys, "margolis", "--k", "16", "--format", "csv")
    assert (code, err) == (0, "") and out.startswith("monomial,degree,weight")


@pytest.mark.parametrize("fmt", ["pretty", "csv"])
@pytest.mark.parametrize("command", [("g", "--n", "8"), ("phi", "--prime", "2", "--n", "4")])
def test_g_and_phi_build_no_json_coefficient_lists_outside_json(capsys, monkeypatch, command,
                                                                fmt):
    monkeypatch.setattr(Poly, "to_json", _never)
    code, out, err = run(capsys, *command, "--format", fmt)
    assert (code, err) == (0, "") and out


def test_g_builds_each_member_once(capsys, monkeypatch):
    calls = []
    g_poly = semistable.g_poly
    monkeypatch.setattr(semistable, "g_poly", lambda n: calls.append(n) or g_poly(n))
    assert run(capsys, "g", "--n", "8")[0] == 0
    assert calls == list(range(9))


def test_a_pretty_phi_expansion_renders_no_json_residual(capsys, monkeypatch):
    # the JSON residual has numerators past the interpreter's int-to-string limit; the pretty
    # lines do not, so only the JSON run fails on it (one expansion serves both runs)
    monkeypatch.setattr(filtration, "expand_in_phi", functools.cache(filtration.expand_in_phi))
    argv = ("expand", "--basis", "phi", "--precision", "64", "((w-1)/2)^3")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and len(out) < 1024
    assert (out.splitlines()[0], out.splitlines()[-1]) == ("precision 2^64", "residual weight 64")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1e8736f1b7b34aa337988b3dc8eef08310ec2c5dbda817d16163c425e5e06eeb")
    with pytest.raises(ValueError) as limit:
        str(10 ** 5000)
    assert run(capsys, *argv, "--format", "json") == (2, "", f"error: {limit.value}\n")


@pytest.mark.parametrize("command, built_powers", [
    (("check-integrality", "--prime", "3", "(w+1)^20000"), []),
    (("weight", "(9^999999)^999999"), [999999]),  # 9^999999 is built, its power is not
])
def test_a_power_over_the_size_cap_exits_2_before_it_is_built(capsys, monkeypatch, command,
                                                              built_powers):
    built = []
    power = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__", lambda self, e: built.append(e) or power(self, e))
    code, out, err = run(capsys, *command)
    assert (code, out) == (2, "")
    assert err.startswith("error: power ^") and err.endswith(" bits\n")
    assert len(err.splitlines()) == 1
    assert built == built_powers


def test_deep_nesting_is_a_usage_error_without_a_traceback(capsys):
    deep = "(" * 3000 + "w" + ")" * 3000
    code, out, err = run(capsys, "check-integrality", "--prime", "3", deep)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_the_readme_command_line_examples_run(capsys):
    # the README's "Command line" block documents the flags, so each of its examples must run
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("coopbasis ")]
    assert lines
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, ""), line
        assert out, line


@pytest.mark.parametrize("prime", ["2", "3"])
def test_verify_max_n_bounds_mean_the_same_at_every_prime(capsys, prime):
    code, out, _ = run(capsys, "verify", "--prime", prime, "--max-n", "0", "--max-k", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload.get("congruences", []) == []
    code, _, err = run(capsys, "verify", "--prime", prime, "--max-n", "-1", "--max-k", "2")
    assert code == 2
    assert "natural number" in err


@pytest.mark.parametrize("n", [-1, DEFAULT_MAX_DEGREE + 1])
def test_g_rejects_an_index_out_of_range(capsys, n):
    code, out, err = run(capsys, "g", "--n", str(n), "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_builds_each_object_once(capsys, monkeypatch):
    calls = collections.Counter()
    inside_suite = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if inside_suite:
                calls[f"suite.{name}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def suite(*args, **kwargs):
        inside_suite.append(True)
        try:
            return verify_congruences(*args, **kwargs)
        finally:
            inside_suite.pop()

    build_family, expand = phi.phi_family, semistable.expand_in_g
    verify_congruences = filtration.verify_congruences
    for module in (filtration, phi):  # every module that binds the name
        monkeypatch.setattr(module, "phi_family", counted("phi_family", build_family))
    for module in (filtration, semistable):
        monkeypatch.setattr(module, "expand_in_g", counted("expand_in_g", expand))
    monkeypatch.setattr(filtration, "weight", counted("weight", filtration.weight))
    monkeypatch.setattr(Poly, "__sub__", counted("sub", Poly.__sub__))
    monkeypatch.setattr(Poly, "__rsub__", counted("sub", Poly.__rsub__))
    monkeypatch.setattr(filtration, "verify_congruences", suite)

    code, _, _ = run(capsys, "verify", "--prime", "2", "--max-n", "48", "--max-k", "12",
                     "--format", "json")
    assert code == 0
    assert calls["phi_family"] == 1
    assert calls["expand_in_g"] <= 170
    assert calls["suite.weight"] == 0
    assert calls["suite.sub"] == 0
