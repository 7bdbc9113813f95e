import io
import json
from fractions import Fraction
from math import comb

import pytest

from segre_syzygies import acceptance
from segre_syzygies.cli import main, parse_partition, parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_partition():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("0") == ()
    assert parse_partition("-") == ()
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_parse_poly():
    assert parse_poly("1", 2) == {(0, 0): 1}
    assert parse_poly("k1", 1) == {(1,): 1}
    assert parse_poly("2*k1^2*k2 - k2 + 1/2", 2) == {
        (2, 1): 2,
        (0, 1): -1,
        (0, 0): Fraction(1, 2),
    }
    with pytest.raises(ValueError):
        parse_poly("k3", 2)
    for text in ("k1^-1", "k1^", "k1^x", "k1^2^3", "2*k1^-2"):
        with pytest.raises(ValueError, match="non-negative integers"):
            parse_poly(text, 1)


def test_koszul_command(capsys):
    code, out, _ = run_cli(capsys, "koszul", "--dims", "2,2", "--p", "1", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["decomposition"] == [{"lambdas": [[1, 1], [1, 1]], "mult": 1}]


def test_koszul_cosocle_command(capsys):
    code, out, _ = run_cli(
        capsys, "koszul", "--dims", "2,2,2", "--p", "1", "--d", "2", "--cosocle"
    )
    assert code == 0
    assert json.loads(out)["new_dimension"] == 0


def test_lascoux_command(capsys):
    code, out, _ = run_cli(capsys, "lascoux", "1", "2")
    assert code == 0
    assert json.loads(out) == {
        "terms": [{"monomial": [[1, 1], [1, 1]], "coeff": "1/2"}]
    }


def test_euler_chi_constant(capsys):
    code, out, _ = run_cli(capsys, "euler-chi", "0", "--order", "3")
    assert code == 0
    assert json.loads(out) == {"terms": [{"monomial": [], "coeff": "1"}]}


def test_fsegre_star(capsys):
    code, out, _ = run_cli(
        capsys, "f-segre", "1", "--order", "2", "--max-part", "2", "--star"
    )
    assert code == 0
    assert json.loads(out) == {
        "terms": [{"monomial": [[1, 1], [1, 1]], "coeff": "1"}]
    }


def test_prime_and_boxtimes(capsys):
    code, out, _ = run_cli(capsys, "prime", "1,1")
    assert code == 0
    assert json.loads(out) == {"1,1": "1", "2": "1"}
    code, out, _ = run_cli(capsys, "boxtimes", "1", "1")
    assert code == 0
    assert json.loads(out) == {"1,1": "1", "2": "1"}


def test_lr_and_kronecker(capsys):
    code, out, _ = run_cli(capsys, "lr", "1", "1", "2")
    assert code == 0 and json.loads(out) == {"coefficient": 1}
    code, out, _ = run_cli(capsys, "kronecker", "2,1", "2,1", "2,1")
    assert code == 0 and json.loads(out) == {"coefficient": 1}


def test_char_table_csv(capsys):
    code, out, _ = run_cli(capsys, "char-table", "2", "--csv")
    assert code == 0
    assert out.splitlines()[0] == 'lambda\\mu,2,"1,1"'


def test_sumlem_command(capsys):
    code, out, _ = run_cli(capsys, "sumlem", "--poly", "k1", "--d", "1", "--terms", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["num"] == {"1": "1"}
    assert payload["den"] == {"0": "1", "1": "-2", "2": "1"}
    assert payload["series"] == ["0", "1", "2", "3", "4"]


def test_sumlem_readme_example(capsys):
    code, out, _ = run_cli(
        capsys, "sumlem", "--poly", "k1^2 - 2*k2", "--e", "1,-1", "--d", "2", "--terms", "8"
    )
    assert code == 0
    assert out == (
        '{"num": {"1": "-2", "2": "7", "3": "-3", "4": "-4"}, '
        '"den": {"0": "1", "1": "-8", "2": "25", "3": "-38", "4": "28", "5": "-8"}, '
        '"series": ["0", "-2", "-9", "-25", "-55", "-101", "-147", "-113"]}\n'
    )


def test_sumlem_zero_series(capsys):
    code, out, _ = run_cli(capsys, "sumlem", "--d", "2", "--poly", "k1-k2", "--terms", "3")
    assert code == 0
    assert json.loads(out) == {"num": {}, "den": {"0": "1"}, "series": ["0", "0", "0"]}


def test_reconstruct_command(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--max-den", "2", "--coeffs", "1,1,2,3,5,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["den"] == {"0": "1", "1": "-1", "2": "-1"}


@pytest.mark.parametrize("stdin", ["5", "null", '"1111"', '{"1": 1, "2": 1, "3": 1, "4": 1}'])
def test_reconstruct_rejects_stdin_that_is_not_an_array(capsys, monkeypatch, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, "reconstruct", "--max-den", "1")
    assert code == 2 and out == "" and "JSON array" in err


def test_reconstruct_reads_an_array_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[1, 1, 2, 3, 5, 8]"))
    code, out, _ = run_cli(capsys, "reconstruct", "--max-den", "2")
    assert code == 0
    assert json.loads(out)["den"] == {"0": "1", "1": "-1", "2": "-1"}


def test_exit_codes(capsys):
    for p in ("4", "7"):
        code, _, err = run_cli(capsys, "f-segre", p)
        assert code == 4 and "p in {1, 2, 3}" in err
    code, _, err = run_cli(capsys, "prime", "1,x")
    assert code == 2 and "invalid partition syntax" in err
    code, _, err = run_cli(capsys, "char-table", "40")
    assert code == 3
    code, _, err = run_cli(capsys, "char-table", "0")
    assert code == 2 and "p must be at least 1" in err


def test_capacity_env(capsys, monkeypatch):
    monkeypatch.setenv("SEGRE_CAPACITY", "3")
    code, _, err = run_cli(capsys, "koszul", "--dims", "2,2", "--p", "1", "--d", "2")
    assert code == 3 and "capacity 3" in err
    # capacity bounds blocks, and the largest block of this slice has 4 elements
    monkeypatch.setenv("SEGRE_CAPACITY", "5")
    code, out, _ = run_cli(capsys, "koszul", "--dims", "2,2", "--p", "1", "--d", "2")
    assert code == 0 and json.loads(out)["dimension"] == 1


@pytest.mark.parametrize("value", ["-5", "0", "lots", ""])
def test_capacity_env_must_be_a_positive_integer(capsys, monkeypatch, value):
    # a usage error (exit 2) naming the variable, not a capacity limit (exit 3)
    monkeypatch.setenv("SEGRE_CAPACITY", value)
    code, out, err = run_cli(capsys, "koszul", "--dims", "2,2", "--p", "1", "--d", "2")
    assert code == 2 and not out
    assert "SEGRE_CAPACITY" in err and repr(value) in err


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "text", "koszul", "--dims", "2,2", "--p", "1", "--d", "2"
    )
    assert code == 0
    assert "dimension" in out and "1" in out


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("sumlem", "--poly", "1/0", "--d", "1"), None),
        (("reconstruct", "--max-den", "1", "--coeffs", "1,1/0,1,1"), None),
        (("reconstruct", "--max-den", "1"), '[1, "1/0", 1, 1]'),
    ],
)
def test_zero_denominators_are_usage_errors(capsys, monkeypatch, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "zero denominator" in err and "Traceback" not in err


def test_sumlem_negative_shift(capsys):
    code, out, _ = run_cli(capsys, "sumlem", "--e=-1,0", "--d", "2", "--terms", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == ["0", "1", "2", "4"]


def test_sumlem_rejects_a_fractional_shift(capsys):
    code, out, err = run_cli(capsys, "sumlem", "--d", "1", "--e", "1.5")
    assert code == 2 and out == ""
    assert "invalid shift syntax: '1.5'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option, value, message",
    [
        (("sumlem", "--d", "2"), "--e", "-3,-4", None),
        (("sumlem", "--d", "1"), "--poly", "-k1", None),
        (("reconstruct", "--max-den", "1"), "--coeffs", "-1,1,-1,1", None),
        (("reconstruct", "--max-den", "1"), "--coeffs", "1,2,x,4", "invalid rational syntax: 'x'"),
        (("sumlem", "--d", "1"), "--poly", "2x", "invalid rational syntax: '2x'"),
    ],
)
def test_option_values_parse_like_their_equals_forms(capsys, argv, option, value, message):
    # a value that starts with "-" is not read as an option
    spaced = run_cli(capsys, *argv, option, value)
    assert spaced == run_cli(capsys, *argv, f"{option}={value}")
    code, out, err = spaced
    if message is None:
        assert code == 0 and out and not err
    else:
        assert code == 2 and not out and err == f"error: {message}\n"


@pytest.mark.parametrize("poly", ["kx", "k", "k1.5"])
def test_sumlem_rejects_a_bad_variable(capsys, poly):
    code, out, err = run_cli(capsys, "sumlem", "--d", "1", "--poly", poly)
    assert code == 2 and out == ""
    assert f"error: invalid variable {poly!r}" in err and "Traceback" not in err


def test_sumlem_answers_at_high_degree(capsys):
    # k1^500 once ran out of recursion depth, one level per unit of exponent
    code, out, err = run_cli(capsys, "sumlem", "--poly", "k1^500", "--d", "1", "--terms", "4")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["den"] == {str(j): str((-1) ** j * comb(501, j)) for j in range(502)}
    assert payload["series"] == [str(k**500) for k in range(4)]


def test_sumlem_answers_at_a_large_shift(capsys):
    # 700 boundary slices, one Euler step each
    code, out, err = run_cli(
        capsys, "sumlem", "--poly", "1", "--d", "2", "--e", "700,0", "--terms", "3"
    )
    assert code == 0 and err == ""
    assert json.loads(out)["series"] == ["1", "702", str(1 + 702 + comb(702, 2))]


def test_sumlem_negative_term_count(capsys):
    code, out, err = run_cli(capsys, "sumlem", "--d", "2", "--terms", "-3")
    assert code == 2 and out == "" and "non-negative" in err


def test_koszul_weights_csv(capsys):
    code, out, _ = run_cli(
        capsys, "koszul", "--dims", "2,2", "--p", "1", "--d", "2", "--weights"
    )
    assert code == 0
    body = out.splitlines()
    assert body[1] == "weight,multiplicity"
    assert body[2] == "1,1;1,1,1"


# every weight of (3, 3) p=2 d=3, not only the dominant ones the report keeps
KOSZUL_33_WEIGHTS = """weight,multiplicity
0,1,2;1,1,1,1
0,2,1;1,1,1,1
1,0,2;1,1,1,1
1,1,1;0,1,2,1
1,1,1;0,2,1,1
1,1,1;1,0,2,1
1,1,1;1,1,1,4
1,1,1;1,2,0,1
1,1,1;2,0,1,1
1,1,1;2,1,0,1
1,2,0;1,1,1,1
2,0,1;1,1,1,1
2,1,0;1,1,1,1
"""


def test_koszul_weights_csv_is_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "koszul", "--dims", "3,3", "--p", "2", "--d", "3", "--weights"
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["dimension"] == 16
    assert out.split("\n", 1)[1] == KOSZUL_33_WEIGHTS


def test_koszul_weights_with_cosocle_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "koszul", "--dims", "2,3", "--p", "2", "--d", "3", "--cosocle", "--weights"
    )
    assert code == 2 and out == "" and "--weights" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("euler-chi", "3", "--order", "-1"), "--order"),
        (("f-segre", "1", "--max-part", "-3"), "--max-part"),
        (("koszul", "--dims", "2,2", "--p", "-1", "--d", "2"), "p and d"),
        (("f-segre", "-1"), "p must be non-negative"),
        (("sumlem", "--poly", "k1^-1", "--d", "1"), "non-negative integers"),
    ],
)
def test_out_of_range_integers_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err and "Traceback" not in err


def test_verify_all_criteria(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 13
    assert all(line.startswith("PASS") for line in lines)


def test_verify_reports_a_check_that_raises_as_a_failure(capsys, monkeypatch):
    # an exception from a library call inside a check is that criterion's
    # FAIL line, not a usage error; every other criterion still runs
    def refuses(p, d):
        raise ValueError(f"refused at p={p}")

    monkeypatch.setattr(acceptance, "lascoux_leading", refuses)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1 and err == ""
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 13
    assert lines[3].startswith("FAIL 04 lascoux-leading-term")
    assert lines[3].endswith("-- ValueError: refused at p=1")
    assert all(line.startswith("PASS") for n, line in enumerate(lines) if n != 3)
