import json
from fractions import Fraction

import pytest

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


def test_reconstruct_command(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--max-den", "2", "--coeffs", "1,1,2,3,5,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["den"] == {"0": "1", "1": "-1", "2": "-1"}


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "f-segre", "7")
    assert code == 4 and "p in {1, 2, 3}" in err
    code, _, err = run_cli(capsys, "prime", "1,x")
    assert code == 2 and "invalid partition syntax" in err
    code, _, err = run_cli(capsys, "char-table", "40")
    assert code == 3
    code, _, err = run_cli(capsys, "char-table", "0")
    assert code == 2 and "p must be at least 1" in err


def test_capacity_env(capsys, monkeypatch):
    monkeypatch.setenv("SEGRE_CAPACITY", "5")
    code, _, err = run_cli(capsys, "koszul", "--dims", "2,2", "--p", "1", "--d", "2")
    assert code == 3 and "capacity 5" in err


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "text", "koszul", "--dims", "2,2", "--p", "1", "--d", "2"
    )
    assert code == 0
    assert "dimension" in out and "1" in out


def test_sumlem_negative_shift(capsys):
    code, out, _ = run_cli(capsys, "sumlem", "--e=-1,0", "--d", "2", "--terms", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == ["0", "1", "2", "4"]


def test_koszul_weights_csv(capsys):
    code, out, _ = run_cli(
        capsys, "koszul", "--dims", "2,2", "--p", "1", "--d", "2", "--weights"
    )
    assert code == 0
    body = out.splitlines()
    assert body[1] == "weight,multiplicity"
    assert body[2] == "1,1;1,1,1"


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith("PASS") for line in lines)
