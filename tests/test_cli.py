"""End-to-end checks of the command line surface."""

import csv
import io
import json

import pytest

from gpaley import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_cliques_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cliques", "--q", "17", "--k", "2", "--m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "0"
    assert data["field"] == {"p": 17, "r": 1, "q": 17, "modulus": [0, 1], "primitive": 3}


def test_thm1_past_the_histogram_is_a_size_limit(capsys):
    code, out, err = run_cli(capsys, "cliques", "--q", "19", "--k", "9", "--m", "4",
                             "--method", "thm1")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "SizeLimit"


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field", "info", "--p", "2", "--r", "4")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 16 and data["modulus"] == [1, 1, 0, 0, 1]


def test_orbits_subcommand(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--k", "4")
    data = json.loads(out)
    assert code == 0
    assert data["Xk_size"] == 93 and data["N_k"] == 11


@pytest.mark.parametrize("k, error", [("0", "ValueError"), ("1", "ValueError"),
                                      ("-3", "ValueError"), ("17", "SizeLimit")])
def test_orbits_rejects_bad_k(capsys, k, error):
    code, out, err = run_cli(capsys, "orbits", "--k", k)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv", [("jacobi", "--q", "13", "--k", "0"),
                                  ("hyp", "--q", "13", "--k", "0", "--t", "1,1,1,0,0")])
def test_order_below_one_is_a_json_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("k", ["0", "1"])
def test_ramsey_rejects_k_below_two(capsys, k):
    code, out, err = run_cli(capsys, "ramsey", "--k", k, "--m", "4", "--qmax", "50")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidCongruence"


def test_hyp_subcommand(capsys):
    code, out, _ = run_cli(capsys, "hyp", "--q", "127", "--k", "3", "--t", "1,1,2,0,0")
    data = json.loads(out)
    assert code == 0
    assert data["scaled_value"]["coeffs"][0] == -205
    assert data["scale_power"] == 2
    assert abs(data["numeric_embedding"][0] + 205) < 1e-9


def test_ramsey_subcommand(capsys):
    code, out, _ = run_cli(capsys, "ramsey", "--k", "3", "--m", "4", "--qmax", "230")
    data = json.loads(out)
    assert code == 0
    assert data["bound"] == 128


def test_csv_and_json_agree(capsys):
    _, json_out, _ = run_cli(capsys, "jacobi", "--q", "457", "--k", "4")
    _, csv_out, _ = run_cli(capsys, "jacobi", "--q", "457", "--k", "4",
                            "--format", "csv")
    data = json.loads(json_out)
    rows = dict((row[0], row[1]) for row in
                list(csv.reader(io.StringIO(csv_out)))[1:])
    assert rows["R_k"] == data["R_k"] == "-126"
    assert rows["S_k"] == data["S_k"] == "2678"
    assert rows["quadforms.TwoSquares.x"] == str(data["quadforms"]["TwoSquares"]["x"]) == "21"
    assert rows["field.q"] == str(data["field"]["q"])


def test_computation_error_is_structured(capsys):
    code, out, err = run_cli(capsys, "cliques", "--q", "6", "--k", "2", "--m", "4")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cliques", "--q", "17"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("orbits", "--k", "3", "--jobs", "2"),
    ("orbits", "--k", "3", "--cache", "x"),
    ("verify", "--format", "csv"),
    ("verify", "--cache", "x"),
    ("ramsey", "--k", "3", "--m", "4", "--qmax", "50", "--oracle-cap", "5"),
    ("ramsey", "--k", "3", "--m", "4", "--qmax", "50", "--field-cap", "5"),
    ("jacobi", "--q", "13", "--k", "2", "--seed", "1"),
    ("cliques", "--q", "17", "--k", "2", "--m", "4", "--jobs", "2"),
    ("cliques", "--q", "13", "--k", "2", "--m", "4", "--oracle-cap", "5"),
])
def test_option_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("lam", ["20", "-1"])
def test_hyp_lambda_outside_the_field_is_a_json_error(capsys, lam):
    code, out, err = run_cli(capsys, "hyp", "--q", "13", "--k", "2",
                             "--t", "1,1,1,0,0", "--lambda", lam)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_verify_wiring(monkeypatch, capsys):
    from gpaley.verify import CheckResult

    def fake_suite(profile="quick", jobs=1, seed=0):
        return [CheckResult("stub", True, "ok")]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "[PASS] stub" in out

    def failing_suite(profile="quick", jobs=1, seed=0):
        return [CheckResult("stub", False, "broken")]

    monkeypatch.setattr(cli, "run_suite", failing_suite)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "[FAIL] stub" in out


def test_cache_env_default(monkeypatch, tmp_path, capsys):
    path = tmp_path / "env_cache.jsonl"
    monkeypatch.setenv("GPALEY_CACHE", str(path))
    code, _, _ = run_cli(capsys, "ramsey", "--k", "2", "--m", "3", "--qmax", "20")
    assert code == 0
    assert path.exists()
