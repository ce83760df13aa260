"""Command-line behavior: output shape, exit codes, determinism."""

import json
import pathlib

import pytest

from mctails.cli import run

FILES = pathlib.Path(__file__).resolve().parent.parent / "modelfiles"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_solve_prints_geometric_tails_as_csv(capsys):
    assert run(["solve", str(FILES / "mm1.json"), "--levels", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,p0"
    values = [line.split(",") for line in lines[1:]]
    assert [v[0] for v in values] == ["1", "2", "3"]
    for row, expect in zip(values, (0.5, 0.25, 0.125)):
        assert abs(float(row[1]) - expect) < 1e-9


def test_solve_json_output_carries_the_boundary(capsys):
    assert run(["solve", str(FILES / "mm1.json"), "--levels", "2",
                "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "qbd"
    assert payload["first_level"] == 1
    assert abs(payload["x0"][0] - 0.5) < 1e-9
    assert [entry["k"] for entry in payload["tails"]] == [1, 2]
    assert abs(payload["tails"][1]["pi"][0] - 0.25) < 1e-9


def test_solve_writes_to_a_file(tmp_path, capsys):
    out = tmp_path / "tails.csv"
    assert run(["solve", str(FILES / "supermarket.json"), "--levels", "2",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "0,1"


def test_solve_respects_the_method_flag(capsys):
    assert run(["solve", str(FILES / "mm1.json"), "--levels", "2",
                "--method", "lu", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "lu-rg"


def test_check_passes_on_every_bundled_file(capsys):
    for path in sorted(FILES.glob("*.json")):
        assert run(["check", str(path)]) == 0, path.name
        out = capsys.readouterr().out
        assert "check passed" in out


def test_check_output_is_deterministic(capsys):
    assert run(["check", str(FILES / "qbd22.json")]) == 0
    first = capsys.readouterr().out
    assert run(["check", str(FILES / "qbd22.json")]) == 0
    assert capsys.readouterr().out == first


def test_check_fails_against_a_too_shallow_reference(capsys):
    code = run(["check", str(FILES / "mm1.json"),
                "--levels", "4", "--oracle-levels", "6"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_meanfield_tracks_the_fixed_point(capsys):
    assert run(["meanfield", "--rho", "0.5", "--d", "2", "--levels", "5",
                "--t-end", "60"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,ode,fixed_point"
    for line in lines[1:]:
        _, ode, fixed = line.split(",")
        assert abs(float(ode) - float(fixed)) < 1e-6


def test_malformed_json_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "broken.json", '{"kind": "qbd"')
    assert run(["solve", path]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_block_exits_two_with_field_path(tmp_path, capsys):
    path = _write(tmp_path, "missing.json",
                  {"kind": "qbd", "blocks": {"B1": [[-1.0]]}})
    assert run(["solve", path]) == 2
    assert "$.blocks" in capsys.readouterr().err


def test_unknown_kind_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "odd.json", {"kind": "mmpp", "params": {}})
    assert run(["solve", path]) == 2
    assert "$.kind" in capsys.readouterr().err


def test_ragged_matrix_exits_two_with_its_position(tmp_path, capsys):
    path = _write(tmp_path, "ragged.json", {
        "kind": "qbd",
        "blocks": {"B1": [[-1.0]], "B0": [[1.0]], "B2": [[2.0]],
                   "A0": [[1.0, 0.0]], "A1": [[-3.0]], "A2": [[2.0]]},
    })
    assert run(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "$.blocks" in err


def test_wrong_method_for_kind_exits_two(capsys):
    assert run(["solve", str(FILES / "gim1.json"), "--method", "lu"]) == 2
    assert "choices: mg, ul" in capsys.readouterr().err


def test_unstable_model_exits_three(tmp_path, capsys):
    path = _write(tmp_path, "hot.json",
                  {"kind": "vacation", "params": {"lam": 1.2, "theta": 1.0}})
    assert run(["solve", path]) == 3
    assert "solver error" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert run(["solve", "no-such-file.json"]) == 2
    capsys.readouterr()


def test_unknown_top_level_key_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "extra.json",
                  {"kind": "supermarket", "params": {"rho": 0.5, "d": 2},
                   "blokcs": {}})
    assert run(["solve", path]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_levels_below_one_exit_two(command, capsys):
    assert run([command, str(FILES / "retrial.json"), "--levels", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--levels" in captured.err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_non_positive_or_non_finite_tol_exits_two(tol, capsys):
    assert run(["solve", str(FILES / "mm1.json"), "--tol", tol]) == 2
    assert "--tol" in capsys.readouterr().err


def test_oracle_shallower_than_the_compared_levels_exits_two(capsys):
    assert run(["check", str(FILES / "mm1.json"),
                "--levels", "300", "--oracle-levels", "100"]) == 2
    assert "oracle levels" in capsys.readouterr().err
    # the supermarket model has no reference chain, so no depth to check
    assert run(["check", str(FILES / "supermarket.json"),
                "--levels", "30", "--oracle-levels", "10"]) == 0
    capsys.readouterr()
