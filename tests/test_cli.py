"""Command-line behavior: output shape, exit codes, determinism."""

import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from mctails import models, oracle, qbd
from mctails.cli import ModelFileError, load_model_file, run

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


def test_check_fails_when_a_route_is_off(monkeypatch, capsys):
    """Tails of one route scaled by 1 + 1e-5 fail every comparison that
    reads them, and only those."""
    original = qbd.tails_ul

    def scaled(*args, **kwargs):
        series = original(*args, **kwargs)
        return dataclasses.replace(series, pis=[row * (1.0 + 1e-5) for row in series.pis])

    monkeypatch.setattr(qbd, "tails_ul", scaled)
    assert run(["check", str(FILES / "qbd22.json")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.endswith(" FAIL")]
    assert failed and all("ul" in line.split(" (")[0].split(" vs ") for line in failed)


def test_check_prints_the_oracle_depth_it_chose(capsys):
    assert run(["check", str(FILES / "gim1.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("oracle: 147 levels, estimated mass past them ")
    assert run(["check", str(FILES / "supermarket.json")]) == 0
    assert "oracle" not in capsys.readouterr().out


def test_check_has_no_oracle_depth_flag(capsys):
    assert run(["check", str(FILES / "mm1.json"), "--oracle-levels", "200"]) == 2
    assert "--oracle-levels" in capsys.readouterr().err


def _modulated_qbd(tmp_path, rho):
    """Two phases switching at rate 1, arrivals 1.2 rho and 0.8 rho, unit
    service: mean load rho."""
    up = [[1.2 * rho, 0.0], [0.0, 0.8 * rho]]
    local = [[-2.0 - 1.2 * rho, 1.0], [1.0, -2.0 - 0.8 * rho]]
    return _write(tmp_path, f"modulated{rho}.json", {"kind": "qbd", "blocks": {
        "B1": [[-1.0 - 1.2 * rho, 1.0], [1.0, -1.0 - 0.8 * rho]], "B0": up,
        "B2": [[1.0, 0.0], [0.0, 1.0]], "A0": up, "A1": local,
        "A2": [[1.0, 0.0], [0.0, 1.0]]}})


def _cyclic_qbd(tmp_path, m):
    """m phases visited in a cycle at rate 1, arrivals 0.5, unit service:
    its band is 4m - 1 cells wide."""
    eye = np.eye(m)
    cycle = np.roll(eye, 1, axis=1) - eye
    return _write(tmp_path, f"cyclic{m}.json", {"kind": "qbd", "blocks": {
        "B1": (cycle - 0.5 * eye).tolist(), "B0": (0.5 * eye).tolist(),
        "B2": eye.tolist(), "A0": (0.5 * eye).tolist(),
        "A1": (cycle - 1.5 * eye).tolist(), "A2": eye.tolist()}})


def test_check_deepens_its_oracle_under_heavy_load(tmp_path, capsys):
    assert run(["check", _modulated_qbd(tmp_path, 0.95)]) == 0
    assert "oracle: 738 levels" in capsys.readouterr().out
    assert run(["check", _modulated_qbd(tmp_path, 0.99)]) == 0
    assert "oracle: 3679 levels" in capsys.readouterr().out


def test_check_exits_three_when_the_oracle_cannot_be_deep_enough(tmp_path, capsys, monkeypatch):
    # 100 phases: a band 399 wide, so the 4,000,000-cell cap allows 99
    # levels, and a check at 99 levels stops before it assembles any band
    assert run(["check", _cyclic_qbd(tmp_path, 100), "--levels", "99"]) == 3
    err = capsys.readouterr().err
    assert "10000 states (band limit 4000000 cells)" in err
    assert "mass of inf past level 99" in err
    # a cap of 2,000 levels of the rho = 0.99 chain, which needs 3,679:
    # every depth up to the cap leaves too much mass past it
    monkeypatch.setattr(oracle, "MAX_CELLS", 7 * 4002)
    assert run(["check", _modulated_qbd(tmp_path, 0.99)]) == 3
    err = capsys.readouterr().err
    assert "4002 states (band limit 28014 cells) leave a mass of" in err
    assert "past level 2000, over tol of pi_20" in err


def test_deep_check_stays_small_in_memory(capsys):
    """check at 1,000 levels solves a 2,000-level oracle (4,002 states) as a
    band 7 wide; the dense matrix alone would take 128 MB."""
    tracemalloc.start()
    try:
        assert run(["check", str(FILES / "qbd22.json"), "--levels", "1000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "oracle: 2000 levels" in capsys.readouterr().out
    assert peak < 5e6


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


def test_retrial_horizon_key_exits_two(tmp_path, capsys):
    """The retrial route picks its own depth, so a file may not set one."""
    model = json.loads((FILES / "retrial.json").read_text())
    path = _write(tmp_path, "retrial.json", dict(model, horizon=200))
    assert run(["solve", path]) == 2
    assert "$.horizon" in capsys.readouterr().err


def test_ldqbd_horizon_is_its_block_list_length(tmp_path, capsys):
    model = json.loads((FILES / "ldqbd.json").read_text())
    assert load_model_file(str(FILES / "ldqbd.json")).payload.horizon == \
        len(model["blocks"]["A1"]) - 1
    path = _write(tmp_path, "ldqbd.json", dict(model, horizon=10))
    assert run(["solve", path]) == 2
    assert "$.horizon" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["solve", "check"])
def test_tol_flag_reaches_the_rate_solve(command, rate_solve_tols, capsys):
    assert run([command, str(FILES / "qbd22.json"), "--tol", "1e-5"]) == 0
    assert rate_solve_tols == [1e-5]


@pytest.mark.parametrize("command", ["solve", "check"])
def test_model_file_tol_reaches_the_rate_solve_unless_the_flag_overrides_it(
        tmp_path, command, rate_solve_tols, capsys):
    model = json.loads((FILES / "qbd22.json").read_text())
    path = _write(tmp_path, "tol.json", {**model, "tol": 1e-5})
    assert load_model_file(path).tol == 1e-5
    assert run([command, path]) == 0
    assert run([command, path, "--tol", "1e-7"]) == 0
    assert rate_solve_tols == [1e-5, 1e-7]


@pytest.mark.parametrize("kind,key,value", [
    ("retrial", "mu", "Infinity"), ("retrial", "theta", "Infinity"),
    ("repairable", "beta", "Infinity"), ("vacation", "theta", "Infinity"),
    ("mnmn1", "arrival", "[1, Infinity, 0]"), ("retrial", "lam", "NaN"),
    pytest.param("retrial", "mu", "1" + "0" * 400, id="retrial-mu-int-past-float-range")])
def test_non_finite_numbers_in_a_model_file_are_refused(tmp_path, kind, key, value):
    model = json.loads((FILES / f"{kind}.json").read_text())
    text = json.dumps({**model, "params": {**model["params"], key: "VALUE"}})
    path = _write(tmp_path, "nonfinite.json", text.replace('"VALUE"', value))
    with pytest.raises(ModelFileError, match=r"\$\.params\.%s.*finite" % key):
        load_model_file(path)


def test_meanfield_refuses_an_infinite_step(capsys):
    assert run(["meanfield", "--rho", "0.5", "--d", "2", "--dt", "inf"]) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["1e-9", "1e-15", "5e-324"])
def test_meanfield_refuses_a_step_too_small_before_integrating(dt, monkeypatch, capsys):
    """--t-end 200 over these steps asks for 2e11 steps or more; with 1e-15
    the clock stops at t = 16, where 16 + 1e-15 == 16.  The derivative norm
    is read before the first step, so reading it fails the test."""
    def stepped(_):
        raise AssertionError("meanfield_ode started integrating")
    monkeypatch.setattr(models, "inf_norm", stepped)
    assert run(["meanfield", "--rho", "0.5", "--d", "2", "--levels", "3", "--dt", dt]) == 2
    assert "dt must reach t_end = 200.0 in at most 1,000,000 steps" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", str(FILES / "mm1.json")], ["meanfield", "--rho", "0.5", "--d", "2"]])
def test_out_path_that_cannot_be_opened_exits_two(tmp_path, argv, capsys):
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        assert run(argv + ["--out", str(target)]) == 2
        assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("name,key,value,field,message", [
    ("qbd22", None, "blocks", "$.blocks", "expected a JSON object"),
    ("retrial", "lam", "fast", "$.params.lam", "expected a number"),
    ("supermarket", "d", 2.5, "$.params.d", "expected an integer"),
    ("qbd22", "B1", 3.0, "$.blocks.B1", "expected a non-empty list of rows"),
    ("qbd22", "B1", [[]], "$.blocks.B1[0]", "expected a non-empty row of numbers"),
    ("qbd22", "B1", [[-1.0, 1.0], [1.0]], "$.blocks.B1[1]", "row length 1 differs from 2"),
    ("ldqbd", "A0", [3.0], "$.blocks.A0[0]", "expected a non-empty list of rows"),
    ("ldqbd", "A2", {}, "$.blocks.A2", "expected a non-empty list of matrices"),
    ("mnmn1", "arrival", [], "$.params.arrival", "rate list must not be empty"),
    ("mm1", "tol", 0.0, "$.tol", "must be a positive finite number"),
    ("mm1", "tol", -1e-9, "$.tol", "must be a positive finite number"),
])
def test_model_file_readers_refuse_and_name_the_field(tmp_path, capsys, name, key, value,
                                                      field, message):
    """A value of the wrong form exits 2 naming its field path; key None
    replaces the whole section."""
    model = json.loads((FILES / f"{name}.json").read_text())
    section = "blocks" if "blocks" in model else "params"
    if key is None:
        model[section] = value
    elif key == "tol":
        model["tol"] = value
    else:
        model[section] = {**model[section], key: value}
    assert run(["solve", _write(tmp_path, "bad.json", model)]) == 2
    assert f"{field}: {message}" in capsys.readouterr().err
