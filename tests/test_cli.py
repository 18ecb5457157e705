"""Exit codes, output formats and determinism of the command-line interface."""

import json
import math

import pytest

from gburge import cli
from gburge.cli import main

SQUARE = {"shape": [2, 2], "domain": "geom-rational", "rows": [["2", "1"], ["4", "3"]]}
ROW = {"shape": [3], "domain": "geom-rational", "rows": [["2", "6", "24"]]}


def write_array(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# -- apply ---------------------------------------------------------------


def test_apply_burge_known_square(tmp_path, capsys):
    code, out = run(capsys, "apply", "--map", "burge", "--in", write_array(tmp_path, SQUARE))
    assert code == 0
    assert json.loads(out)["rows"] == [["6/5", "2"], ["8", "20"]]


def test_apply_schutz_known_row(tmp_path, capsys):
    code, out = run(capsys, "apply", "--map", "schutz", "--in", write_array(tmp_path, ROW))
    assert code == 0
    assert json.loads(out)["rows"] == [["4", "12", "24"]]


def test_apply_roundtrips_through_files(tmp_path, capsys):
    src = write_array(tmp_path, SQUARE)
    mid = str(tmp_path / "mid.json")
    back = str(tmp_path / "back.json")
    assert main(["apply", "--map", "rsk", "--in", src, "--out", mid]) == 0
    assert main(["apply", "--map", "inv-rsk", "--in", mid, "--out", back]) == 0
    capsys.readouterr()
    assert json.loads(open(back).read()) == SQUARE


def test_apply_explicit_row_major_order_matches_default(tmp_path, capsys):
    src = write_array(tmp_path, SQUARE)
    order = json.dumps([[1, 1], [1, 2], [2, 1], [2, 2]])
    _, expected = run(capsys, "apply", "--map", "burge", "--in", src)
    code, out = run(capsys, "apply", "--map", "burge", "--in", src, "--order", order)
    assert code == 0
    assert out == expected


def test_apply_writes_file_with_trailing_newline(tmp_path, capsys):
    src = write_array(tmp_path, SQUARE)
    dst = tmp_path / "out.json"
    assert main(["apply", "--map", "transpose", "--in", src, "--out", str(dst)]) == 0
    capsys.readouterr()
    text = dst.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\r" not in text
    assert json.loads(text)["rows"] == [["2", "4"], ["1", "3"]]


def test_apply_unknown_map_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["apply", "--map", "nope", "--in", write_array(tmp_path, SQUARE)])
    assert info.value.code == 2


def test_apply_order_rejected_for_maps_without_one(tmp_path, capsys):
    src = write_array(tmp_path, SQUARE)
    assert main(["apply", "--map", "schutz", "--in", src, "--order", "[[1,1]]"]) == 2


def test_apply_missing_file_exits_two(tmp_path, capsys):
    assert main(["apply", "--map", "burge", "--in", str(tmp_path / "absent.json")]) == 2


def test_apply_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["apply", "--map", "burge", "--in", str(bad)]) == 2


def test_apply_malformed_array_object_exits_two(tmp_path, capsys):
    assert main(["apply", "--map", "burge", "--in", write_array(tmp_path, {"rows": []})]) == 2


def test_apply_infinite_entry_exits_two(tmp_path, capsys):
    src = tmp_path / "inf.json"
    src.write_text(
        '{"shape": [2, 2], "domain": "geom-float", "rows": [[Infinity, 1.0], [1.0, 1.0]]}',
        encoding="utf-8",
    )
    assert main(["apply", "--map", "burge", "--in", str(src)]) == 2
    assert "finite" in capsys.readouterr().err


def test_apply_float_overflow_exits_two(tmp_path, capsys):
    huge = {"shape": [2, 2], "domain": "geom-float", "rows": [[1e200, 1e200], [1e200, 1e200]]}
    assert main(["apply", "--map", "burge", "--in", write_array(tmp_path, huge)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: float overflow at box (1,1)" in captured.err


def test_apply_burge_up_needs_a_symmetric_array(tmp_path, capsys):
    assert main(["apply", "--map", "burge-up", "--in", write_array(tmp_path, SQUARE)]) == 2


def test_apply_burge_up_on_symmetric_input(tmp_path, capsys):
    sym = {"shape": [2, 2], "domain": "geom-rational", "rows": [["1", "3"], ["3", "2"]]}
    code, out = run(capsys, "apply", "--map", "burge-up", "--in", write_array(tmp_path, sym))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0][1] == rows[1][0]


# -- verify ---------------------------------------------------------------


def test_verify_identity_report_and_exit_zero(capsys):
    code, out = run(capsys, "verify", "--identity", "thm3.2", "--max-size", "3",
                    "--trials", "5", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report == {"identity": "thm3.2", "trials": 5, "failures": 0}


def test_verify_is_thread_invariant(capsys):
    argv = ["verify", "--identity", "thm3.4-C", "--max-size", "3", "--trials", "6", "--seed", "9"]
    _, single = run(capsys, *argv, "--threads", "1")
    _, multi = run(capsys, *argv, "--threads", "4")
    assert single == multi


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--identity", "prop4.1", "--trials", "3", "--seed", "1"),
        ("verify", "--identity", "prop4.2", "--trials", "3", "--seed", "1"),
        ("verify", "--identity", "prop4.3", "--max-size", "3", "--trials", "5", "--seed", "1"),
        ("verify", "--identity", "jacobian", "--max-size", "2", "--trials", "2", "--seed", "1"),
        ("verify", "--identity", "jacobian-symmetric", "--trials", "2", "--seed", "1"),
        ("verify", "--identity", "tropical-limit", "--max-size", "2", "--trials", "3", "--seed", "1"),
        ("verify", "--identity", "replica-decomposition", "--max-size", "3", "--trials", "4",
         "--seed", "1"),
    ],
)
def test_verify_extra_identities_pass(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0 and report["trials"] > 0


def test_verify_unknown_identity_exits_two(capsys):
    assert main(["verify", "--identity", "bogus", "--seed", "0"]) == 2


def test_verify_requires_a_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm3.2"])
    assert info.value.code == 2


# -- polymer ---------------------------------------------------------------


def test_polymer_laplace_csv_format(capsys):
    code, out = run(capsys, "polymer", "--cmd", "laplace", "-n", "2", "--alpha", "1,1",
                    "--samples", "500", "--seed", "5", "-r", "0.5,1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,estimate,stderr,samples,seed"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[3] == "500" and first[4] == "5"
    assert 0.0 < float(first[1]) < 1.0 and float(first[2]) > 0.0
    assert out.endswith("\n") and "\r" not in out


def test_polymer_laplace_is_thread_invariant(capsys):
    argv = ["polymer", "--cmd", "laplace", "-n", "2", "--alpha", "1,1.5",
            "--samples", "400", "--seed", "11"]
    _, one = run(capsys, *argv, "--threads", "1")
    _, two = run(capsys, *argv, "--threads", "2")
    _, eight = run(capsys, *argv, "--threads", "8")
    assert one == two == eight


def test_polymer_ks_zzstar_passes(capsys):
    code, out = run(capsys, "polymer", "--cmd", "ks-zzstar", "-n", "2", "--alpha", "1,1",
                    "--samples", "3000", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["pvalue"] > 0.01


def test_polymer_lukacs_passes(capsys):
    code, out = run(capsys, "polymer", "--cmd", "lukacs", "--alpha", "1,2",
                    "--samples", "3000", "--seed", "3")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_polymer_replica_routes_agree(capsys):
    code, out = run(capsys, "polymer", "--cmd", "replica", "-n", "3", "--alpha", "1,1.5,2",
                    "--samples", "10", "--seed", "4")
    assert code == 0
    report = json.loads(out)
    assert report["max_relerr"] < 1e-10 and report["pass"] is True


def test_polymer_replica_impossible_tolerance_exits_one(capsys):
    code, out = run(capsys, "polymer", "--cmd", "replica", "-n", "2", "--alpha", "1,1",
                    "--samples", "5", "--seed", "4", "--tol", "0")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_polymer_alpha_length_mismatch_exits_two(capsys):
    assert main(["polymer", "--cmd", "laplace", "-n", "2", "--alpha", "1,1,1",
                 "--seed", "0"]) == 2


def test_polymer_non_numeric_alpha_exits_two(capsys):
    assert main(["polymer", "--cmd", "lukacs", "--alpha", "1,x", "--seed", "0"]) == 2


@pytest.mark.parametrize("samples", ["0", "-1"])
@pytest.mark.parametrize("cmd", ["laplace", "ks-zzstar", "lukacs"])
def test_polymer_samples_below_one_exit_two(capsys, cmd, samples):
    code = main(["polymer", "--cmd", cmd, "-n", "2", "--alpha", "1,2",
                 "--samples", samples, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: samples must be at least 1, got {samples}" in captured.err


@pytest.mark.parametrize("samples", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["polymer", "--cmd", "replica", "-n", "2", "--alpha", "1,2", "--seed", "1"],
        ["whittaker", "--cmd", "density-check", "--alpha", "1,2", "--seed", "1"],
    ],
)
def test_replica_and_density_check_samples_below_one_exit_two(capsys, argv, samples):
    code = main(argv + ["--samples", samples])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: samples must be at least 1, got {samples}" in captured.err


def test_polymer_requires_a_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["polymer", "--cmd", "laplace", "-n", "2", "--alpha", "1,1"])
    assert info.value.code == 2


# -- whittaker ---------------------------------------------------------------


def test_whittaker_eval_matches_bessel_point(capsys):
    from scipy.special import kv

    code, out = run(capsys, "whittaker", "--cmd", "eval", "-n", "2", "--alpha", "1,1",
                    "--x", "1,1")
    assert code == 0
    value = json.loads(out)["value"]
    assert value == pytest.approx(2.0 * kv(0, 2.0), rel=1e-10)


def test_whittaker_corollary_rank_one_is_exact(capsys):
    code, out = run(capsys, "whittaker", "--cmd", "corollary", "-n", "1", "--alpha", "2",
                    "--beta", "3")
    assert code == 0
    report = json.loads(out)
    assert report["rhs"] == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert report["relerr"] < 1e-10


def test_whittaker_corollary_untight_tolerance_exits_one(capsys):
    code, out = run(capsys, "whittaker", "--cmd", "corollary", "--alpha", "1,1",
                    "--beta", "1", "--tol", "1e-15")
    assert code == 1
    assert json.loads(out)["relerr"] > 1e-15


def test_whittaker_density_check_small_run(capsys):
    code, out = run(capsys, "whittaker", "--cmd", "density-check", "--alpha", "1,1",
                    "--beta", "1", "--samples", "3000", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and len(report["cdf_points"]) == 25
    assert set(report["diagnostics"]) == {"uniforms", "gamma_rejections", "grid_nodes"}


def test_whittaker_eval_needs_x(capsys):
    assert main(["whittaker", "--cmd", "eval", "-n", "2", "--alpha", "1,1"]) == 2


def test_whittaker_density_check_needs_seed(capsys):
    assert main(["whittaker", "--cmd", "density-check", "--alpha", "1,1", "--beta", "1",
                 "--samples", "100"]) == 2


def test_whittaker_corollary_unsupported_rank_exits_two(capsys):
    assert main(["whittaker", "--cmd", "corollary", "--alpha", "1,1,1", "--beta", "1"]) == 2


def test_whittaker_corollary_overflowing_constant_exits_two(capsys):
    code = main(["whittaker", "--cmd", "corollary", "--alpha", "5,8", "--beta", "1e-30"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: normalization constant c(alpha=(5.0, 8.0), beta=1e-30)")
    assert "overflows a float" in captured.err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_report_value_exits_two_with_an_error_line(capsys, monkeypatch, bad):
    monkeypatch.setattr(cli, "psi", lambda params, method: bad)
    code = main(["whittaker", "--cmd", "eval", "--alpha", "1", "--x", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: Out of range float values are not JSON compliant")
    assert captured.err.count("\n") == 1


def test_whittaker_rank_defaults_to_the_length_of_alpha(capsys):
    code, out = run(capsys, "whittaker", "--cmd", "corollary", "--alpha", "2", "--beta", "3")
    assert code == 0
    assert json.loads(out)["n"] == 1


@pytest.mark.parametrize("cmd", ["eval", "corollary", "density-check"])
def test_whittaker_rank_disagreeing_with_alpha_exits_two(capsys, cmd):
    argv = ["whittaker", "--cmd", cmd, "-n", "3", "--alpha", "1,1", "--x", "1,1",
            "--samples", "10", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--alpha needs 3" in captured.err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
