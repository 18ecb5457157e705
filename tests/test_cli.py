"""Exit codes, output formats and determinism of the command-line interface."""

import json
import math
import re
import warnings
from pathlib import Path

import pytest

from gburge import cli
from gburge.cli import main
from gburge.correspondences import IDENTITY_NAMES

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


def test_apply_malformed_order_exits_two_naming_it(capsys):
    src = str(Path(__file__).parent / "apply_rational_3x3.json")
    assert main(["apply", "--map", "rsk", "--in", src, "--order", "[[1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --order must be a JSON list of [row, column] pairs, got '[[1'\n"
    )


def test_apply_missing_file_exits_two(tmp_path, capsys):
    assert main(["apply", "--map", "burge", "--in", str(tmp_path / "absent.json")]) == 2


def test_apply_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["apply", "--map", "burge", "--in", str(bad)]) == 2


def test_apply_malformed_array_object_exits_two(tmp_path, capsys):
    assert main(["apply", "--map", "burge", "--in", write_array(tmp_path, {"rows": []})]) == 2


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"shape": [1], "domain": "geom-float", "rows": [["x"]]},
         "box (1,1): could not convert string to float: 'x'"),
        ({"shape": [2], "domain": "tropical", "rows": [[1, None]]}, "box (1,2): float() argument"),
        ({"shape": [1, 1], "domain": "geom-rational", "rows": [["1"], ["1/0"]]},
         "box (2,1): rational entries must be Fraction, int or 'p/q', got '1/0'"),
        # max-plus entries are finite reals: there is no "-inf" token
        ({"shape": [2], "domain": "tropical", "rows": [[1, "-inf"]]},
         "box (1,2): tropical interior entries must be finite real numbers, got -inf"),
    ],
    ids=["float-x", "tropical-null", "rational-1/0", "tropical-minus-inf"],
)
def test_apply_bad_entry_exits_two_naming_its_box(tmp_path, capsys, obj, message):
    assert main(["apply", "--map", "rsk", "--in", write_array(tmp_path, obj)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


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


def test_apply_max_plus_overflow_exits_two_naming_its_box(tmp_path, capsys):
    low = {"shape": [2, 2], "domain": "tropical", "rows": [[-1e308, -1e308], [-1e308, -1e308]]}
    assert main(["apply", "--map", "burge", "--in", write_array(tmp_path, low)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: float overflow at box (1,2) of the map's output: -inf\n"


def test_apply_burge_up_needs_a_symmetric_array(tmp_path, capsys):
    assert main(["apply", "--map", "burge-up", "--in", write_array(tmp_path, SQUARE)]) == 2


def test_apply_burge_up_on_symmetric_input(tmp_path, capsys):
    sym = {"shape": [2, 2], "domain": "geom-rational", "rows": [["1", "3"], ["3", "2"]]}
    code, out = run(capsys, "apply", "--map", "burge-up", "--in", write_array(tmp_path, sym))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0][1] == rows[1][0]


def test_apply_burge_up_runs_in_max_plus(capsys):
    src = str(Path(__file__).parent / "apply_tropical_3x3.json")
    outs = [run(capsys, "apply", "--map", m, "--in", src) for m in ("burge-up", "burge")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    assert json.loads(outs[0][1])["rows"] == [[-4.0, 1.0, 6.0], [1.0, 0.0, 7.0], [6.0, 7.0, 13.0]]


# -- verify ---------------------------------------------------------------


def test_verify_identity_report_and_exit_zero(capsys):
    code, out = run(capsys, "verify", "--identity", "thm3.2", "--max-size", "3",
                    "--trials", "5", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report == {"test": "thm3.2", "trials": 5, "seed": 0, "failures": 0, "pass": True}


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


@pytest.mark.parametrize("name", cli._COMMANDS["verify"])
def test_verify_reports_trials_as_the_number_of_inputs(capsys, name):
    argv = ["verify", "--identity", name, "--trials", "2", "--seed", "1"]
    if "max_size" in cli._COMMANDS["verify"][name][1]:
        argv += ["--max-size", "4" if name == "appendix-C-identity" else "2"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["trials"] == 2


def test_verify_unknown_identity_exits_two(capsys):
    assert main(["verify", "--identity", "bogus", "--seed", "0"]) == 2


def test_verify_requires_a_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--identity", "thm3.2"])
    assert info.value.code == 2


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--trials", "--max-size"])
@pytest.mark.parametrize("name", ["thm3.2", "prop4.1", "replica-decomposition", "jacobian"])
def test_verify_trials_or_max_size_below_one_exit_two(capsys, name, flag, value):
    code = main(["verify", "--identity", name, flag, value, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} must be at least 1, got {value}\n"


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("tropical-limit", "--tol", "1e-300"),
        ("jacobian-symmetric", "--max-size", "1"),
        ("thm3.2", "--tol", "1e-9"),
        ("replica-decomposition", "--tol", "1e-9"),
    ],
)
def test_verify_flag_the_check_does_not_take_exits_two(capsys, name, flag, value):
    code = main(["verify", "--identity", name, flag, value, "--trials", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {name} takes no {flag}\n"


def test_every_check_has_a_default_for_each_flag_it_takes():
    for subcommand, table in cli._COMMANDS.items():
        for name, (run, flags) in table.items():
            assert callable(run) and set(flags) <= set(cli._OPTIONS), name
            for flag, default in flags.items():
                if flag == "n":
                    assert default == cli._ALPHAS, name
                elif default == cli._NEEDED:
                    assert (name, flag) in {("eval", "x"), ("density-check", "seed")}
                elif flag == "r":
                    assert default == (0.5, 1.0, 2.0), name
                else:
                    assert default > 0 and (flag in ("beta", "tol") or default >= 1), (name, flag)
    # the checks that compare exact rationals take no --tol
    verify = cli._COMMANDS["verify"]
    assert [n for n, (_, flags) in verify.items() if "tol" not in flags] == [
        *IDENTITY_NAMES,
        "prop4.1",
        "prop4.2",
        "prop4.3",
        "tropical-limit",
        "replica-decomposition",
    ]
    assert [n for n, (_, flags) in verify.items() if "max_size" not in flags] == [
        "jacobian-symmetric"
    ]
    taken = {
        name: set(flags)
        for subcommand in ("polymer", "whittaker")
        for name, (_, flags) in cli._COMMANDS[subcommand].items()
    }
    assert taken == {
        "laplace": {"n", "beta", "samples", "r"},
        "ks-zzstar": {"n", "samples"},
        "lukacs": {"samples"},
        "replica": {"n", "beta", "samples", "tol"},
        "eval": {"n", "x"},
        "corollary": {"n", "beta", "tol"},
        "density-check": {"n", "beta", "samples", "seed", "r"},
    }


# the argv each subcommand needs before any optional flag
_BASE_ARGV = {
    "verify": ("--identity", "--seed", "1"),
    "polymer": ("--cmd", "--alpha", "1,2", "--seed", "1"),
    "whittaker": ("--cmd", "--alpha", "1,2"),
}
_UNTAKEN = [
    (subcommand, name, flag)
    for subcommand, table in cli._COMMANDS.items()
    for name, (_, flags) in table.items()
    for flag in cli._flags(subcommand)
    if flag not in flags
]


# every polymer and whittaker command with --alpha nan,1, and with --beta inf
# where it takes --beta
_NON_FINITE = [
    (subcommand, name, bad)
    for subcommand in ("polymer", "whittaker")
    for name, (_, flags) in cli._COMMANDS[subcommand].items()
    for bad in ("alpha", "beta")
    if bad == "alpha" or bad in flags
]


@pytest.mark.parametrize(
    "subcommand, name, bad", _NON_FINITE, ids=[f"{s}-{n}-{b}" for s, n, b in _NON_FINITE]
)
def test_a_non_finite_parameter_exits_two_naming_it(capsys, subcommand, name, bad):
    # on nan the gamma sampler's rejection loop never ended, and inf passed
    flags = cli._COMMANDS[subcommand][name][1]
    argv = [subcommand, "--cmd", name, "--alpha", "nan,1" if bad == "alpha" else "1,1"]
    if bad == "beta":
        argv += ["--beta", "inf"]
    for flag, value in (("seed", "1"), ("samples", "100"), ("x", "1,2")):
        if flag in flags or (flag == "seed" and subcommand == "polymer"):
            argv += [cli._OPTIONS[flag][0], value]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    if bad == "beta":
        want = "beta must be positive and finite, got inf"
    elif name == "lukacs":
        want = "a must be positive and finite, got nan"
    elif name == "eval":
        want = "alpha[0] must be finite, got nan"
    else:
        want = "alpha[0] must be positive and finite, got nan"
    assert captured.err == f"error: {want}\n"


@pytest.mark.parametrize(
    "subcommand, name, flag", _UNTAKEN, ids=[f"{s}-{n}-{f}" for s, n, f in _UNTAKEN]
)
def test_a_flag_the_command_does_not_take_exits_two(capsys, subcommand, name, flag):
    option, kind, _ = cli._OPTIONS[flag]
    head, *rest = _BASE_ARGV[subcommand]
    value = "1,1" if kind is str else "1"
    code = main([subcommand, head, name, *rest, option, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {name} takes no {option}\n"


@pytest.mark.parametrize(
    "name, floor, message",
    [
        ("appendix-C-identity", 4, "runs on n x n arrays, n >= 4; got max size 3"),
        ("replica-decomposition", 2, "draws n x n weights, n >= 2; got max size 1"),
    ],
)
def test_verify_max_size_below_the_floor_exits_two(capsys, name, floor, message):
    argv = ["verify", "--identity", name, "--trials", "1", "--seed", "1", "--max-size"]
    assert main([*argv, str(floor - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {name} {message}\n"
    code, out = run(capsys, *argv, str(floor))
    assert code == 0 and json.loads(out)["trials"] >= 1


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


def test_polymer_rank_defaults_to_the_length_of_alpha(capsys):
    argv = ["polymer", "--cmd", "laplace", "--alpha", "1,1.5,2", "--samples", "50", "--seed", "1"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *argv, "-n", "3")


def test_polymer_lukacs_needs_two_alphas(capsys):
    assert main(["polymer", "--cmd", "lukacs", "--alpha", "1,2,3", "--seed", "0"]) == 2
    assert capsys.readouterr().err == "error: lukacs takes --alpha a,b: 2 values, got 3\n"


def test_polymer_alpha_length_mismatch_exits_two(capsys):
    assert main(["polymer", "--cmd", "laplace", "-n", "2", "--alpha", "1,1,1",
                 "--seed", "0"]) == 2


def test_polymer_non_numeric_alpha_exits_two(capsys):
    assert main(["polymer", "--cmd", "lukacs", "--alpha", "1,x", "--seed", "0"]) == 2


@pytest.mark.parametrize("samples", ["0", "-1"])
@pytest.mark.parametrize("cmd", ["laplace", "ks-zzstar", "lukacs"])
def test_polymer_samples_below_one_exit_two(capsys, cmd, samples):
    code = main(["polymer", "--cmd", cmd, "--alpha", "1,2",
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


def test_density_check_one_sample_exits_two_naming_samples(capsys):
    # it printed two numpy RuntimeWarnings and "Out of range float values are
    # not JSON compliant: nan"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["whittaker", "--cmd", "density-check", "--alpha", "1,1.5",
                     "--samples", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: samples must be at least 2 for the standard errors, got 1\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_laplace_one_sample_exits_two_naming_samples(capsys):
    # it printed a standard error of 0.0 and exited 0
    code = main(["polymer", "--cmd", "laplace", "-n", "2", "--alpha", "1,1.5",
                 "--samples", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: samples must be at least 2 for the standard errors, got 1\n"


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
    # the (1, 1) corollary reaches relerr 6.7e-16, so a tolerance below it fails
    code, out = run(capsys, "whittaker", "--cmd", "corollary", "--alpha", "1,1",
                    "--beta", "1", "--tol", "1e-17")
    assert code == 1
    assert json.loads(out)["relerr"] > 1e-17


def test_polymer_inverse_gamma_overflow_exits_two(capsys):
    # at alpha = 0.01 the gamma variate of Stream(1, 75) underflows (see test_polymer)
    code = main(["polymer", "--cmd", "laplace", "--alpha", "0.01,0.01", "--samples", "20000",
                 "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: inverse-gamma draw at alpha=0.01, beta=1.0 overflows a float on lane 75, "
        "Stream(1, 75): its gamma variate is 2.964e-321\n"
    )


def test_polymer_inverse_gamma_underflow_exits_two(capsys):
    # at beta = 5e-324 a diagonal draw beta / G rounds to 0.0; laplace printed
    # estimate 1.0 with stderr 0.0 for every r and exited 0
    code = main(["polymer", "--cmd", "laplace", "-n", "2", "--alpha", "3,3", "--beta", "5e-324",
                 "--samples", "64", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: inverse-gamma draw at alpha=3.0, beta=5e-324 underflows to 0.0 on lane 1, "
        "Stream(1, 1): its gamma variate is 4.181568927428836\n"
    )


@pytest.mark.parametrize("name", ["laplace", "ks-zzstar", "replica", "lukacs"])
def test_polymer_overflowing_pair_sum_exits_two_naming_the_pair(capsys, name):
    # at alpha = (1e308, 1e308) the off-diagonal shape alpha_1 + alpha_2 is inf:
    # laplace printed estimate 1.0 with a numpy RuntimeWarning and exited 0
    size = [] if name == "lukacs" else ["-n", "2"]
    code = main(["polymer", "--cmd", name, *size, "--alpha", "1e308,1e308",
                 "--samples", "64", "--seed", "1"])
    captured = capsys.readouterr()
    pair = "a + b" if name == "lukacs" else "alpha[0] + alpha[1]"
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {pair} must be positive and finite, got inf\n"


def test_whittaker_density_check_small_run(capsys):
    code, out = run(capsys, "whittaker", "--cmd", "density-check", "--alpha", "1,1",
                    "--beta", "1", "--samples", "3000", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and len(report["cdf_points"]) == 25
    assert set(report["diagnostics"]) == {"uniforms", "gamma_rejections", "d_nodes"}
    assert report["diagnostics"]["d_nodes"] % 20 == 0  # 20 Gauss nodes a panel


def test_whittaker_density_check_below_the_floor_names_the_d_line(capsys):
    # the d line's e^{0.05 d} tail needs 920 of the probe's 400 steps
    code = main(["whittaker", "--cmd", "density-check", "--alpha", "0.05,0.06", "--beta", "1",
                 "--samples", "200", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: the d line Psi_{-alpha}(e^{-d}, 1) at alpha=(0.05, 0.06): "
        "mass did not localize\n"
    )


@pytest.mark.parametrize("argv, message", [
    # a node of the rank-3 d line rises past the probe's peak further than exp holds
    (["eval", "-n", "3", "--alpha", "1e6,1,1", "--x", "1,1,1"],
     r"Psi of rank 3 at alpha=\(1000000\.0, 1\.0, 1\.0\), x=\(1\.0, 1\.0, 1\.0\) "
     r"= exp\(2563098\d\.\d+\) overflows a float"),
    (["density-check", "--alpha", "100,100", "--samples", "2000", "--seed", "1"],
     r"normalization constant c\(alpha=\(100\.0, 100\.0\), beta=1\.0\) "
     r"= exp\(1576\.\d+\) overflows a float"),
], ids=["eval-rank3", "density-check"])
def test_whittaker_overflow_exits_two_naming_it_without_a_warning(capsys, argv, message):
    # pytest turns a RuntimeWarning into an error (pyproject.toml), so a numpy
    # overflow before the error would fail this test
    assert main(["whittaker", "--cmd", *argv]) == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)


def test_whittaker_eval_rank3_line_that_misses_its_peak_exits_two(capsys):
    # every node of the d line underflows against the probe's peak; summed
    # unchecked, the zero line reached math.log(0) and printed only
    # "math domain error"
    code = main(["whittaker", "--cmd", "eval", "-n", "3", "--alpha", "1,1,1e6", "--x", "1,1,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(
        "error: Psi of rank 3 at alpha=(1.0, 1.0, 1000000.0), x=(1.0, 1.0, 1.0): "
    )


def test_whittaker_eval_takes_no_method(capsys):
    with pytest.raises(SystemExit) as info:
        main(["whittaker", "--cmd", "eval", "--alpha", "0.5,-0.3,1.2", "--x", "0.7,1.3,2.1",
              "--method", "monte-carlo"])
    assert info.value.code == 2


def test_a_report_value_json_cannot_hold_raises(capsys, monkeypatch):
    # no silent str(): a value JSON has no type for is a bug, not output
    monkeypatch.setattr(cli, "psi", lambda params: object())
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(["whittaker", "--cmd", "eval", "--alpha", "1", "--x", "1"])
    assert capsys.readouterr().out == ""


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


def test_whittaker_corollary_overflowing_log_gamma_exits_two_naming_it(capsys):
    # math.lgamma(1e306) overflows; the error must name the constant and the term
    code = main(["whittaker", "--cmd", "corollary", "-n", "2", "--alpha", "1e306,1", "--beta", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: normalization constant c(alpha=(1e+306, 1.0), beta=1.0): "
        "log Gamma(alpha[0] = 1e+306) overflows a float\n"
    )


@pytest.mark.parametrize(
    "rank, alpha, x, log_psi",
    [
        ("3", "1,2,3", "1e300,1,1", "2071.05265"),
        ("2", "400,1", "1e300,1", "278298.73143"),
        ("1", "400", "1e300", "276310.21115"),
    ],
)
def test_whittaker_eval_overflow_exits_two_naming_it(capsys, rank, alpha, x, log_psi):
    code = main(["whittaker", "--cmd", "eval", "-n", rank, "--alpha", alpha, "--x", x])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    alpha_t = tuple(float(a) for a in alpha.split(","))
    x_t = tuple(float(v) for v in x.split(","))
    assert captured.err.startswith(
        f"error: Psi of rank {rank} at alpha={alpha_t}, x={x_t} = exp({log_psi}"
    )
    assert captured.err.endswith(") overflows a float\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_report_value_exits_two_with_an_error_line(capsys, monkeypatch, bad):
    monkeypatch.setattr(cli, "psi", lambda params: bad)
    code = main(["whittaker", "--cmd", "eval", "--alpha", "1", "--x", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: Out of range float values are not JSON compliant")
    assert captured.err.count("\n") == 1


def test_whittaker_rank_defaults_to_the_length_of_alpha(capsys):
    code, out = run(capsys, "whittaker", "--cmd", "corollary", "--alpha", "2", "--beta", "3")
    assert code == 0
    assert json.loads(out)["n"] == 1


@pytest.mark.parametrize(
    "cmd, flags",
    [
        ("eval", ["--x", "1,1"]),
        ("corollary", []),
        ("density-check", ["--samples", "10", "--seed", "1"]),
    ],
    ids=["eval", "corollary", "density-check"],
)
def test_whittaker_rank_disagreeing_with_alpha_exits_two(capsys, cmd, flags):
    argv = ["whittaker", "--cmd", cmd, "-n", "3", "--alpha", "1,1", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--alpha needs 3" in captured.err


def test_whittaker_eval_takes_a_negative_alpha_after_a_space(capsys):
    argv = ("whittaker", "--cmd", "eval", "-n", "3")
    spaced = run(capsys, *argv, "--alpha", "-1,-2,-3", "--x", "1,1,1")
    glued = run(capsys, *argv, "--alpha=-1,-2,-3", "--x", "1,1,1")
    assert spaced[0] == 0
    assert spaced == glued


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("whittaker", "--cmd", "eval", "--x", "1,2"), "--alpha", "-.5,1"),
        (("whittaker", "--cmd", "eval", "--alpha", "1,2"), "--x", "-1,2"),
        (("polymer", "--cmd", "laplace", "--alpha", "1,1.5", "--samples", "50", "--seed", "1"),
         "-r", "-0.5,1"),
    ],
)
def test_every_comma_list_option_reads_a_negative_value_after_a_space(capsys, argv, option, value):
    assert run(capsys, *argv, option, value) == run(capsys, *argv, f"{option}={value}")


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
