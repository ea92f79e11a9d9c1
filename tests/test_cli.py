"""Exit codes, header format, config-file merging, and determinism of the
command-line surface.  Heavy numerical behavior is covered by the module
suites; here the subject is the plumbing."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conedeg
from conedeg.cli import (
    EXIT_EXPECTED_VIOLATION,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    dispatch,
)
from conedeg.envelopes import GridFn, grid_to_csv


def run_to_file(tmp_path, args, name="report.csv"):
    out = tmp_path / name
    code = dispatch(args + ["--out", str(out)])
    return code, out.read_text()


# ---------------------------------------------------------------------------
# usage errors


def test_no_command_is_usage(capsys):
    assert dispatch([]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_usage(capsys):
    assert dispatch(["nonsense"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_flag_is_usage(capsys):
    assert dispatch(["dyadic", "--nope"]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_flag_value_is_usage(capsys):
    assert dispatch(["envelope", "--eps", "-1"]) == EXIT_USAGE
    assert dispatch(["perron", "--grid", "2"]) == EXIT_USAGE
    assert dispatch(["kelvin", "--n", "2"]) == EXIT_USAGE
    assert dispatch(["cone-axioms", "--cone", "weird:thing"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("usage error") == 4


def test_first_variation_box_bounds_past_the_float_range(capsys):
    # --s-bound 400 overflows the weight bound: a usage error naming M;
    # --p-bound 4 overflows only a weight size the cascade then skips
    assert dispatch(["first-variation", "--jets", "5", "--s-bound", "400"]) == EXIT_USAGE
    assert "M = 400" in capsys.readouterr().err
    assert dispatch(["first-variation", "--jets", "5", "--p-bound", "4"]) == EXIT_PASS
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args", [["ctex", "--kind", "beta-sign", "--alpha", "1e308"],
                                  ["touching", "--pair", "cusp", "--alpha", "1e308"]])
def test_cusp_alpha_past_the_float_range_is_usage(args, capsys):
    # a finite alpha whose quartic coefficient overflows a float exited 1 with
    # "integer division result too large for a float"
    assert dispatch(args) == EXIT_USAGE
    assert "usage error: alpha = 1e+308: a quartic coefficient overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("args,flag", [
    (["first-variation", "--p-bound", "inf"], "--p-bound"),
    (["first-variation", "--s-bound", "inf"], "--s-bound"),
    (["probe-L", "--x-radius", "nan"], "--x-radius"),
    (["probe-L", "--x-radius", "inf"], "--x-radius"),
    (["probe-L", "--x-radius", "-2"], "--x-radius"),
    (["probe-L", "--x-radius", "0"], "--x-radius"),
    (["probe-L", "--s-bound", "nan"], "--s-bound"),
    (["probe-L", "--growth", "nan"], "--growth"),
    (["perron", "--problem", "interval-linear", "--grid", "41", "--tol-scale", "nan"], "--tol-scale"),
    (["uniqueness", "--problem", "interval-linear", "--grid", "41", "--tol-scale", "inf"],
     "--tol-scale"),
    (["envelope", "--lipschitz", "inf"], "--lipschitz"),
    (["envelope", "--lipschitz", "nan"], "--lipschitz"),
    (["envelope", "--lipschitz", "-1"], "--lipschitz"),
    (["envelope", "--eps", "1e-3,1e-2"], "--eps"),
    (["envelope", "--eps", "1e-2,1e-2"], "--eps"),
    (["cone-axioms", "--seed", "-1"], "--seed"),
    (["envelope", "--source", "random", "--seed", "-1"], "--seed"),
    (["first-variation", "--jets", "5", "--seed", "-1"], "--seed"),
    (["kelvin", "--seed", "-1"], "--seed"),
    (["touching", "--pair", "random", "--seed", "-1"], "--seed"),
    (["probe-L", "--seed", "-1"], "--seed"),
    (["cone-axioms", "--n", "17"], "--n"),
    (["perron", "--n", "17", "--grid", "21"], "--n"),
    (["touching", "--pair", "logpair", "--grid", "2"], "--grid"),
    (["ctex", "--kind", "beta-sign", "--alpha", "inf"], "--alpha"),
    (["probe-L", "--growth", "-1"], "--growth"),
    (["probe-L", "--growth", "400"], "--growth"),
])
def test_bad_numeric_bound_is_usage(args, flag, tmp_path, capsys):
    # each exited 1 with numpy's or the verifier's message (the last twelve
    # with a library error or a run on a negative seed), and --x-radius 0
    # exited 0 on a sample whose value draws were all 0; the same value from
    # a config file meets the same check
    assert dispatch(args) == EXIT_USAGE
    assert f"usage error: argument {flag}: must" in capsys.readouterr().err
    at = args.index(flag)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}={args[at + 1]}\n")
    assert dispatch(args[:at] + args[at + 2:] + ["--config", str(cfg)]) == EXIT_USAGE
    assert f"usage error: {cfg}: argument {flag}: must" in capsys.readouterr().err


def test_ctex_flag_the_kind_does_not_take_is_usage(capsys):
    # --alpha was ignored by the smooth-profile kinds, yet echoed in the header
    for kind in ("bprime", "holder"):
        assert dispatch(["ctex", "--kind", kind, "--alpha", "5", "--rgrid", "9"]) == EXIT_USAGE
        assert f"the {kind} family takes no parameter 'alpha'" in capsys.readouterr().err


def test_nan_in_a_positive_list_is_usage(capsys):
    # a NaN inversion radius made every moving-sphere comparison vacuously true
    assert dispatch(["kelvin", "--lambdas", "0.1,nan"]) == EXIT_USAGE
    assert dispatch(["envelope", "--eps", "nan"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --lambdas: must list positive" in err and "argument --eps: must list positive" in err


def test_cone_order_above_the_dimension_is_usage(capsys):
    # gamma_k:5 sampled in dimension 3 ran on gamma_3 margins and exited 0
    for cone in ("gamma_k:5", "neg_gamma_c:4", "neg:gamma_k:5"):
        assert dispatch(["cone-axioms", "--cone", cone, "--n", "3"]) == EXIT_USAGE
        assert f"usage error: --cone {cone} in dimension --n 3" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "command" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# header contract


def test_header_has_sorted_config_echo_and_one_claim(tmp_path):
    code, text = run_to_file(tmp_path, ["dyadic"])
    assert code == EXIT_PASS
    lines = text.splitlines()
    config = [ln for ln in lines if ln.startswith("# config: ")]
    assert lines[: len(config)] == config  # echo block comes first
    keys = [ln.split(" ", 2)[2].split("=", 1)[0] for ln in config]
    assert keys == sorted(keys)
    assert "# config: command=dyadic" in config
    assert sum(1 for ln in lines if ln.startswith("# claim: ")) == 1
    assert lines[len(config)].startswith("# claim: ")


def test_stdout_when_no_out_flag(capsys):
    assert dispatch(["dyadic"]) == EXIT_PASS
    captured = capsys.readouterr()
    assert captured.out.startswith("# config: ")


def test_out_flag_leaves_stdout_empty(tmp_path, capsys):
    code, text = run_to_file(tmp_path, ["dyadic"])
    assert code == EXIT_PASS
    assert capsys.readouterr().out == ""
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# determinism


def test_same_config_same_bytes(tmp_path):
    # the out path is itself part of the echoed config, so rerun into one file
    args = ["touching", "--pair", "random", "--trials", "3", "--seed", "9"]
    _, first = run_to_file(tmp_path, args)
    _, second = run_to_file(tmp_path, args)
    assert first == second


def test_seed_feeds_the_randomness(tmp_path):
    _, a = run_to_file(tmp_path, ["envelope", "--source", "random", "--grid", "101",
                                  "--eps", "1e-2", "--seed", "1"], "a.csv")
    _, b = run_to_file(tmp_path, ["envelope", "--source", "random", "--grid", "101",
                                  "--eps", "1e-2", "--seed", "2"], "b.csv")
    rows_a = [ln for ln in a.splitlines() if not ln.startswith("#")]
    rows_b = [ln for ln in b.splitlines() if not ln.startswith("#")]
    assert rows_a != rows_b


# ---------------------------------------------------------------------------
# config files


def test_config_file_fills_unset_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=interval-linear\ngrid=31   # small smoke grid\n\n")
    code, text = run_to_file(tmp_path, ["perron", "--config", str(cfg)])
    assert code == EXIT_PASS
    assert "# config: grid=31" in text
    assert "# config: problem=interval-linear" in text


def test_explicit_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=interval-linear\ngrid=31\n")
    code, text = run_to_file(tmp_path, ["perron", "--config", str(cfg), "--grid", "21"])
    assert code == EXIT_PASS
    assert "# config: grid=21" in text


def test_config_values_do_not_leak_into_a_later_run(tmp_path):
    # one parser serves every dispatch call in a process: the config file's
    # values land on that run's namespace, never in the parser's defaults
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=box-log\ngrid=17\ntol_scale=0.3\nn=4\n")
    plain = ["perron", "--problem", "interval-linear", "--grid", "31"]
    code, before = run_to_file(tmp_path, plain, "before.csv")
    assert code == EXIT_PASS
    code, text = run_to_file(tmp_path, ["perron", "--config", str(cfg)], "config.csv")
    assert code == EXIT_PASS and "# config: tol_scale=0.3" in text
    code, after = run_to_file(tmp_path, plain, "after.csv")
    assert code == EXIT_PASS
    assert after.replace("after.csv", "before.csv") == before
    assert "# config: tol_scale=0.15" in after and "# config: n=3" in after


def test_config_unknown_key_is_usage(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=3\n")
    assert dispatch(["perron", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


def test_config_bad_value_is_usage(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=abc\n")
    assert dispatch(["perron", "--config", str(cfg)]) == EXIT_USAGE
    assert f"{cfg}: argument --grid: must be an integer >= 3, got 'abc'" in capsys.readouterr().err


def test_config_bad_choice_is_usage(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=weird\n")
    assert dispatch(["perron", "--config", str(cfg)]) == EXIT_USAGE
    assert "choose from" in capsys.readouterr().err


def test_config_missing_file_is_usage(tmp_path, capsys):
    assert dispatch(["perron", "--config", str(tmp_path / "absent.cfg")]) == EXIT_USAGE
    assert "cannot read config file" in capsys.readouterr().err


def test_config_malformed_line_is_usage(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    assert dispatch(["perron", "--config", str(cfg)]) == EXIT_USAGE
    assert "expected key=value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommand outcomes


def test_ctex_beta_sign_passes(tmp_path):
    code, text = run_to_file(tmp_path, ["ctex", "--kind", "beta-sign", "--alpha", "-3"])
    assert code == EXIT_PASS
    assert "verdict=pass" in text
    assert sum(1 for ln in text.splitlines() if ln.startswith("# root: ")) == 4
    assert "r,w,v,mu_w,nu_w,mu_v,nu_v,verdict" in text


def test_touching_cusp_exits_expected_violation(tmp_path):
    code, text = run_to_file(tmp_path, ["touching", "--pair", "cusp"])
    assert code == EXIT_EXPECTED_VIOLATION
    assert "PropagationViolated" in text


def test_touching_logpair_passes(tmp_path):
    code, text = run_to_file(tmp_path, ["touching", "--pair", "logpair", "--grid", "301"])
    assert code == EXIT_PASS
    assert text.count("PropagationConsistent") == 3


def test_perron_interval_row(tmp_path):
    code, text = run_to_file(tmp_path, ["perron", "--problem", "interval-linear",
                                        "--grid", "41"])
    assert code == EXIT_PASS
    header = next(ln for ln in text.splitlines() if ln.startswith("problem,"))
    row = text.splitlines()[-1].split(",")
    assert header.split(",")[8] == "sup_error"
    assert float(row[8]) <= float(row[9])


def test_perron_annulus_row(tmp_path):
    code, text = run_to_file(tmp_path, ["perron", "--problem", "annulus-psi1", "--grid", "125"])
    assert code == EXIT_PASS
    lines = text.splitlines()
    header = lines.index("problem,grid,h,sweeps,converged,all_boundary,monotone,sandwich,"
                         "sup_error,bound,ok")
    row = lines[header + 1].split(",")
    assert lines[header + 1] == lines[-1]
    assert row[:2] == ["annulus-psi1", "125"] and row[4:8] == ["true"] * 4 and row[10] == "true"
    assert float(row[8]) <= float(row[9])


def test_first_variation_gap_rows(tmp_path):
    code, text = run_to_file(tmp_path, ["first-variation", "--jets", "50"])
    assert code == EXIT_PASS
    lines = text.splitlines()
    assert lines[-3] == "direction,jets,worst_gap_min_eig,bound,ok"
    for line, direction in zip(lines[-2:], ("raise", "lower")):
        name, jets, gap, bound, ok = line.split(",")
        assert (name, jets, ok) == (direction, "50", "true")
        assert float(gap) >= float(bound) == -1e-10


def test_perron_dump_writes_solution(tmp_path):
    dump = tmp_path / "solution.csv"
    code, _ = run_to_file(tmp_path, ["perron", "--problem", "interval-linear",
                                     "--grid", "21", "--dump", str(dump)])
    assert code == EXIT_PASS
    assert dump.read_text().startswith("node,x,u,residual_class")


@pytest.mark.parametrize("args,digest", [
    (["--problem", "box-log", "--grid", "33"],
     "380ff97be86b3a4d1744bf14ef6742818689f3bc0e2047e52174540df1dadfbf"),
    (["--problem", "box-log", "--grid", "65"],
     "1cd95169f5bad76ad261f71e3e69f5c5592bd2e325531190b6082483402ed7b7"),
    (["--problem", "annulus-psi1", "--grid", "125"],
     "b4a3eb70d9b177bf36e3e9cbaefcf595719e6df1942a9746762bc94ffe8c71b6"),
    (["--problem", "interval-linear", "--grid", "41"],
     "c499b5c5e0adc204139e3107352acf020c1ff83236e09a61126698a511d2ea9a"),
])
def test_perron_dump_is_pinned(args, digest, tmp_path):
    # sha256 of the --dump file from when solution_csv wrote one node per
    # branch and f-string; the box-log digests are those of the Krylov
    # direction, whose fields differ from block-Thomas elimination's by a few
    # ulps (test_perron.py holds the two directions to each other)
    dump = tmp_path / "solution.csv"
    code, _ = run_to_file(tmp_path, ["perron", *args, "--dump", str(dump)])
    assert code == EXIT_PASS
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


def test_uniqueness_passes_and_inconclusive_fails(tmp_path):
    code, text = run_to_file(tmp_path, ["uniqueness", "--grid", "41"])
    assert code == EXIT_PASS
    assert ",pass" in text
    code, text = run_to_file(tmp_path, ["uniqueness", "--grid", "41",
                                        "--max-sweeps", "1"], "inc.csv")
    assert code == EXIT_FAIL
    assert "inconclusive" in text


def test_kelvin_constant_field(tmp_path):
    code, text = run_to_file(tmp_path, ["kelvin", "--field", "constant",
                                        "--samples", "10", "--centers", "1",
                                        "--lambdas", "0.1"])
    assert code == EXIT_PASS
    assert "sphere_identity" in text


@pytest.mark.parametrize("args,digest", [
    (["kelvin", "--field", "bubble"],
     "a259fb9718a17ecb03cec486142e6a8e7471522cb7a9482341586ae03d40f276"),
    (["kelvin", "--field", "bubble", "--n", "4"],
     "827e99cb87dd9f6a24d6c3d1b8313f186535bf97df91bcc7ff29247b8b33d5f3"),
    (["kelvin", "--field", "constant"],
     "c3efab9269e77d6fb43be5f668e374546d0d7c0ff16bf5940a554f240d5ac424"),
    (["touching", "--pair", "logpair"],
     "3fbd4b46f34071429dc9cbcbe10624df3e8005dc6513b68c7694498c4d2a2da3"),
])
def test_default_stdout_is_pinned(args, digest, capsys):
    # sha256 of the stdout of the per-point evaluation these commands used
    # before their values were stacked: default stdout stays byte-identical
    assert dispatch(args) == EXIT_PASS
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_probe_l_cubic_mix_stdout_is_pinned(capsys):
    # sha256 of the stdout from when cubic_mix called its L per node, through
    # the general_l kind; as the isotropic kind it must print the same bytes
    assert dispatch(["probe-L", "--operator", "genL:cubic_mix", "--samples", "120"]) == EXIT_FAIL
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "24b602be0c81554105e4e555f43830d349fd4234055fc10b57612a26b7c71c28"


def test_probe_l_conformal_stdout_is_pinned(capsys):
    # sha256 of the stdout from when conformal was an operator kind of its
    # own; as the named (1, 1/2) point of quad_const it prints the same bytes
    assert dispatch(["probe-L", "--operator", "conformal", "--samples", "200"]) == EXIT_PASS
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "795aa78db4d669d855aa1aaa95249ad8aaec138e2c8e5b0c59d962ba8cc73896"


@pytest.mark.parametrize("args,digest", [
    (["probe-L", "--operator", "genL:tanh_quad", "--samples", "400", "--seed", "7"],
     "b0742e1788ea664fed70446ee08b5810a1366928b95680866607277011797e91"),
    (["first-variation", "--jets", "1000", "--seed", "5"],
     "3eabd6dc6c550e51f9fef9c210a5c2cd0bfde707a64cbec9026cc77300f1c984"),
])
def test_coercivity_fit_stdout_is_pinned(args, digest, capsys):
    # sha256 of the stdout from when the coercivity fit eigen-solved every
    # gap matrix of each check and re-scanned the fitted pair; one fits a
    # passing and a failing coercivity row, the other runs the C cascade
    assert dispatch(args) == EXIT_PASS
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,code,digest", [
    (["ctex", "--kind", "beta-sign"], EXIT_PASS,
     "725284e0cb0128da1f446e7e7df8716b78840cf9eb1943aab1caabb53bc6c4da"),
    (["ctex", "--kind", "nondec"], EXIT_PASS,
     "281002e2088bb657336add3db786dc7a5436a8aa647dc69992c089f1903c1ba2"),
    (["ctex", "--kind", "bprime"], EXIT_PASS,
     "3ad1a51ad73e7f8c847e65a9168e036085c58e94cc6d4edec4dbc6dab850177c"),
    (["ctex", "--kind", "holder"], EXIT_PASS,
     "e993b1b0c902457e2f5420c82964153c521087e972ef711913bd8882eae35896"),
    (["touching", "--pair", "cusp"], EXIT_EXPECTED_VIOLATION,
     "4a7b2546ef43ea7adb48d866bbefabbe6e2ce562102b67c93107af1fcf644ef3"),
])
def test_certificate_stdout_is_pinned(args, code, digest, capsys):
    # sha256 of the stdout of the per-radius scans these certificates used
    # before their radius scans became array operations
    assert dispatch(args) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_kelvin_harmonic_is_involution_only(tmp_path):
    code, text = run_to_file(tmp_path, ["kelvin", "--field", "harmonic",
                                        "--samples", "10"])
    assert code == EXIT_PASS
    assert "involution" in text
    assert "sphere_identity" not in text


def test_kelvin_oversized_radius_is_usage(capsys):
    # the admissible start radius for the constant field is 1/4
    assert dispatch(["kelvin", "--field", "constant", "--samples", "4",
                     "--centers", "1", "--lambdas", "0.9"]) == EXIT_USAGE
    assert "admissible start radius" in capsys.readouterr().err


def test_cone_axioms_failing_cone_exits_one(tmp_path):
    for cone, witness in (("one_pos", "trace_positive,false"), ("neg:posdef", "add_posdef,false,eig_sum=")):
        code, text = run_to_file(tmp_path, ["cone-axioms", "--cone", cone])
        assert code == EXIT_FAIL
        assert witness in text


@pytest.mark.parametrize("source,digest", [
    ("gaussian", "0bbedbd71b6dbc4dda84eea87b8d06b7232cb90f2470034dcf9fa576ed10783a"),
    ("step", "2262b9746c4e3ee7f6375077695f275cfa330b8e27fcf619e91bed0050abde19"),
    ("dyadic", "2839e4a1d98389193b9f203d27ca286135dec02980d6eb394fd0e048eb2c8bbf"),
])
def test_envelope_builtin_sources_pass_and_are_pinned(source, digest, capsys):
    # every row of the default width ladder passes on each built-in source,
    # and stdout stays byte-identical to the pinned sha256
    assert dispatch(["envelope", "--source", source]) == EXIT_PASS
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    assert rows[0][-1] == "row_ok" and len(rows) == 4
    assert all(row[-1] == "true" for row in rows[1:])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", [
    (["dyadic"], "b7d3ef944113cd6ebfbf5fb2a4bab3ece3d6b0e5eac68537f26ea5650a1c7d00"),
    (["envelope", "--side", "upper"], "d56cdfbdacef82abbf97a892177e3d4f3aa6f21ac48e68716f8347d94f436379"),
    (["envelope", "--lipschitz", "3"], "6e59f9814790c23fd332c42fda63f10a4ef109c3bbe91462c173beebbb0547e3"),
    (["envelope", "--source", "random", "--seed", "1", "--eps", "1e-2,1e-3"],
     "ab1e61c0f4747cccf00260e66640b673f3e010b817ef467235fc62e7055a1a25"),
])
def test_envelope_tables_are_pinned(args, digest, capsys):
    # sha256 of the stdout from when each envelope and dyadic row was a
    # Python object written by its own f-string
    assert dispatch(args) == EXIT_PASS
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_envelope_file_source_with_a_masked_node(tmp_path):
    # an inf cell reads back as a masked node, which the upper suite leaves
    # out of its comparison with the source
    xs = np.linspace(-1.0, 1.0, 41)
    vals = np.exp(-8.0 * xs * xs)
    vals[13] = math.inf
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text(grid_to_csv(GridFn(((-1.0, 1.0),), vals)))
    code, text = run_to_file(tmp_path, ["envelope", "--side", "upper", "--source", "file",
                                        "--input", str(grid_path)])
    assert code == EXIT_PASS
    assert "false" not in text


def test_envelope_file_source_roundtrip(tmp_path):
    xs = np.linspace(-1.0, 1.0, 81)
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text(grid_to_csv(GridFn(((-1.0, 1.0),), np.abs(xs))))
    code, text = run_to_file(tmp_path, ["envelope", "--source", "file",
                                        "--input", str(grid_path), "--eps", "1e-2"])
    assert code == EXIT_PASS
    assert "row_ok" in text


def test_envelope_file_source_needs_input(capsys):
    assert dispatch(["envelope", "--source", "file"]) == EXIT_USAGE
    assert "--input" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "x,y,value\n" + "".join(f"{x},{y},{x + y}\n" for y in (0, 1, 2) for x in (0, 1, 2)),
    "x,value\n0,1\n0.1,2\n1,3\n",
    "x,value\n0,1\n1,2\n0.5,3\n",
    "x,value\n0,1\n0.5,2\n0.5,2\n1,3\n",
    "x,value\n-1,0\n0,inf\n1,1\n",
])
def test_envelope_malformed_input_grid_is_usage(text, tmp_path, capsys):
    # y-major, non-uniform, unsorted and duplicated nodes used to be read
    # without complaint (transposed, respaced or kept in file order); a grid
    # with no finite interior node failed inside numpy, with exit 1
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text(text)
    assert dispatch(["envelope", "--source", "file", "--input", str(grid_path)]) == EXIT_USAGE
    assert "--input" in capsys.readouterr().err


def test_probe_l_default_operator(tmp_path):
    code, text = run_to_file(tmp_path, ["probe-L", "--samples", "60"])
    assert code == EXIT_PASS
    assert "s_monotone,true" in text


def test_probe_l_non_monotone_operator_exits_one(tmp_path):
    code, text = run_to_file(tmp_path, ["probe-L", "--operator", "genL:cubic_mix",
                                        "--samples", "120"])
    assert code == EXIT_FAIL
    assert "s_monotone,false" in text


# ---------------------------------------------------------------------------
# dependencies


def _fresh_interpreter(code: str) -> str:
    src = str(Path(conedeg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout.strip()


HEAVY = "sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numba'})"


def test_cli_import_loads_no_scipy_or_numba():
    # the package needs numpy only; importing scipy.sparse.linalg alone costs
    # about 0.26 s and 32 MB of peak RSS on every command
    assert _fresh_interpreter(f"import sys, conedeg.cli; print({HEAVY})") == "[]"


def test_cli_box_solve_loads_no_scipy_or_numba():
    # the 2D Newton steps solve their block-tridiagonal Jacobian with numpy
    # alone: running the box solve must not pull in a sparse solver either
    code = (
        "import contextlib, io, sys\n"
        "from conedeg import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.dispatch(['perron', '--problem', 'box-log', '--grid', '33'])\n"
        f"print(code, {HEAVY})"
    )
    assert _fresh_interpreter(code) == "0 []"
