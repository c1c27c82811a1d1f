"""CLI commands, config handling, report round-trips, exit codes."""

import json
import subprocess
import sys

import pytest

from ringwalk import cli, reports
from ringwalk.errors import ConfigError


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "ringwalk.cli"] + args,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------
# report round-trips
# ---------------------------------------------------------------------

def sample_report():
    rep = reports.new_report("spectrum")
    rep["meta"]["alpha"] = "1/2"
    rep["meta"]["ring"] = "M2(F3)"
    reports.add_table(rep, "spectrum", ("re", "im", "mult"),
                      [("0.5", "0", "3"), ("-0.25", "0.1", "1")])
    reports.add_check(rep, "three-way", True, "81 eigenvalues")
    reports.add_check(rep, "shift", False, "mismatch at 0.3")
    return rep


def test_text_round_trip():
    rep = sample_report()
    assert reports.parse_text(reports.render_text(rep)) == rep


def test_json_round_trip():
    rep = sample_report()
    assert reports.parse_json(reports.render_json(rep)) == rep


def test_has_failure():
    rep = sample_report()
    assert reports.has_failure(rep)
    rep["checks"] = [["x", "PASS", ""]]
    assert not reports.has_failure(rep)


def test_every_command_output_reparses(tmp_path):
    cfgs = [
        (["describe", "--ring", "matrix", "--q", "3"], None),
        (["spectrum", "--ring", "zn", "--n", "6", "--alpha", "1/2"], None),
        (["stationary", "--ring", "matrix", "--q", "2", "--alpha", "1/2"],
         None),
        (["mix", "--ring", "zn", "--n", "6", "--alpha", "1/2", "--T", "8"],
         None),
        (["simulate", "--ring", "zn", "--n", "6", "--alpha", "1/2",
          "--seed", "5", "--samples", "500", "--steps", "5"], None),
        (["verify", "--ring", "upper_triangular", "--q", "2",
          "--alpha", "1/2", "--T", "10"], None),
    ]
    for args, _ in cfgs:
        code, out, err = run_cli(args)
        assert code == 0, (args, err)
        parsed = reports.parse_text(out)
        assert parsed["command"] == args[0]
        code, out, err = run_cli(args + ["--format", "json"])
        assert code == 0
        parsed_json = reports.parse_json(out)
        assert parsed_json["command"] == args[0]


# ---------------------------------------------------------------------
# config file and overrides
# ---------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cfg = {"ring": {"kind": "zn", "n": 6}, "alpha": "1/2",
           "Q": "uniform", "T": 6}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["--config", str(path), "mix"])
    assert code == 0
    rep = reports.parse_text(out)
    assert rep["meta"]["ring"] == "Z_6"
    assert rep["meta"]["T"] == "6"
    # flags beat the file
    code, out, _ = run_cli(["--config", str(path), "mix", "--T", "3",
                            "--ring", "zn", "--n", "4"])
    rep = reports.parse_text(out)
    assert rep["meta"]["ring"] == "Z_4"
    assert rep["meta"]["T"] == "3"


def test_custom_q_from_json_object():
    # extra mass on the zero class of Z_6, uniform elsewhere
    qspec = json.dumps({"0": "1/3", "1": "2/15", "2": "2/15", "3": "2/15",
                        "4": "2/15", "5": "2/15"})
    code, out, _ = run_cli(["spectrum", "--ring", "zn", "--n", "6",
                            "--Q", qspec])
    assert code == 0
    rep = reports.parse_text(out)
    assert rep["checks"][0][1] == "PASS"


def test_atomic_out_file(tmp_path):
    out_file = tmp_path / "r.txt"
    code, out, _ = run_cli(["describe", "--ring", "zn", "--n", "6",
                            "--out", str(out_file)])
    assert code == 0 and out == ""
    rep = reports.parse_text(out_file.read_text())
    assert rep["meta"]["ring"] == "Z_6"
    assert not list(tmp_path.glob("*.tmp"))


def test_output_dir_env(tmp_path):
    import os
    proc = subprocess.run(
        [sys.executable, "-m", "ringwalk.cli", "describe", "--ring", "zn",
         "--n", "4", "--out", "sub/r.txt"],
        capture_output=True, text=True,
        env={**os.environ, "RINGWALK_OUTPUT_DIR": str(tmp_path)})
    assert proc.returncode == 0
    assert (tmp_path / "sub" / "r.txt").exists()


# ---------------------------------------------------------------------
# validation and exit codes
# ---------------------------------------------------------------------

def test_missing_ring_is_config_error():
    code, _, err = run_cli(["describe"])
    assert code == 2
    assert "ring" in err


def test_missing_seed_is_config_error():
    code, _, err = run_cli(["simulate", "--ring", "zn", "--n", "6",
                            "--alpha", "1/2"])
    assert code == 2
    assert "seed" in err


def test_bad_alpha_is_config_error():
    code, _, err = run_cli(["stationary", "--ring", "zn", "--n", "6",
                            "--alpha", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--blocks", "0"),
    ("--start", "99"),
    ("--start", "-1"),
    ("--steps", "-3"),
    ("--samples", "0"),
    ("--seed", str(2**64)),
])
def test_simulate_out_of_range_field_is_config_error(flag, value):
    code, out, err = run_cli(["simulate", "--ring", "matrix", "--q", "2",
                              "--alpha", "1/2", "--seed", "1", flag, value])
    assert code == 2
    assert f"'{flag[2:]}'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--tau", "--match-tol"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_spectrum_tolerance_must_be_positive(flag, value):
    code, out, err = run_cli(["spectrum", "--ring", "zn", "--n", "6",
                              f"{flag}={value}"])
    assert code == 2
    assert f"'{flag[2:].replace('-', '_')}'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("field, value", [
    ("T", "x"), ("seed", "x"), ("samples", 2.5), ("side", "middle"),
])
def test_bad_config_file_value_names_field(tmp_path, field, value):
    cfg = {"ring": {"kind": "zn", "n": 6}, "seed": 1, field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    command = "mix" if field == "T" else "simulate"
    code, out, err = run_cli(["--config", str(path), command])
    assert code == 2
    assert f"'{field}'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--ring", "matrix", "--q", "3", "--alpha", "1/2", "--T", "5"],
    ["spectrum", "--ring", "matrix", "--q", "3", "--alpha", "1/2"],
])
def test_command_diagonalizes_b_once(monkeypatch, argv):
    from ringwalk import chain, checks, spectrum

    calls = {"build_B": 0, "eig(B)": 0}
    build_b, eig_numeric = chain.build_B, spectrum.eig_numeric

    def counted_build_b(*args, **kwargs):
        calls["build_B"] += 1
        return build_b(*args, **kwargs)

    def counted_eig(matrix, *args, **kwargs):
        if isinstance(matrix, chain.TransitionMatrix) and matrix.kind == "B":
            calls["eig(B)"] += 1
        return eig_numeric(matrix, *args, **kwargs)

    for mod in (chain, checks, cli, spectrum):
        monkeypatch.setattr(mod, "build_B", counted_build_b)
    monkeypatch.setattr(spectrum, "eig_numeric", counted_eig)
    assert cli.main(argv) == 0
    assert calls["eig(B)"] == 1
    # once for the command, once inside build_M for the m-shift check
    assert calls["build_B"] <= 2


def test_bad_q_weights_rejected():
    qspec = json.dumps({"0": "1/2"})
    code, _, err = run_cli(["spectrum", "--ring", "zn", "--n", "6",
                            "--Q", qspec])
    assert code == 2


def test_failing_check_gives_exit_one(monkeypatch):
    def fake(cfg):
        rep = reports.new_report("describe")
        reports.add_check(rep, "forced", False, "failure injected by test")
        return rep
    monkeypatch.setitem(cli.COMMANDS, "describe", fake)
    assert cli.main(["describe", "--ring", "zn", "--n", "6"]) == 1


def test_verify_exit_zero_on_m2f2():
    code, out, _ = run_cli(["verify", "--ring", "matrix", "--q", "2",
                            "--alpha", "1/2", "--T", "12"])
    assert code == 0
    rep = reports.parse_text(out)
    assert all(status == "PASS" for _, status, _ in rep["checks"])


def test_simulate_identical_runs_identical_bytes():
    args = ["simulate", "--ring", "matrix", "--q", "2", "--alpha", "1/2",
            "--seed", "99", "--samples", "2000", "--steps", "10"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


def test_ring_descriptor_errors():
    with pytest.raises(ConfigError):
        cli.ring_from_descriptor({"kind": "matrix"})
    with pytest.raises(ConfigError):
        cli.ring_from_descriptor({"kind": "nope"})
    with pytest.raises(ConfigError):
        cli.ring_from_descriptor({})


def test_product_ring_via_factors_flag():
    code, out, _ = run_cli(["describe", "--ring", "product",
                            "--factors", "zn:2,zn:3"])
    assert code == 0
    rep = reports.parse_text(out)
    assert rep["meta"]["n"] == "6"


def test_describe_one_element_ring():
    code, out, _ = run_cli(["describe", "--ring", "zn", "--n", "1"])
    assert code == 0
    rep = reports.parse_text(out)
    assert rep["meta"]["n"] == "1"
    assert rep["meta"]["classes"] == "1"
    assert rep["meta"]["ideals"] == "1"


def test_describe_flags_b2f3_nonunits_multiplicity_free():
    code, out, _ = run_cli(["describe", "--ring", "upper_triangular",
                            "--q", "3"])
    assert code == 0
    rep = reports.parse_text(out)
    ideals = next(t for t in rep["tables"] if t["name"] == "ideals")
    mf_col = ideals["columns"].index("mult_free")
    flags = {row[mf_col] for row in ideals["rows"]}
    assert flags == {"yes", "-"}       # all non-units yes, units dashed


def test_spectrum_on_zn_skips_gl2_with_notice():
    code, out, _ = run_cli(["spectrum", "--ring", "zn", "--n", "6"])
    assert code == 0
    rep = reports.parse_text(out)
    assert "gl2_layer" in rep["meta"]
    assert rep["meta"]["gl2_layer"].startswith("skipped")
