"""CLI commands, config handling, report round-trips, exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
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


def q_with_denominator(den, first):
    """--Q JSON for M2(F2) with weights first/den on 0 and the rest on the
    identity (both singleton classes), zero elsewhere."""
    weights = {0: Fraction(first, den), 9: Fraction(den - first, den)}
    return json.dumps({str(rep): str(weights.get(rep, 0))
                       for rep in (0, 1, 2, 6, 7, 9)})


@pytest.mark.parametrize("flag, value", [
    ("--blocks", "0"),
    ("--start", "99"),
    ("--start", "-1"),
    ("--steps", "-3"),
    ("--samples", "0"),
    ("--seed", str(2**64)),
    # coin draws are int64 too: an alpha denominator of 2^63 + 1
    ("--alpha", "1/9223372036854775809"),
    # Q-draws are int64: a weight of 2^63 or more, and two weights that
    # fit but sum to 2^63 + 29
    pytest.param("--Q", q_with_denominator(2**63 + 29, 1),
                 id="--Q-weight-over-int64"),
    pytest.param("--Q", q_with_denominator(2**63 + 29, 2**62),
                 id="--Q-sum-over-int64"),
])
def test_simulate_out_of_range_field_is_config_error(flag, value):
    code, out, err = run_cli(["simulate", "--ring", "matrix", "--q", "2",
                              "--alpha", "1/2", "--seed", "1", flag, value])
    assert code == 2
    assert f"'{flag[2:]}'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--tau"])
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


@pytest.mark.parametrize("field, value", [
    ("alpah", "1/3"), ("match_tol", 1e-6), ("format", "xml"),
])
def test_unknown_config_key_or_format_names_field(tmp_path, field, value):
    cfg = {"ring": {"kind": "zn", "n": 6}, field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["--config", str(path), "mix"])
    assert code == 2
    assert f"'{field}'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("ring, message", [
    ("--ring matrix --q 9", "field 'ring.q': 9 is not prime"),
    ("--ring matrix --q 1", "field 'ring.q': 1 is not prime"),
    ("--ring matrix --q -200", "field 'ring.q': -200 is not prime"),
    ("--ring upper_triangular --q 6", "field 'ring.q': 6 is not prime"),
    ("--ring matrix --q 3 --size 4",
     "field 'ring.size': matrix rings are supported for size 2 and 3 only"),
    ("--ring zn --n 30000", "field 'ring.n': Z_30000 exceeds the 20000 cap"),
    ("--ring zn --n 0", "field 'ring.n': Z_0 needs n >= 1"),
    ("--ring matrix --q 1000000007",
     f"field 'ring.q': M2(F1000000007): {1000000007 ** 4} elements exceeds "
     f"the 20000 cap"),
    ("--ring product --factors zn:150,zn:150",
     "field 'ring.factors': product has 22500 elements, above the 20000 cap"),
    ("--ring product --factors zn:2,matrix:9",
     "field 'ring.q': 9 is not prime"),
])
def test_bad_ring_parameter_names_its_field(capsys, ring, message):
    assert cli.main(["describe"] + ring.split()) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_file_shared_across_commands(tmp_path):
    # keys another command reads (seed, samples, tau) do not stop mix
    cfg = {"ring": {"kind": "zn", "n": 6}, "T": 4, "seed": 1,
           "samples": 100, "tau": 1e-8, "format": "json"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["--config", str(path), "mix"])
    assert code == 0
    assert reports.parse_json(out)["meta"]["T"] == "4"


@pytest.mark.parametrize("argv", [
    ["verify", "--ring", "matrix", "--q", "3", "--alpha", "1/2", "--T", "5"],
    ["spectrum", "--ring", "matrix", "--q", "3", "--alpha", "1/2"],
])
def test_command_diagonalizes_b_once(monkeypatch, argv):
    """B is built once and diagonalized at most once, by its diagonal blocks
    for the spectrum table; no check diagonalizes an n x n matrix (B or M)."""
    from ringwalk import chain, checks, spectrum

    calls = {"build_B": 0, "eig(n x n)": 0, "block_spectrum": 0}
    build_b, eig_numeric = chain.build_B, spectrum.eig_numeric
    block_spectrum = spectrum.block_spectrum

    def counted_build_b(*args, **kwargs):
        calls["build_B"] += 1
        return build_b(*args, **kwargs)

    def counted_eig(matrix, *args, **kwargs):
        # every diagonal block S_a is smaller than n = 81
        calls["eig(n x n)"] += np.shape(matrix)[:1] == (81,)
        return eig_numeric(matrix, *args, **kwargs)

    def counted_blocks(*args, **kwargs):
        calls["block_spectrum"] += 1
        return block_spectrum(*args, **kwargs)

    for mod in (chain, checks, cli):
        monkeypatch.setattr(mod, "build_B", counted_build_b)
    monkeypatch.setattr(spectrum, "eig_numeric", counted_eig)
    monkeypatch.setattr(spectrum, "block_spectrum", counted_blocks)
    assert cli.main(argv) == 0
    assert calls == {"build_B": 1, "eig(n x n)": 0,
                     "block_spectrum": int(argv[0] == "spectrum")}


@pytest.mark.parametrize("kind, param, value", [
    ("matrix", "q", 3), ("zn", "n", 12), ("upper_triangular", "q", 3)],
    ids=["M2(F3)", "Z_12", "B2(F3)"])
def test_spectrum_reads_only_the_diagonal_blocks(monkeypatch, kind, param,
                                                 value):
    """spectrum turns no n x n copy of B into floats: it reads B[S_a, S_a]
    for each generator a, except that the character route reads the row
    B[1, U] for the unit block."""
    from ringwalk import spectrum
    from ringwalk.exact import ScaledMatrix

    served = []
    float_block = ScaledMatrix.float_block

    def recorded(self, rows, cols):
        block = float_block(self, rows, cols)
        served.append(block.shape)
        return block

    monkeypatch.setattr(ScaledMatrix, "float_block", recorded)
    assert cli.main(["spectrum", "--alpha", "1/2", "--ring", kind,
                     f"--{param}", str(value)]) == 0
    r = cli.ring_from_descriptor({"kind": kind, param: value})
    chars = spectrum.unit_group_characters(r) is not None
    assert served == [
        (1, len(r.units)) if chars and int(a) in r.unit_set
        else (len(r.s_set(a)),) * 2 for a in r.phi]


def corrupt_b(B):
    """B with the mass of one entry moved within its row: still
    row-stochastic, but B(0, 1) != 0 although 1 is outside the zero ideal."""
    from ringwalk.chain import TransitionMatrix
    from ringwalk.exact import ScaledMatrix
    num = B.matrix.num.copy()
    num[0, 1], num[0, 0] = num[0, 0], 0
    return TransitionMatrix(ScaledMatrix(num, B.matrix.den), "B", B.ring)


def corrupt_m(M):
    """M with one entry moved to its neighbour in the row."""
    from ringwalk.chain import TransitionMatrix
    from ringwalk.exact import ScaledMatrix
    num = M.matrix.num.copy()
    num[5, 3], num[5, 4] = num[5, 3] + 1, num[5, 4] - 1
    return TransitionMatrix(ScaledMatrix(num, M.matrix.den), "M", M.ring,
                            alpha=M.alpha)


def corrupt_id_of(ring):
    """The ring with one unit labelled as a member of the zero ideal."""
    ideals = ring.ideals
    ideals.id_of = ideals.id_of.copy()
    ideals.id_of[ring.one] = ideals.id_of[ring.zero]
    return ring


def corrupt_closed_form(rows):
    """The closed-form rows (block, label, dim, dim * eigenvalue, mult)
    with one unit-block value moved by dim."""
    block, label, dim, s, mult = rows[1]
    return rows[:1] + [(block, label, dim, s + dim, mult)] + rows[2:]


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("target, corrupt, check", [
    ("build_B", corrupt_b, "spectrum-two-way"),
    ("ring_from_descriptor", corrupt_id_of, "spectrum-two-way"),
    ("_gl2_rows", corrupt_closed_form, "spectrum-gl2"),
    ("chain_matrix", corrupt_m, "spectrum-m-shift"),
], ids=["B-entry", "id_of-label", "closed-form", "M-entry"])
def test_corruption_fails_its_check(monkeypatch, capsys, command, target,
                                    corrupt, check):
    from ringwalk import checks, spectrum

    mods = {"build_B": (cli, checks), "ring_from_descriptor": (cli,),
            "_gl2_rows": (spectrum,), "chain_matrix": (cli, checks)}[target]
    original = getattr(mods[0], target)
    for mod in mods:
        monkeypatch.setattr(mod, target,
                            lambda *a, **k: corrupt(original(*a, **k)))
    argv = [command, "--ring", "matrix", "--q", "3", "--alpha", "1/2"]
    code = cli.main(argv + (["--T", "3"] if command == "verify" else []))
    out, err = capsys.readouterr()
    rep = reports.parse_text(out)
    failed = [name for name, status, _ in rep["checks"] if status == "FAIL"]
    assert code == 1 and check in failed, (failed, err)
    assert "Traceback" not in err


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


def test_stationary_certificate_holds_where_n_k_exceeds_uint16():
    """Z_6 x M2(F5) has n = 3750 elements and k = 32 principal left
    ideals, so the lumped solve's certificate keys y k + b reach
    n k >= 2^16: taken in the uint16 of the ring tables they would wrap,
    and the pi M = pi certificate would fail."""
    code, out, err = run_cli(["stationary", "--ring", "product", "--factors",
                              "zn:6,matrix:5", "--alpha", "1/2"])
    assert code == 0, err
    assert "method-agreement\tPASS\trecursive+solve+uniform-form" in out


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


def seeded_q_json(ring, seed):
    """A --Q with integer class weights 1..9 drawn from
    random.Random(f"{seed}/{ring.label}"), normalised per element: the
    seeded Q of the benchmark's M2(F5) workloads."""
    part = ring.similarity
    rnd = random.Random(f"{seed}/{ring.label}")
    weights = [rnd.randint(1, 9) for _ in part.classes]
    total = sum(w * len(c) for w, c in zip(weights, part.classes))
    return json.dumps({str(int(rep)): str(Fraction(w, total))
                       for rep, w in zip(part.reps, weights)})


M2F5_SEED1 = ["--Q", seeded_q_json(cli.ring_from_descriptor(
    {"kind": "matrix", "q": 5}), 1)]


@pytest.mark.parametrize("argv, digest", [
    (["describe"],
     "c933644d61eeb7df6d645004a469e980a2c1e94d0bf3503a0cc09b47c7158dbd"),
    (["stationary", "--alpha", "1/2"],
     "77f5c9b6226d88c9db2c1498488b65d603ba92d94703e2139aa272764cdd0cef"),
    (["spectrum", "--alpha", "1/2"],
     "f3e4952e09c0fe34a583864615aedc0f767765cc80ac0aac3bdf82a7eb4e0faf"),
    (["spectrum", "--alpha", "1/2"] + M2F5_SEED1,
     "10b492da2ebe95ac91d43f13b9129aeae93851b83090e1009886f0000e4d735f"),
    (["verify", "--alpha", "1/2"],
     "941495c4e2bc086026fabc11730a480ecc5c0603c8a89408dbc0509751d982ed"),
    (["verify", "--alpha", "1/2"] + M2F5_SEED1,
     "6155956547e6fd4a21bb7401d46c5fe0f145ecfd4d07fb5c73b8ee81abaf7c86"),
], ids=["describe", "stationary", "spectrum", "spectrum-seed1", "verify",
        "verify-seed1"])
def test_m2f5_report_bytes_are_pinned(argv, digest):
    """Any change to these text reports on M2(F5) (n=625) must be
    deliberate.  The runs use one BLAS thread, as the benchmark does; the
    spectrum reports do not depend on it
    (test_spectrum_bytes_do_not_depend_on_blas_threads)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "ringwalk.cli"] + argv
                          + ["--ring", "matrix", "--q", "5"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("ring, digest", [
    (["--ring", "zn", "--n", "243"],
     "a508df4dd0a17f33c9112d396941434a674c6b6fbaa1862585198642eab163e0"),
    (["--ring", "upper_triangular", "--q", "5"],
     "71ba2e0c743ec58a4fc6af2b06e3294f94b4da9b9269741aef33c6b668a7034d"),
    (["--ring", "matrix", "--q", "2", "--size", "3"],
     "d8320a40edce6f1a6afbde23b3763ba4c8308029cbf19df64c9e369618ed6e53"),
], ids=["Z_243", "B2(F5)", "M3(F2)"])
def test_spectrum_bytes_on_the_other_unit_block_routes_are_pinned(ring,
                                                                  digest):
    """spectrum --alpha 1/2 with the unit block read from abelian
    characters (Z_243) and from LAPACK (B2(F5), M3(F2)); the GL2 character
    route is pinned on M2(F5) above.  One BLAS thread, as the benchmark
    runs."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "ringwalk.cli", "spectrum",
                           "--alpha", "1/2"] + ring,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("ring, digest, no_rows", [
    (["--ring", "matrix", "--q", "2", "--size", "3"],
     "e318d23801b97b0df49643abcceae014510fcf6ac7f1f626439724f66fb4e0b0", 7),
    (["--ring", "product", "--factors", "zn:4,matrix:2"],
     "b36f8beb6d084107e3549608bac0833c6c0fbd6ce3dff9cdfaa8757bb2bc92a6", 2),
], ids=["M3(F2)", "Z_4xM2(F2)"])
def test_describe_bytes_with_mult_free_no_are_pinned(ring, digest, no_rows):
    """describe on rings where some generator is not multiplicity free:
    the `no` rows of the mult_free column are part of the pinned bytes."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "ringwalk.cli", "describe"]
                          + ring, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    ideals = next(t for t in reports.parse_text(proc.stdout)["tables"]
                  if t["name"] == "ideals")
    col = ideals["columns"].index("mult_free")
    assert [row[col] for row in ideals["rows"]].count("no") == no_rows
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("ring", [["--ring", "matrix", "--q", "3"],
                                  ["--ring", "zn", "--n", "60"],
                                  ["--ring", "upper_triangular", "--q", "3"]],
                         ids=["M2(F3)", "Z_60", "B2(F3)"])
def test_describe_builds_no_character_table(monkeypatch, capsys, ring):
    def refuse(r):
        raise AssertionError(f"describe built U_R's characters on {r.label}")

    monkeypatch.setattr(cli.spectrum, "unit_group_characters", refuse)
    assert cli.main(["describe"] + ring) == 0
    assert "mult_free" in capsys.readouterr().out


def test_describe_needs_no_character_table_cap(monkeypatch, capsys):
    # Z_13 has 12 units, above a cap of 10 on the abelian character table;
    # describe reads only |S_0| = 1
    monkeypatch.setattr(cli.spectrum, "EIG_CAP", 10)
    assert cli.main(["describe", "--ring", "zn", "--n", "13"]) == 0
    assert reports.parse_text(capsys.readouterr().out)["meta"]["units"] \
        == "12"


@pytest.mark.parametrize("argv", [["spectrum", "--alpha", "1/2"],
                                  ["spectrum", "--alpha", "1/2"] + M2F5_SEED1],
                         ids=["uniform", "seed1"])
def test_spectrum_bytes_do_not_depend_on_blas_threads(argv):
    """The unit block's values are fixed-order character sums, and LAPACK
    sees only blocks of at most 24 x 24 on M2(F5)."""
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "ringwalk.cli"] + argv
                              + ["--ring", "matrix", "--q", "5"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_m2f7_spectrum_reads_the_unit_block_from_characters(monkeypatch,
                                                           capsys):
    """On M2(F7) no matrix larger than a 48 x 48 rank-one block reaches
    LAPACK, and the spectrum report passes its three checks."""
    shapes = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    argv = ["spectrum", "--alpha", "1/2", "--ring", "matrix", "--q", "7"]
    assert cli.main(argv) == 0
    rep = reports.parse_text(capsys.readouterr().out)
    assert shapes and max(max(s) for s in shapes) <= 48
    assert rep["meta"]["unit_block"] == "characters (48 irreps)"
    assert [(name, status) for name, status, _ in rep["checks"]] == [
        ("spectrum-two-way", "PASS"), ("spectrum-gl2", "PASS"),
        ("spectrum-m-shift", "PASS")]


@pytest.mark.parametrize("ring, message", [
    ("--ring zn --n 13", "character table capped at 10 units, got 12"),
    ("--ring upper_triangular --q 3", "eigen solve capped at 10, got 12"),
])
def test_spectrum_checks_its_caps_before_building_b(monkeypatch, capsys,
                                                    ring, message):
    # 12 units exceed a cap of 10 (Z_13's abelian table, B2(F3)'s LAPACK
    # unit block): exit 2 before B is built, as a build_B call would crash
    monkeypatch.setattr(cli.spectrum, "EIG_CAP", 10)
    monkeypatch.setattr(cli, "build_B", None)
    assert cli.main(["spectrum"] + ring.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------
# t_mix checks on a curve that ends before it reaches eps
# ---------------------------------------------------------------------

def test_mix_ending_before_the_bound_skips_t_mix():
    """d(1) = 3328/7695 on M2(F3) is above both eps, and T = 1 is below
    both bounds (3 and 4.32), so the curve cannot decide t_mix."""
    code, out, _ = run_cli(["mix", "--ring", "matrix", "--q", "3", "--T", "1"])
    assert code == 0
    rep = reports.parse_text(out)
    assert rep["meta"]["t_mix[1/4]"] == "None"
    assert rep["checks"] == [
        ["geometric-bound", "PASS", "exact"],
        ["t-mix[1/4]", "PASS",
         "skipped: d(1) > 1/4 and T = 1 is below the bound 3"],
        ["t-mix[1/10]", "PASS",
         "skipped: d(1) > 1/10 and T = 1 is below the bound 4.32193"]]


def test_verify_ending_before_the_bound_skips_t_mix():
    code, out, _ = run_cli(["verify", "--ring", "matrix", "--q", "3",
                            "--T", "1"])
    assert code == 0
    checks = {name: (status, detail)
              for name, status, detail in reports.parse_text(out)["checks"]}
    assert checks["mixing-bound"] == (
        "PASS", "skipped: d(1) > eps for eps=['1/4', '1/10'] and T is below "
                "the bound; geometric bound holds, T=1, eps=['1/4', '1/10']")


def test_mix_and_verify_still_fail_a_curve_above_eps_past_the_bound(
        monkeypatch, capsys):
    """A curve that stays at 1/2 to T = 5 under a bound of 1 everywhere
    passes the geometric check, and T is past both t_mix bounds."""
    real = cli.d_of_t

    def flat(ring, Q, alpha, T):
        curve = real(ring, Q, alpha, T)
        curve.exact_values = [Fraction(1, 2)] * (T + 1)
        curve.exact_bounds = [Fraction(1)] * (T + 1)
        return curve

    monkeypatch.setattr(cli, "d_of_t", flat)
    monkeypatch.setattr(cli.checks, "d_of_t", flat)
    ring = ["--ring", "matrix", "--q", "2", "--T", "5"]
    assert cli.main(["mix"] + ring) == 1
    rep = reports.parse_text(capsys.readouterr().out)
    assert rep["checks"][1:] == [
        ["t-mix[1/4]", "FAIL", "observed None, bound 3"],
        ["t-mix[1/10]", "FAIL", "observed None, bound 4.32193"]]
    assert cli.main(["verify"] + ring) == 1
    checks = {name: (status, detail) for name, status, detail
              in reports.parse_text(capsys.readouterr().out)["checks"]}
    assert checks["mixing-bound"] == ("FAIL",
                                      "t_mix(1/4) = None exceeds 3.0")


def test_cli_import_loads_no_scipy():
    """Every command pays for what the CLI loads: no scipy, and no numpy.ma
    (which a bare np.unique imports), on a ring with a character table of
    its units and on one without."""
    code = ("import contextlib, io, sys, ringwalk.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ringwalk.cli.main(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] "
            "== 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))")
    commands = [["describe"], ["stationary", "--alpha", "1/2"],
                ["mix", "--alpha", "1/2", "--T", "3"],
                ["simulate", "--alpha", "1/2", "--seed", "1",
                 "--samples", "100", "--steps", "3"],
                ["verify", "--alpha", "1/2", "--T", "3"],
                ["spectrum", "--alpha", "1/2"]]
    for ring in (["--ring", "matrix", "--q", "3"],
                 ["--ring", "upper_triangular", "--q", "3"]):
        for argv in commands:
            proc = subprocess.run([sys.executable, "-c", code] + argv + ring,
                                  capture_output=True, text=True)
            assert (proc.returncode, proc.stdout) == (0, "0 []\n"), \
                (argv + ring, proc.stdout, proc.stderr)


@pytest.mark.skipif(not os.environ.get("RINGWALK_EXTENDED"),
                    reason="set RINGWALK_EXTENDED=1 for the M2(F11) runs")
@pytest.mark.parametrize("argv", [["describe"],
                                  ["stationary", "--alpha", "1/2"],
                                  ["mix", "--alpha", "1/2", "--T", "4"]])
def test_m2f11_commands_fit_in_the_tables_plus_blocks(argv):
    """describe, stationary and mix on M2(F11) (n = 14,641) exit 0, each
    child below 1.1 GB of peak RSS: the two uint16 tables take 0.86 GB
    and every other whole-table pass runs in blocks of rows.  verify and
    spectrum stay out: they still build the n x n walk matrices B and M,
    int64 each, which need about 5 GB here."""
    proc = subprocess.Popen([sys.executable, "-m", "ringwalk.cli"] + argv
                            + ["--ring", "matrix", "--q", "11"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert os.waitstatus_to_exitcode(status) == 0, stderr
    assert usage.ru_maxrss * 1024 < 1.1e9, usage.ru_maxrss
