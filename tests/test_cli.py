"""CLI commands, config handling, report round-trips, exit codes."""

import hashlib
import json
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ringwalk import cli, gl2, mixing, reports
from ringwalk.errors import ConfigError
from ringwalk.stationary import stationary_recursive


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


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_out_file_has_the_mode_of_a_plain_open(tmp_path, umask):
    """The report file gets 0o666 & ~umask, as open() would give it, not
    the 0o600 of the temporary file it is renamed from."""
    out_file, plain = tmp_path / "r.txt", tmp_path / "plain.txt"
    old = os.umask(umask)
    try:
        assert cli.main(["describe", "--ring", "zn", "--n", "6", "--out",
                         str(out_file)]) == 0
        plain.write_text("")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in (out_file, plain)}
    assert modes == {0o666 & ~umask}


@pytest.mark.parametrize("target", ["directory", "parent-under-a-file"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, target):
    """An --out that names a directory, or whose parent cannot be made,
    exits 2 with a config error on field 'out' and leaves no .tmp file."""
    (tmp_path / "file").write_text("")
    out = {"directory": tmp_path,
           "parent-under-a-file": tmp_path / "file" / "sub" / "r.txt"}[target]
    code = cli.main(["describe", "--ring", "zn", "--n", "6", "--out",
                     str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error: field 'out': "), err
    assert not list(tmp_path.rglob("*.tmp"))


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
    # the move draws range over R = s lcm(n, D) < 2^63, s the alpha
    # denominator and D Q's common denominator: s = 2^63 + 1
    ("--alpha", "1/9223372036854775809"),
    # and D = 2^63 + 29, with a weight of 2^63 or more, or two weights
    # that fit
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


@pytest.mark.parametrize("den, code", [(2**62 - 4, 0), (2**62 + 8, 2)],
                         ids=["R2^63-8", "R2^63+16"])
def test_simulate_move_range_edge_is_2_63(den, code):
    """On Z_12 at alpha 1/2 with a Q of common denominator D, a multiple of
    12, the move draws range over R = 2 lcm(12, D) = 2 D: 2^63 - 8 runs,
    and 2^63 + 16 exits 2 naming 'Q' with s, L and 2^63."""
    q = json.dumps({"0": f"1/{den}", "1": f"{den - 1}/{den}",
                    **{str(x): "0" for x in range(2, 12)}})
    rc, out, err = run_cli(["simulate", "--ring", "zn", "--n", "12",
                            "--alpha", "1/2", "--seed", "1", "--samples",
                            "100", "--steps", "3", "--Q", q])
    assert rc == code, err
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert "'Q'" in err and f"2 * {den}" in err and "2^63" in err
    else:
        assert "count" in out


def test_simulate_move_range_from_alpha_alone_names_alpha():
    """On Z_2 with uniform Q, alpha = 1/2^62 gives R = s n = 2^63: no Q
    could bring it below 2^63, so the refusal names 'alpha', not 'Q'."""
    rc, out, err = run_cli(["simulate", "--ring", "zn", "--n", "2",
                            "--alpha", "1/4611686018427387904", "--seed",
                            "1"])
    assert rc == 2 and out == ""
    assert "field 'alpha'" in err and "'Q'" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--tau", "1e-2"],
    ["describe", "--alpha", "1/2"],
    ["describe", "--Q", "uniform"],
], ids=["spectrum-tau", "describe-alpha", "describe-Q"])
def test_flag_the_command_does_not_read_exits_2(argv):
    """spectrum merges at the fixed spectrum.MERGE_TOL, and describe reads
    neither alpha nor Q: argparse refuses each flag by name."""
    code, out, err = run_cli(argv + ["--ring", "zn", "--n", "6"])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("T", "x"), ("seed", "x"), ("samples", 2.5), ("side", "middle"),
])
def test_bad_config_file_value_names_field(tmp_path, field, value):
    cfg = {"ring": {"kind": "zn", "n": 6}, "seed": 1, field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    command = {"T": "mix"}.get(field, "simulate")
    code, out, err = run_cli(["--config", str(path), command])
    assert code == 2
    assert f"'{field}'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("field, value", [
    ("alpah", "1/3"), ("match_tol", 1e-6), ("tau", 1e-8), ("format", "xml"),
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
     "field 'ring.factors[1].q': 9 is not prime"),
])
def test_bad_ring_parameter_names_its_field(capsys, ring, message):
    assert cli.main(["describe"] + ring.split()) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("factors, message", [
    ("foo:2,zn:3", "field 'ring.factors[0].kind': unknown kind 'foo'"),
    ("zn:x,zn:3", "field 'ring.factors[0].n': expected an integer, got 'x'"),
    ("zn:2,matrix:9", "field 'ring.factors[1].q': 9 is not prime"),
], ids=["unknown-kind", "bad-n", "bad-q"])
def test_bad_product_factor_names_its_own_field(capsys, tmp_path, factors,
                                                message):
    """--factors and the same factors in a config file name the same
    field: the factor's own, by its place in the list."""
    descs = [{"kind": kind, "n" if kind == "zn" else "q": param}
             for kind, _, param in (f.partition(":")
                                    for f in factors.split(","))]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ring": {"kind": "product",
                                         "factors": descs}}))
    for argv in (["describe", "--ring", "product", "--factors", factors],
                 ["--config", str(path), "describe"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("flags, desc, field, kind", [
    ("--ring zn --n 6 --q 3", {"kind": "zn", "n": 6, "q": 3}, "ring.q", "zn"),
    ("--ring matrix --q 3 --n 6", {"kind": "matrix", "q": 3, "n": 6},
     "ring.n", "matrix"),
    ("--ring upper_triangular --q 3 --size 3",
     {"kind": "upper_triangular", "q": 3, "size": 3}, "ring.size",
     "upper_triangular"),
    ("--ring product --factors zn:2,zn:3 --q 3",
     {"kind": "product", "factors": [{"kind": "zn", "n": 2},
                                     {"kind": "zn", "n": 3}], "q": 3},
     "ring.q", "product"),
    # --factors gives each factor its own kind's key, so only a config file
    # can hold a foreign key inside a factor
    (None, {"kind": "product", "factors": [{"kind": "zn", "n": 2},
                                           {"kind": "zn", "n": 3, "q": 3}]},
     "ring.factors[1].q", "zn"),
], ids=["zn-q", "matrix-n", "upper_triangular-size", "product-q",
        "factor-q"])
def test_ring_key_the_kind_does_not_read_names_its_field(
        capsys, tmp_path, flags, desc, field, kind):
    """A ring descriptor key that its kind ignores exits 2, named in full,
    from flags and from a config file alike."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ring": desc}))
    argvs = [["--config", str(path), "describe"]]
    if flags is not None:
        argvs.append(["describe"] + flags.split())
    for argv in argvs:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: field '{field}': not read by kind {kind!r}\n")


def test_config_file_shared_across_commands(tmp_path):
    # keys another command reads (seed, samples) do not stop mix
    cfg = {"ring": {"kind": "zn", "n": 6}, "T": 4, "seed": 1,
           "samples": 100, "format": "json"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["--config", str(path), "mix"])
    assert code == 0
    assert reports.parse_json(out)["meta"]["T"] == "4"


@pytest.mark.parametrize("argv", [
    ["verify", "--ring", "matrix", "--q", "3", "--alpha", "1/2", "--T", "5"],
    ["spectrum", "--ring", "matrix", "--q", "3", "--alpha", "1/2"],
    ["describe", "--ring", "matrix", "--q", "3"],
    ["stationary", "--ring", "matrix", "--q", "3", "--alpha", "1/2"],
    ["mix", "--ring", "matrix", "--q", "3", "--alpha", "1/2", "--T", "3"],
    ["simulate", "--ring", "matrix", "--q", "3", "--alpha", "1/2",
     "--seed", "1", "--samples", "100", "--steps", "3"],
])
def test_command_diagonalizes_b_once(monkeypatch, argv):
    """No command builds B or M: the checks and the spectrum read row
    blocks of B from the table (chain.b_blocks), and no TransitionMatrix is
    made.  B is diagonalized at most once, by its diagonal blocks for the
    spectrum table; no check diagonalizes an n x n matrix."""
    from ringwalk import chain, spectrum

    calls = {"eig(n x n)": 0, "block_spectrum": 0}
    eig_numeric = spectrum.eig_numeric
    block_spectrum = spectrum.block_spectrum
    kinds, init = [], chain.TransitionMatrix.__init__

    def recorded_init(self, matrix, kind, *args, **kwargs):
        kinds.append(kind)
        init(self, matrix, kind, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a command built a dense B or M")

    def counted_eig(matrix, *args, **kwargs):
        # every diagonal block S_a is smaller than n = 81
        calls["eig(n x n)"] += np.shape(matrix)[:1] == (81,)
        return eig_numeric(matrix, *args, **kwargs)

    def counted_blocks(*args, **kwargs):
        calls["block_spectrum"] += 1
        return block_spectrum(*args, **kwargs)

    monkeypatch.setattr(chain, "build_B", forbidden)
    monkeypatch.setattr(chain, "build_M", forbidden)
    monkeypatch.setattr(spectrum, "eig_numeric", counted_eig)
    monkeypatch.setattr(spectrum, "block_spectrum", counted_blocks)
    monkeypatch.setattr(chain.TransitionMatrix, "__init__", recorded_init)
    assert cli.main(argv) == 0
    assert calls == {"eig(n x n)": 0,
                     "block_spectrum": int(argv[0] == "spectrum")}
    assert kinds == []


@pytest.mark.parametrize("kind, param, value", [
    ("matrix", "q", 3), ("zn", "n", 12), ("upper_triangular", "q", 3)],
    ids=["M2(F3)", "Z_12", "B2(F3)"])
def test_spectrum_reads_only_the_diagonal_blocks(monkeypatch, kind, param,
                                                 value):
    """spectrum reads no n x n B: it reads the rows S_a of B for each
    generator a, at most 64 at a time, except that the character route
    reads the row B[1, U] for the unit block."""
    from ringwalk import spectrum

    served = []
    b_blocks = spectrum.b_blocks

    def recorded(ring, Q, rows):
        for block, *counts in b_blocks(ring, Q, rows):
            served.append(list(map(int, block)))
            yield block, *counts

    monkeypatch.setattr(spectrum, "b_blocks", recorded)
    assert cli.main(["spectrum", "--alpha", "1/2", "--ring", kind,
                     f"--{param}", str(value)]) == 0
    r = cli.ring_from_descriptor({"kind": kind, param: value})
    chars = spectrum.unit_group_characters(r) is not None
    assert max(map(len, served)) <= 64
    assert sum(served, []) == sum(
        ([r.one] if chars and int(a) in r.unit_set
         else r.s_set(a).tolist() for a in r.phi), [])


def corrupt_b(num):
    """B's numerators with the mass of one entry moved within its row:
    still row-stochastic, but B(0, 1) != 0 although 1 is outside the zero
    ideal."""
    num = num.copy()
    num[0, 1], num[0, 0] = num[0, 0], 0
    return num


def corrupt_b_negative(num, x=5):
    """B's numerators with mass moved between two nonzero entries of row
    x, so that one goes below zero: the row still sums to 1 and has the
    same nonzero pattern, but it is no probability vector."""
    num = num.copy()
    y, z = np.flatnonzero(num[x])[:2]
    shift = num[x, y] + 1
    num[x, y], num[x, z] = num[x, y] - shift, num[x, z] + shift
    return num


def corrupted_reader(b_blocks, corrupt):
    """A chain.b_blocks that serves the blocks it reads from
    corrupt(B's numerators) and corrupt(the unit-weight counts |R_{x,y}|),
    with the whole B read through b_blocks on each call."""
    def read(ring, Q, rows):
        blocks = list(b_blocks(ring, Q, range(ring.n)))
        num = corrupt(np.concatenate([num for _, num, _ in blocks]))
        sizes = corrupt(np.concatenate([sizes() for *_, sizes in blocks]))
        for block, *_ in b_blocks(ring, Q, rows):
            yield block, num[block], lambda block=block: sizes[block]
    return read


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


def corrupt_output(corrupt):
    """Wrap a function so that corrupt edits what it returns."""
    return lambda f: lambda *a, **k: corrupt(f(*a, **k))


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("target, wrap, check", [
    ("b_blocks", lambda f: corrupted_reader(f, corrupt_b),
     "spectrum-two-way"),
    ("ring_from_descriptor", corrupt_output(corrupt_id_of),
     "spectrum-two-way"),
    ("_gl2_rows", corrupt_output(corrupt_closed_form), "spectrum-gl2"),
    ("b_blocks", lambda f: corrupted_reader(f, corrupt_b_negative),
     "spectrum-m-shift"),
], ids=["B-entry", "id_of-label", "closed-form", "B-negative"])
def test_corruption_fails_its_check(monkeypatch, capsys, command, target,
                                    wrap, check):
    from ringwalk import checks, spectrum

    mods = {"b_blocks": (checks, spectrum), "ring_from_descriptor": (cli,),
            "_gl2_rows": (spectrum,)}[target]
    patched = wrap(getattr(mods[0], target))
    for mod in mods:
        monkeypatch.setattr(mod, target, patched)
    argv = [command, "--ring", "matrix", "--q", "3", "--alpha", "1/2"]
    code = cli.main(argv + (["--T", "3"] if command == "verify" else []))
    out, err = capsys.readouterr()
    rep = reports.parse_text(out)
    failed = [name for name, status, _ in rep["checks"] if status == "FAIL"]
    assert code == 1 and check in failed, (failed, err)
    assert "Traceback" not in err


def test_eigensolve_failure_exits_2(monkeypatch, capsys):
    """A LAPACK non-convergence on B2(F3)'s unit block, which has no
    character table, is an error of the run (exit 2), not a failed check
    (exit 1) or a traceback."""
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    argv = ["spectrum", "--ring", "upper_triangular", "--q", "3"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        "error: Eigenvalues did not converge\n"


def test_bad_q_weights_rejected():
    qspec = json.dumps({"0": "1/2"})
    code, _, err = run_cli(["spectrum", "--ring", "zn", "--n", "6",
                            "--Q", qspec])
    assert code == 2


Z6_Q = {"0": "1/6", "1": "1/6", "2": "1/6", "3": "1/6", "4": "1/6",
        "5": "1/6"}


@pytest.mark.parametrize("argv, field", [
    (["stationary", "--Q", json.dumps({"0": "1"})], "Q"),
    (["stationary", "--Q", json.dumps({**Z6_Q, "0": "-1/6", "1": "1/2"})],
     "Q"),
    (["stationary", "--Q", json.dumps({**Z6_Q, "9": "1/6"})], "Q"),
    (["stationary", "--Q", json.dumps({**Z6_Q, "0": "1/3"})], "Q"),
    (["stationary", "--alpha", "2"], "alpha"),
    (["spectrum", "--alpha", "0"], "alpha"),
    (["mix", "--T", "65"], "T"),
    (["mix", "--eps", "1/2"], "eps"),
], ids=["Q-missing-class", "Q-negative", "Q-not-an-element", "Q-sum",
        "alpha-stationary", "alpha-spectrum", "T", "eps"])
def test_bad_input_names_its_field(argv, field):
    """Every rejected input exits 2 with a message naming its field, no
    traceback and no report."""
    code, out, err = run_cli(argv + ["--ring", "zn", "--n", "6"])
    assert (code, out) == (2, ""), err
    assert f"field '{field}': " in err and "Traceback" not in err, err


@pytest.mark.parametrize("argv, fields, stderr", [
    (["verify", "--eps", "1/2"], {},
     "error: field 'eps': eps = 1/2 outside (0, 1/2)"),
    (["verify", "--eps", "1/4", "--eps", "0"], {},
     "error: field 'eps': eps = 0 outside (0, 1/2)"),
    (["verify", "--T", "-1"], {}, "error: field 'T': T must be >= 0"),
    (["mix", "--eps", "0"], {},
     "error: field 'eps': eps = 0 outside (0, 1/2)"),
    (["mix", "--T", "65"], {}, "error: field 'T': T must lie in [0, 64]"),
    (["mix", "--T", "-1"], {}, "error: field 'T': T must lie in [0, 64]"),
    (["stationary", "--alpha", "2"], {},
     "config error: field 'alpha': alpha = 2 outside (0,1)"),
    (["spectrum", "--alpha", "0"], {},
     "config error: field 'alpha': alpha = 0 outside (0,1)"),
    (["simulate", "--seed", "1", "--alpha", "2"], {},
     "config error: field 'alpha': alpha = 2 outside (0,1)"),
    (["simulate", "--seed", "1", "--samples", "0"], {},
     "error: field 'samples': 0 is below 1"),
    (["simulate", "--seed", "1", "--steps", "-1"], {},
     "error: field 'steps' (t): -1 is negative"),
    (["simulate", "--seed", "1", "--blocks", "0"], {},
     "error: field 'blocks': 0 is below 1"),
    # the --side flag's choices stop 'up' in argparse: a config file does not
    (["simulate", "--seed", "1"], {"side": "up"},
     "error: field 'side': 'up' is not 'left' or 'right'"),
    (["simulate"], {},
     "config error: field 'seed': simulate requires an explicit seed"),
], ids=["verify-eps-half", "verify-eps-zero", "verify-T", "mix-eps",
        "mix-T-above", "mix-T-below", "stationary-alpha", "spectrum-alpha",
        "simulate-alpha", "simulate-samples",
        "simulate-steps", "simulate-blocks", "simulate-side",
        "simulate-no-seed"])
def test_bad_eps_or_t_exits_before_the_ring_is_built(monkeypatch, capsys,
                                                     tmp_path, argv, fields,
                                                     stderr):
    """Every command checks each field that needs no ring before it builds
    the ring: a bad one exits 2, naming it, with no ring built."""
    def no_ring(desc):
        raise AssertionError("the ring was built")
    monkeypatch.setattr(cli, "ring_from_descriptor", no_ring)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields))
    ring = ["--ring", "matrix", "--q", "7"]
    assert cli.main(["--config", str(path)] + argv + ring) == 2
    assert capsys.readouterr().err == f"{stderr}\n"


def test_verify_accepts_t_above_the_curve_cap(capsys):
    """verify stops its mixing check at min(T, 20), so T > T_CAP passes."""
    assert cli.main(["verify", "--ring", "zn", "--n", "6", "--T", "99"]) == 0
    assert "T=20" in capsys.readouterr().out


@pytest.mark.parametrize("command, top, message", [
    ("mix", "64", "T must lie in [0, 64]"),
    ("verify", "100", "T must be >= 0"),
])
def test_t_message_names_the_domain_the_command_accepts(command, top,
                                                        message):
    """A negative T is refused with the domain of its own command, and
    that domain's top value (none for verify) is accepted."""
    ring = ["--ring", "zn", "--n", "6"]
    code, out, err = run_cli([command, "--T", "-1"] + ring)
    assert (code, out, err) == (2, "", f"error: field 'T': {message}\n")
    code, _, err = run_cli([command, "--T", top] + ring)
    assert code == 0, err


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


def test_verify_computes_pi_once(monkeypatch):
    """verify solves the recursion for pi once: the stationary check and
    the mixing curve read the same pi."""
    calls = []
    real = sys.modules["ringwalk.stationary"].stationary_recursive

    def counted(ring, Q, alpha):
        calls.append(ring.label)
        return real(ring, Q, alpha)

    for name, module in list(sys.modules.items()):
        if name.startswith("ringwalk") and \
                getattr(module, "stationary_recursive", None) is real:
            monkeypatch.setattr(module, "stationary_recursive", counted)
    assert cli.main(["verify", "--ring", "matrix", "--q", "3"]) == 0
    assert calls == ["M2(F3)"]


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


def test_simulate_right_side_measures_tv_to_its_own_pi(capsys):
    """simulate --side right on B2(F5) with a seeded Q runs the left walk
    on R^op, and prints its distance to R^op's pi, from the same counts.
    The two sides' stationary laws differ here, and so do the distances
    to them."""
    ring = cli.ring_from_descriptor({"kind": "upper_triangular", "q": 5})
    q_json = seeded_q_json(ring, 1)
    assert cli.main(["simulate", "--ring", "upper_triangular", "--q", "5",
                     "--alpha", "1/2", "--seed", "1", "--side", "right",
                     "--Q", q_json]) == 0
    rep = reports.parse_text(capsys.readouterr().out)
    assert (rep["meta"]["ring"], rep["meta"]["side"]) == ("B2(F5)", "right")
    op = ring.opposite()
    q_op = cli.q_from_config(op, q_json)
    alpha = Fraction(1, 2)
    res = mixing.simulate(op, q_op, alpha, op.zero, 20, 10000, seed=1)
    assert [int(row[2]) for row in rep["tables"][0]["rows"]] == \
        res.counts.tolist()
    tv = f"{res.tv_to(stationary_recursive(op, q_op, alpha)):.6g}"
    assert rep["meta"]["tv_to_stationary"] == tv == "0.0380407"
    pi_left = stationary_recursive(ring, cli.q_from_config(ring, q_json),
                                   alpha)
    assert f"{res.tv_to(pi_left):.6g}" != tv


@pytest.mark.parametrize("q_args", [[], M2F5_SEED1], ids=["uniform", "seed1"])
def test_each_command_reads_b_once_for_its_checks(monkeypatch, capsys,
                                                  q_args):
    """Rows of B counted as chain._count_columns reads them on M2(F5).
    verify reads one pass for its four checks on B under any Q: the
    R_{x,y} check reads the unit-weight counts of the same gather, and the
    conjugation check its own sketches of the blocks.  The lumped solve
    and the recursion each read the |phi| rows of the generators besides.
    d_of_t's counts of mu_t are rows of B^t, not of B: it calls the
    function it imported, which the patch leaves alone.  spectrum reads
    one pass for spectrum-two-way and spectrum-m-shift together, plus the
    diagonal blocks of block_spectrum."""
    from ringwalk import chain, spectrum
    read = []
    count = chain._count_columns

    def counted(mul, block, w):
        read.append(len(block))
        return count(mul, block, w)

    monkeypatch.setattr(chain, "_count_columns", counted)
    ring = cli.ring_from_descriptor({"kind": "matrix", "q": 5})
    Q = cli.q_from_config(ring, q_args[1] if q_args else None)
    spectrum.block_spectrum(ring, Q)
    diagonal = sum(read)
    n = ring.n
    argv = ["--ring", "matrix", "--q", "5", "--alpha", "1/2"] + q_args
    for command, rows in ((["verify", "--T", "3"], n + 2 * len(ring.phi)),
                          (["spectrum"], n + diagonal)):
        read.clear()
        assert cli.main(command + argv) == 0
        assert sum(read) == rows, (command, sum(read) / n)
    capsys.readouterr()


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
     "25afbfe5b1957d9f032b0c90942bc9726a814ca76f46ab4c09805b5796d444a6"),
    (["verify", "--alpha", "1/2"] + M2F5_SEED1,
     "4b3086e7240ea5edd153ea4d7c5c4c50361b8fe8f40ee833271e79ba8f168c60"),
    (["simulate", "--alpha", "1/2", "--seed", "1", "--steps", "50",
      "--samples", "200000"] + M2F5_SEED1,
     "1e5013aa73f2948484f6984d7c6a3f380ed955676f31495d05970a0fc25dd851"),
], ids=["describe", "stationary", "spectrum", "spectrum-seed1", "verify",
        "verify-seed1", "simulate-seed1"])
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


@pytest.mark.parametrize("command", ["mix", "verify"])
def test_class_product_cap_refuses_before_any_check(monkeypatch, capsys,
                                                    command):
    """Z_1000 keeps all n^2 = 10^6 class products: above a cap of 10^6 - 1,
    mix and verify exit 2 naming the ring field, before any check or
    curve is computed."""
    def refuse(*args):
        raise AssertionError("computed past the class-product cap")

    monkeypatch.setattr(mixing, "PRODUCT_CAP", 10**6 - 1)
    monkeypatch.setattr(cli.checks, "full_suite", refuse)
    monkeypatch.setattr(cli, "d_of_t", refuse)
    assert cli.main([command, "--ring", "zn", "--n", "1000"]) == 2
    assert capsys.readouterr().err == (
        "config error: field 'ring': class products capped at 999999, "
        "got 1000000\n")


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
    # unit block): exit 2 before any row of B is read, as a b_blocks call
    # would crash
    monkeypatch.setattr(cli.spectrum, "EIG_CAP", 10)
    monkeypatch.setattr(cli.spectrum, "b_blocks", None)
    monkeypatch.setattr(cli.checks, "b_blocks", None)
    assert cli.main(["spectrum"] + ring.split()) == 2
    assert capsys.readouterr().err == \
        f"config error: field 'ring': {message}\n"


@pytest.mark.parametrize("command", ["describe", "verify"])
def test_mult_free_cap_names_the_ring(monkeypatch, capsys, command):
    # S_5 = {5, 10, 15, 20} in Z_25 exceeds an orbital-index cap of 3
    monkeypatch.setattr(cli.spectrum, "EIG_CAP", 3)
    assert cli.main([command, "--ring", "zn", "--n", "25"]) == 2
    assert capsys.readouterr().err == (
        "config error: field 'ring': orbital index capped at |S_a| = 3, "
        "got |S_5| = 4\n")


def test_verify_builds_no_complex_character_table(capsys):
    """verify reads the GL2 table in F_p only; spectrum reads it in complex
    floats too."""
    gl2.character_table.cache_clear()
    assert cli.main(["verify", "--ring", "matrix", "--q", "5"]) == 0
    assert "values" not in vars(gl2.character_table(5))
    assert cli.main(["spectrum", "--ring", "matrix", "--q", "5"]) == 0
    assert "values" in vars(gl2.character_table(5))


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

    def flat(ring, Q, alpha, T, pi):
        curve = real(ring, Q, alpha, T, pi)
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
                    reason="set RINGWALK_EXTENDED=1 for the Z_19999 runs")
@pytest.mark.parametrize("argv", [["mix", "--T", "2"], ["verify"]],
                         ids=["mix", "verify"])
def test_z19999_refuses_its_class_products(argv):
    """Z_19999 keeps n^2 = 4.0e8 class products, above PRODUCT_CAP: mix
    and verify exit 2 with a config error, and no traceback, before
    their first check."""
    code, out, err = run_cli(argv + ["--ring", "zn", "--n", "19999"])
    assert (code, out) == (2, "")
    assert err == ("config error: field 'ring': class products capped at "
                   "67108864, got 399960001\n")


@pytest.mark.skipif(not os.environ.get("RINGWALK_EXTENDED"),
                    reason="set RINGWALK_EXTENDED=1 for the M2(F11) runs")
@pytest.mark.parametrize("argv, peak", [
    (["describe"], 1.1e9),
    (["stationary", "--alpha", "1/2"], 1.1e9),
    (["mix", "--alpha", "1/2", "--T", "4"], 1.1e9),
    (["verify", "--alpha", "1/2"], 1.1e9),
    (["spectrum", "--alpha", "1/2"], 1.1e9),
], ids=["describe", "stationary", "mix", "verify", "spectrum"])
def test_m2f11_commands_fit_in_the_tables_plus_blocks(argv, peak):
    """Every command on M2(F11) (n = 14,641) exits 0 below its peak RSS
    bound.  The two uint16 tables take 0.86 GB, and every other
    whole-table pass runs in blocks of rows, so every command stays below
    1.1 GB.  verify and spectrum hold no n x n B or M: their checks and
    the diagonal blocks read B from the table 64 rows at a time (B alone
    would be 1.71 GB of int64)."""
    proc = subprocess.Popen([sys.executable, "-m", "ringwalk.cli"] + argv
                            + ["--ring", "matrix", "--q", "11"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert os.waitstatus_to_exitcode(status) == 0, stderr
    assert usage.ru_maxrss * 1024 < peak, usage.ru_maxrss
