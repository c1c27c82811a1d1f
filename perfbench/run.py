"""The ringwalk benchmark: CLI workloads on the ring ladder.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.

--trace 0 (end to end): each CLI command of the workload runs as its own
subprocess, one at a time.  The command sequence repeats until --seconds
have passed, and at least MIN_PASSES times; timings are medians over
passes.
--trace 1 (per layer): the sequence runs once in-process untraced and once
in-process with every public `ringwalk` function wrapped (perfbench/traced.py),
each in a fresh interpreter; the per-layer metrics come from the traced one.

Every report goes through the output gate (perfbench/gate.py) outside the
timed region, and the gate is shown to reject a tampered copy of each kind
of report.  The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; a fuller record, with the
environment, goes to perfbench/results/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in every child process.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

from gate import Gate, tamper  # noqa: E402
from traced import per_layer_units  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
RESULTS = os.path.join(HERE, "results")

DEFAULT_SEED = 1           # seed 2 is held out for re-checking gain claims
MIN_PASSES = 2             # so simulate counts can be compared bit for bit
SETUP_RUNS = 3             # at least, and more until SETUP_SECONDS passed
SETUP_SECONDS = 2
PASS_BUDGET_S = 120        # no new pass starts after this; keeps runs < 180 s
COMMAND_TIMEOUT_S = 170

M23 = {"kind": "matrix", "q": 3}
M25 = {"kind": "matrix", "q": 5}
M27 = {"kind": "matrix", "q": 7}
B25 = {"kind": "upper_triangular", "q": 5}

# Why each workload exists is in perfbench/README.md.
WORKLOADS = ("exact-verify", "float-verify", "simulate", "structure-large")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def seeded_q(ring_desc: dict, seed: int) -> str:
    """A random class-constant Q as the CLI's --Q JSON: integer class
    weights 1..9, normalised exactly to per-element rationals."""
    from ringwalk.cli import ring_from_descriptor

    ring = ring_from_descriptor(ring_desc)
    part = ring.similarity
    rnd = random.Random(f"{seed}/{ring.label}")
    weights = [rnd.randint(1, 9) for _ in part.classes]
    total = sum(w * len(cls) for w, cls in zip(weights, part.classes))
    return json.dumps({str(int(rep)): str(Fraction(w, total))
                       for rep, w in zip(part.reps, weights)})


def workload_commands(name: str, seed: int) -> list:
    """The workload's command specs, in run order."""
    if name == "exact-verify":
        q23 = seeded_q(M23, seed)
        return [
            {"cmd": "verify", "ring": B25, "Q": seeded_q(B25, seed), "T": 20},
            {"cmd": "mix", "ring": M23, "Q": q23, "T": 20},
            {"cmd": "stationary", "ring": M23, "Q": q23},
        ]
    if name == "float-verify":
        q25 = seeded_q(M25, seed)
        return [
            {"cmd": "verify", "ring": M25, "Q": None},
            {"cmd": "spectrum", "ring": M25, "Q": None},
            {"cmd": "verify", "ring": M25, "Q": q25},
            {"cmd": "spectrum", "ring": M25, "Q": q25},
        ]
    if name == "simulate":
        return [
            {"cmd": "simulate", "ring": M25, "Q": seeded_q(M25, seed),
             "steps": 50, "samples": 1_000_000, "seed": seed},
            {"cmd": "simulate", "ring": M23, "Q": None, "steps": 50,
             "samples": 200_000, "seed": seed, "blocks": 4},
        ]
    if name == "structure-large":
        return [
            {"cmd": "describe", "ring": M27},
            {"cmd": "stationary", "ring": M27, "Q": None},
        ]
    raise KeyError(name)


def argv_of(spec: dict) -> list:
    ring = spec["ring"]
    argv = [spec["cmd"], "--ring", ring["kind"], "--q", str(ring["q"])]
    if spec.get("Q") is not None:
        argv += ["--Q", spec["Q"]]
    if "alpha" in spec:
        argv += ["--alpha", spec["alpha"]]
    for key in ("T", "steps", "samples", "seed", "blocks"):
        if key in spec:
            argv += [f"--{key}", str(spec[key])]
    return argv


def complete_specs(specs: list) -> list:
    """Fill in alpha: the CLI default 1/2, passed explicitly so the gate and
    the command agree; spectrum takes it to run its m-shift check."""
    for spec in specs:
        if spec["cmd"] != "describe":
            spec.setdefault("alpha", "1/2")
    return specs


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # commands start from bytecode
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_process(args: list, env: dict) -> dict:
    """Run one child to completion; wall time and this child's own peak RSS
    (os.wait4 rusage, not the running maximum over all children)."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, \
            tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"rc": proc.returncode, "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace")[-2000:]}


SETUP_CODE = """\
import json, sys
import ringwalk.cli
for desc in json.loads(sys.argv[1]):
    ring = ringwalk.cli.ring_from_descriptor(desc)
    ring.units, ring.similarity, ring.ideals
"""


def measure_setup(specs: list, env: dict) -> tuple:
    """Median wall of fresh interpreters that import ringwalk and build the
    workload's rings with their units, classes and ideals."""
    rings = []
    for spec in specs:
        if spec["ring"] not in rings:
            rings.append(spec["ring"])
    runs = []
    t0 = time.perf_counter()
    while len(runs) < SETUP_RUNS or time.perf_counter() - t0 < SETUP_SECONDS:
        runs.append(run_process(
            [sys.executable, "-c", SETUP_CODE, json.dumps(rings)], env))
    ok = all(r["rc"] == 0 for r in runs)
    return statistics.median(r["wall_s"] for r in runs), ok


# ---------------------------------------------------------------------------
# measurement modes
# ---------------------------------------------------------------------------

def run_end_to_end(specs: list, seconds: int, env: dict, started: float):
    setup_s, setup_ok = measure_setup(specs, env)
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        if passes and (time.perf_counter() - started
                       + passes[-1]["wall_s"] > PASS_BUDGET_S):
            break
        runs = [run_process([sys.executable, "-m", "ringwalk.cli",
                             *argv_of(spec)], env) for spec in specs]
        passes.append({"runs": runs, "wall_s": sum(r["wall_s"] for r in runs)})
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p["runs"]),
    }
    by_command = {
        f"{cmd}_s": statistics.median(
            sum(r["wall_s"] for spec, r in zip(specs, p["runs"])
                if spec["cmd"] == cmd) for p in passes)
        for cmd in dict.fromkeys(spec["cmd"] for spec in specs)}
    outputs = [(spec, r) for p in passes for spec, r in zip(specs, p["runs"])]
    extra = {"pass_walls_s": [p["wall_s"] for p in passes],
             "setup_ok": setup_ok,
             "command_s": by_command}
    return metrics, outputs, extra


def run_traced(specs: list, env: dict, stem: str):
    spec_path = os.path.join(RESULTS, f"{stem}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": [argv_of(s) for s in specs]}, fh)
    children = {}
    for trace in (0, 1):
        out_path = os.path.join(RESULTS, f"{stem}.inproc{trace}.json")
        proc = run_process([sys.executable, os.path.join(HERE, "traced.py"),
                            spec_path, out_path, "--trace", str(trace)], env)
        if proc["rc"] == 0:
            with open(out_path, encoding="utf-8") as fh:
                children[trace] = json.load(fh)
        else:   # the interpreter died: every command of it counts as failed
            failed = {"rc": proc["rc"], "stdout": "", "stderr": proc["stderr"]}
            children[trace] = {"wall_s": proc["wall_s"],
                               "results": [failed] * len(specs)}
    plain, traced = children[0], children[1]
    metrics = traced.get("metrics", dict.fromkeys(per_layer_units(), 0))
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # Self-check: the self times of all spans add up to the top-level spans,
    # and those cover the traced wall time.
    top = traced.get("top_level_s", 0)
    accounted = (abs(traced.get("self_time_sum_s", -1) - top) < 1e-6
                 and 0.99 * traced["wall_s"] <= top <= traced["wall_s"])
    outputs = [(spec, res) for child in (plain, traced)
               for spec, res in zip(specs, child["results"])]
    extra = {"untraced_wall_s": plain["wall_s"],
             "traced_wall_s": traced["wall_s"],
             "top_level_s": top, "accounted": accounted,
             "spans": traced.get("spans", 0)}
    return metrics, outputs, extra


# ---------------------------------------------------------------------------
# gate, self-check and reporting
# ---------------------------------------------------------------------------

def gate_outputs(outputs: list):
    """(failed count, problem lines, tamper self-check problems)."""
    gate = Gate()
    failed, problems = 0, []
    for spec, res in outputs:
        found = gate.check(spec, res["rc"], res["stdout"])
        if found:
            failed += 1
            problems.append(f"{' '.join(argv_of(spec)[:5])}: "
                            f"{'; '.join(found)} {res.get('stderr', '')[-300:]}")
    selfcheck = []
    seen = set()
    for spec, res in outputs:
        if spec["cmd"] in seen or res["rc"] != 0:
            continue
        seen.add(spec["cmd"])
        bad = tamper(spec, res["stdout"])
        if bad is None or not gate.check(spec, 0, bad):
            selfcheck.append(f"gate accepted a tampered {spec['cmd']} report")
    return failed, problems, selfcheck


def environment() -> dict:
    import numpy
    import scipy
    from ringwalk import _kernels

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS),
            "backend": _kernels.active_backend(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ringwalk CLI benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "ringwalk", "cli.py")):
        print(f"error: no ringwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(RESULTS, exist_ok=True)
    env = child_env()
    specs = complete_specs(workload_commands(args.workload, args.seed))
    stem = f"{args.workload}-seed{args.seed}"
    # compile bytecode once so no timed process pays for it
    run_process([sys.executable, "-c", "import ringwalk.cli"], env)

    if args.trace:
        metrics, outputs, extra = run_traced(specs, env, stem)
        units = per_layer_units()
    else:
        metrics, outputs, extra = run_end_to_end(specs, args.seconds, env,
                                                 started)
        units = dict(END_TO_END)
    failed, problems, selfcheck = gate_outputs(outputs)
    attempted = len(outputs)
    correct = (failed == 0 and not selfcheck
               and extra.get("setup_ok", True) and extra.get("accounted", True))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commands {attempted}  ({time.perf_counter() - started:.1f} s)")
    for line in problems + selfcheck:
        print(f"FAILED {line}")
    if not extra.get("accounted", True):
        print("FAILED traced self times do not account for the traced wall")
    shown = dict(metrics)
    if not args.trace:
        shown.update(extra["command_s"])
        units.update({name: "s" for name in extra["command_s"]})
        shown["failed_frac"] = failed / attempted
        units["failed_frac"] = "1"
    for name, value in shown.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "correct": correct,
              "attempted": attempted, "failed": failed,
              "problems": problems + selfcheck,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in shown.items()}, "extra": extra}
    with open(os.path.join(RESULTS, f"{stem}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
