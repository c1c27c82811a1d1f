"""Output gate: decide whether one CLI run produced a correct report.

A run passes when it exited 0, its report parses, every `check` line is
PASS, and the command-specific facts hold:

  * stationary: the table sums to exactly 1 and satisfies pi M = pi exactly,
    with M from `ringwalk.build_M` built here (once per distinct report);
  * simulate: the counts sum to `samples` and repeat bit for bit across runs
    of one seed;
  * mix: d_exact is present, non-increasing, and d_exact(t) <= (1-alpha)^t.

`tamper` alters one value of a real report so the gate can be shown to
reject it (the benchmark's self-check).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm

import numpy as np


def parse_report(text: str) -> dict:
    """Parse the CLI's text report; raise ValueError when malformed."""
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("ringwalk-report ") or lines[-1] != "end":
        raise ValueError("not a complete ringwalk report")
    rep = {"command": None, "meta": {}, "tables": {}, "checks": []}
    table = None
    for line in lines[1:-1]:
        tag, *parts = line.split("\t")
        if tag == "command":
            rep["command"] = parts[0]
        elif tag == "meta":
            rep["meta"][parts[0]] = parts[1]
        elif tag == "table":
            table = rep["tables"][parts[0]] = {"columns": [], "rows": []}
        elif tag == "columns" and table is not None:
            table["columns"] = parts
        elif tag == "row" and table is not None:
            table["rows"].append(parts)
        elif tag == "check":
            rep["checks"].append((parts[0], parts[1]))
        else:
            raise ValueError(f"unexpected report line {line[:40]!r}")
    return rep


def column(rep: dict, table: str, name: str) -> list:
    tab = rep["tables"][table]
    j = tab["columns"].index(name)
    return [row[j] for row in tab["rows"]]


class Gate:
    """Checks reports; remembers simulate counts and verified pi per run."""

    def __init__(self):
        self._sim_counts = {}     # argv key -> counts of the first run
        self._verified = {}       # sha256 of a stationary report -> verdict
        self._chains = {}         # (ring, Q, alpha) -> M

    def check(self, spec: dict, rc: int, stdout: str) -> list:
        """Return the list of problems; empty means the run passed."""
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            rep = parse_report(stdout)
        except (ValueError, IndexError) as exc:
            return [f"unparsable report: {exc}"]
        problems = []
        if rep["command"] != spec["cmd"]:
            problems.append(f"report is for {rep['command']!r}")
        problems += [f"check {name} is {status}"
                     for name, status in rep["checks"] if status != "PASS"]
        kind = spec["cmd"]
        try:
            if kind == "stationary":
                problems += self._stationary(spec, stdout, rep)
            elif kind == "simulate":
                problems += self._simulate(spec, rep)
            elif kind == "mix":
                problems += self._mix(spec, rep)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"{kind} report lacks a readable field: {exc!r}")
        return problems

    def _chain(self, spec):
        from ringwalk import ClassDistribution, build_M
        from ringwalk.cli import ring_from_descriptor

        key = (json.dumps(spec["ring"], sort_keys=True), spec.get("Q"),
               spec["alpha"])
        if key not in self._chains:
            ring = ring_from_descriptor(spec["ring"])
            if spec.get("Q") is None:
                Q = ClassDistribution.uniform(ring)
            else:
                Q = ClassDistribution.from_weights(ring, {
                    int(k): Fraction(v)
                    for k, v in json.loads(spec["Q"]).items()})
            self._chains[key] = build_M(ring, Q, Fraction(spec["alpha"]))
        return self._chains[key]

    def _stationary(self, spec, stdout, rep):
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest not in self._verified:
            self._verified[digest] = self._check_pi(spec, rep)
        return self._verified[digest]

    def _check_pi(self, spec, rep):
        pi = [Fraction(p) for p in column(rep, "stationary", "probability")]
        elements = [int(x) for x in column(rep, "stationary", "element")]
        if elements != list(range(len(pi))):
            return ["stationary rows are not elements 0..n-1 in order"]
        if sum(pi) != 1:
            return [f"stationary sum is {sum(pi)}, not 1"]
        M = self._chain(spec).matrix
        if M.n != len(pi):
            return [f"stationary table has {len(pi)} rows for n={M.n}"]
        den = lcm(*(p.denominator for p in pi))
        scaled = np.array([p.numerator * (den // p.denominator) for p in pi],
                          dtype=object)
        lhs = scaled.dot(np.array(M.num, dtype=object))   # den_M * den * pi M
        if any(lhs[j] != M.den * scaled[j] for j in range(M.n)):
            return ["pi M != pi"]
        return []

    def _simulate(self, spec, rep):
        counts = [int(c) for c in column(rep, "empirical", "count")]
        problems = []
        if sum(counts) != spec["samples"]:
            problems.append(f"counts sum to {sum(counts)}, "
                            f"not {spec['samples']}")
        key = json.dumps(spec, sort_keys=True)
        first = self._sim_counts.setdefault(key, counts)
        if counts != first:
            problems.append("counts differ from an earlier run of this seed")
        return problems

    def _mix(self, spec, rep):
        ds = [Fraction(d) for d in column(rep, "distance", "d_exact")]
        ts = [int(t) for t in column(rep, "distance", "t")]
        rate = 1 - Fraction(spec["alpha"])
        problems = []
        if ts != list(range(spec["T"] + 1)):
            problems.append("distance rows are not t = 0..T")
        if any(b > a for a, b in zip(ds, ds[1:])):
            problems.append("d_exact increases")
        if any(d > rate ** t for t, d in zip(ts, ds)):
            problems.append("d_exact exceeds (1-alpha)^t")
        return problems


# command -> (table, column, row index, alteration) for `tamper`
TAMPER = {
    "stationary": ("stationary", "probability", 0,
                   lambda v: str(Fraction(v) + Fraction(1, Fraction(v).denominator))),
    "simulate": ("empirical", "count", 0, lambda v: str(int(v) + 1)),
    "mix": ("distance", "d_exact", -1, lambda v: "1"),
}


def tamper(spec: dict, stdout: str) -> str | None:
    """The report with one value altered, or None if it has nothing to alter.

    stationary: one probability Fraction; simulate: one count; mix: the last
    d_exact Fraction; any other report: its first check turned to FAIL.
    """
    lines = [line.split("\t") for line in stdout.split("\n")]
    if spec["cmd"] in TAMPER:
        table, col, pick, alter = TAMPER[spec["cmd"]]
        rows, columns, current = [], None, None
        for i, parts in enumerate(lines):
            if parts[0] == "table":
                current = parts[1]
            elif current == table and parts[0] == "columns":
                columns = parts
            elif current == table and parts[0] == "row":
                rows.append(i)
        if not rows or columns is None or col not in columns:
            return None
        parts = lines[rows[pick]]
        j = columns.index(col)
        parts[j] = alter(parts[j])
    else:
        checks = [parts for parts in lines
                  if parts[0] == "check" and parts[2] == "PASS"]
        if not checks:
            return None
        checks[0][2] = "FAIL"
    return "\n".join("\t".join(parts) for parts in lines)
