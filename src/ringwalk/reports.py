"""Line-oriented and JSON report rendering with lossless re-parsing.

A report is a plain dict:

    {"version": "1", "command": str, "meta": {str: str},
     "tables": [{"name": str, "columns": [str], "rows": [[str]]}],
     "checks": [[name, "PASS"|"FAIL", detail]]}

The text form is tab-separated, one record per line, so any value free of
tabs and newlines round-trips exactly; probabilities appear as "num/den"
strings.  parse_text(render_text(r)) == r is covered by the test suite.
"""

from __future__ import annotations

import json

VERSION = "1"
HEADER = "ringwalk-report"


def new_report(command: str) -> dict:
    return {"version": VERSION, "command": command, "meta": {},
            "tables": [], "checks": []}


def add_table(report: dict, name: str, columns, rows) -> None:
    report["tables"].append({
        "name": name,
        "columns": [str(c) for c in columns],
        "rows": [[str(v) for v in row] for row in rows],
    })


def add_check(report: dict, name: str, ok: bool, detail: str = "") -> None:
    report["checks"].append([name, "PASS" if ok else "FAIL", detail])


def _clean(value) -> str:
    return str(value).replace("\t", " ").replace("\n", " ")


def render_text(report: dict) -> str:
    lines = [f"{HEADER} {report['version']}",
             f"command\t{_clean(report['command'])}"]
    for k in sorted(report["meta"]):
        lines.append(f"meta\t{_clean(k)}\t{_clean(report['meta'][k])}")
    for table in report["tables"]:
        lines.append(f"table\t{_clean(table['name'])}")
        lines.append("columns\t" + "\t".join(_clean(c) for c in table["columns"]))
        for row in table["rows"]:
            lines.append("row\t" + "\t".join(_clean(v) for v in row))
    for name, status, detail in report["checks"]:
        lines.append(f"check\t{_clean(name)}\t{status}\t{_clean(detail)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> dict:
    lines = text.strip("\n").split("\n")
    head = lines[0].split(" ")
    if head[0] != HEADER:
        raise ValueError("not a ringwalk report")
    report = {"version": head[1], "command": None, "meta": {},
              "tables": [], "checks": []}
    if lines[-1] != "end":
        raise ValueError("truncated report: missing end line")
    for line in lines[1:-1]:
        parts = line.split("\t")
        tag = parts[0]
        if tag == "command":
            report["command"] = parts[1]
        elif tag == "meta":
            report["meta"][parts[1]] = parts[2]
        elif tag == "table":
            report["tables"].append({"name": parts[1], "columns": [],
                                     "rows": []})
        elif tag == "columns":
            report["tables"][-1]["columns"] = parts[1:]
        elif tag == "row":
            report["tables"][-1]["rows"].append(parts[1:])
        elif tag == "check":
            report["checks"].append([parts[1], parts[2],
                                     parts[3] if len(parts) > 3 else ""])
        else:
            raise ValueError(f"unknown report line tag {tag!r}")
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def parse_json(text: str) -> dict:
    report = json.loads(text)
    if "version" not in report:
        raise ValueError("report JSON lacks a version field")
    return report


def has_failure(report: dict) -> bool:
    return any(status == "FAIL" for _, status, _ in report["checks"])
