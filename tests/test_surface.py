"""Static checks on what the CLI and the benchmark reach of the package."""

import ast
import functools
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"
# wrapped by name in traced.py, gone since the exact spectrum checks
KNOWN_ABSENT = {"spectrum.multisets_match"}
EXEMPT = {  # public names no src/ or perfbench/ code calls, and why
    "reports.parse_text": "the documented reader of the text reports",
    "reports.parse_json": "the documented reader of the JSON reports",
}


def test_benchmark_wrapped_names_resolve():
    """No deletion may silently zero a per-layer metric."""
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    names = {n for spans in traced.LAYER_SPANS.values() for n in spans}
    names |= set(traced.CALL_METRICS.values()) | set(traced.AFTER)
    names |= {".".join(t) for t in traced.EXTRA_TARGETS}
    names |= {f"checks.{fn}" for fn in traced.CHECK_FUNCTIONS.values()}
    absent = {name for name in names if functools.reduce(
        lambda obj, attr: getattr(obj, attr, None), name.split(".")[1:],
        importlib.import_module(f"ringwalk.{name.split('.')[0]}")) is None}
    assert absent == KNOWN_ABSENT


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each public function, class or method of src/ringwalk is named, by a
    Name, an Attribute or a dotted string of traced.py, in src/ringwalk or
    perfbench/ outside its own definition: code only tests call lives in
    tests/."""
    src = sorted((ROOT / "src" / "ringwalk").glob("*.py"))
    refs = []
    for path in src + sorted(TRACED.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
            elif path == TRACED and isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    re.fullmatch(r"[\w.]+", node.value):
                refs += [(part, path, node.lineno)
                         for part in node.value.split(".")]
    uncalled = set()
    for path in src:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(top, top.name)] + [
                (d, f"{top.name}.{d.name}") for d in top.body
                if isinstance(top, ast.ClassDef)
                and isinstance(d, ast.FunctionDef)]
            for d, qual in defs:
                if not d.name.startswith("_") and not any(
                        name == d.name and not (
                            where == path
                            and d.lineno <= line <= d.end_lineno)
                        for name, where, line in refs):
                    uncalled.add(f"{path.stem}.{qual}")
    assert uncalled == set(EXEMPT)
