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
KNOB_EXEMPT = {  # defaulted parameters no src/ or perfbench/ call sets
    "cli.main(argv)": "the console entry point reads sys.argv by default",
    "mixing.simulate(allow_boundary)": "the stream oracle draws alpha in "
                                       "{0, 1}",
    "chain.check_alpha(allow_boundary)": "simulate's allow_boundary, "
                                         "forwarded",
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


def _defaulted(fn, skip):
    """(position in a call, name) of each defaulted parameter of fn, the
    position None for keyword-only ones; skip drops self or cls."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return ([(i - skip, pos[i].arg) for i in range(first, len(pos))]
            + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def test_every_defaulted_parameter_is_set_by_some_caller():
    """A default that no call in src/ringwalk or perfbench/ overrides is a
    knob only the tests turn.  Calls match definitions by name, a class
    call its __init__.  Passing a caller's own parameter of the same name
    on sets the parameter only if some call sets the caller's."""
    src = sorted((ROOT / "src" / "ringwalk").glob("*.py"))
    defs = {}           # called name -> [(label, defaulted parameters)]
    for path in src:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                defs.setdefault(top.name, []).append(
                    (f"{path.stem}.{top.name}", _defaulted(top, 0)))
            if isinstance(top, ast.ClassDef):
                for d in top.body:
                    if isinstance(d, ast.FunctionDef):
                        static = any(getattr(x, "id", None) == "staticmethod"
                                     for x in d.decorator_list)
                        init = d.name == "__init__"
                        label = ".".join([path.stem, top.name]
                                         + ([] if init else [d.name]))
                        defs.setdefault(top.name if init else d.name,
                                        []).append(
                            (label, _defaulted(d, 0 if static else 1)))
    sources = {}        # (called name, parameter) -> {None or (caller, p)}

    def visit(node, caller, own):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            caller = node.name
            own = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            spread = any(isinstance(x, ast.Starred) for x in node.args) or \
                any(k.arg is None for k in node.keywords)
            keywords = {k.arg: k.value for k in node.keywords}
            for _, params in defs.get(name, ()):
                for j, p in params:
                    arg = ast.Constant(None) if spread else keywords.get(p)
                    if arg is None and j is not None and j < len(node.args):
                        arg = node.args[j]
                    if arg is not None:
                        forwarded = isinstance(arg, ast.Name) and \
                            arg.id == p and p in own
                        sources.setdefault((name, p), set()).add(
                            (caller, p) if forwarded else None)
        for child in ast.iter_child_nodes(node):
            visit(child, caller, own)

    for path in src + sorted(TRACED.parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None, set())
    is_set = set()
    while True:
        more = {key for key, srcs in sources.items()
                if None in srcs or srcs & is_set} - is_set
        if not more:
            break
        is_set |= more
    unset = {f"{label}({p})"
             for name, entries in defs.items() for label, params in entries
             for _, p in params if (name, p) not in is_set}
    assert unset == set(KNOB_EXEMPT)
