"""Every defaulted parameter of a library function is set by some caller.

A default no call overrides is a constant with a parameter's cost: it
widens every signature and hides the one value in use.  Calls are
matched by function name (a method by its own name, a constructor by
its class name), and a parameter counts as set when a call passes it by
keyword or fills its position.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LIBRARY = sorted((ROOT / "src" / "pappus").glob("*.py"))
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))

# main(argv) is the console entry point, and slice_f(v, axis=axis) binds a
# loop variable in a closure
ALLOWED = {("main", "argv"), ("slice_f", "axis")}


def defaulted_params(source: str):
    """(function name, parameter, position or None) for every defaulted parameter.

    The position counts from the first argument a caller writes, so a
    method's ``self`` is skipped; keyword-only parameters have none.
    """
    tree = ast.parse(source)
    owner, methods = {}, set()
    for c in ast.walk(tree):
        for f in c.body if isinstance(c, ast.ClassDef) else ():
            if isinstance(f, ast.FunctionDef):
                owner[id(f)] = c.name
                if not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list):
                    methods.add(id(f))
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        name = owner[id(f)] if f.name == "__init__" else f.name
        positional = f.args.posonlyargs + f.args.args
        skip = 1 if id(f) in methods else 0
        first = len(positional) - len(f.args.defaults)
        for k in range(first, len(positional)):
            out.append((name, positional[k].arg, k - skip))
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None))
    return out


def calls(source: str):
    """(called name, positional arguments before any ``*``, keyword names) per call."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        npos = next((k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
        out.append((name, npos, {k.arg for k in node.keywords if k.arg}))
    return out


def unset(params, call_sites):
    def is_set(name, param, pos):
        return any(
            cname == name and (param in kws or (pos is not None and npos > pos))
            for cname, npos, kws in call_sites
        )

    return sorted({(n, p) for n, p, pos in params if (n, p) not in ALLOWED and not is_set(n, p, pos)})


def test_the_scan_catches_an_unset_knob():
    lib = (
        "class C:\n"
        "    def same(self, other, tol=1e-9): ...\n"
        "    def __init__(self, m, check=True): ...\n"
        "def f(a, b=1, *, c=2): ...\n"
        "def g(a, knob=3): ...\n"
    )
    use = "C(m, False).same(o)\nf(1, 2)\nf(1, c=3)\ng(*xs)\n"
    assert unset(defaulted_params(lib), calls(use)) == [("g", "knob"), ("same", "tol")]


def test_every_defaulted_parameter_is_set_by_a_caller():
    params = [p for path in LIBRARY for p in defaulted_params(path.read_text())]
    call_sites = [c for path in CALLERS for c in calls(path.read_text())]
    missing = unset(params, call_sites)
    assert not missing, "defaulted but never set: " + ", ".join(f"{n}({p})" for n, p in missing)
