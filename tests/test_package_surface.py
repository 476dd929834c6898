"""Every function, class and method of the package is named by the package,
and every parameter of a function is read by its body.

A top-level function or class counts as named when some code of the package
outside its own body refers to it: by its name in its module or in a module
that imports it, or as an attribute of a module alias (``gb.member``).  A
method counts as named when some attribute access outside its body carries
its name.  Code that is itself unnamed does not keep anything alive, so the
check runs to a fixed point.  An import alone names nothing: a re-export
that no code reads is dead too.  Dunder methods, and methods that override
one of a base class outside the package, are called by Python or by that
base class.  Whatever is left unnamed runs for tests only; its place is
under tests/, or nowhere.

A parameter counts as read when its name is loaded anywhere in the body,
nested functions included.  ``self`` and ``cls``, and a name that starts
with an underscore (a slot a caller's signature requires), are exempt.
"""

import ast
import importlib
import pathlib

import jetfibers

SRC = pathlib.Path(jetfibers.__file__).parent

# Names the benchmark harness (perfbench/) binds and traces although no
# command reaches them; they leave together with those bindings.
ALLOWED = {
    ("poly", "substitute_series"): "perfbench traces it as the jets.substitute_series span, "
    "and its self-test looks the name up on jets",
    ("groebner", "ideal_intersect_elim"): "perfbench traces it as a groebner span",
    ("groebner", "saturate"): "perfbench traces it as a groebner span",
    ("_kernel_py", "mono_div"): "perfbench counts its calls as kernel.mono_div",
    ("_kernel_py", "mono_cmp"): "perfbench counts its calls as kernel.mono_cmp",
    ("_kernel_py", "mul_terms"): "perfbench traces it as the kernel.mul_terms span",
}


def _module_aliases(trees):
    """module -> {local name: package module it refers to}, following
    ``from . import m as a`` and ``from .k import a`` where k binds a module."""
    aliases = {mod: {} for mod in trees}
    changed = True
    while changed:
        changed = False
        for mod, tree in trees.items():
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        target = alias.name if alias.name in trees else None
                    else:
                        target = aliases.get(node.module, {}).get(alias.name)
                    if target is not None and aliases[mod].get(local) != target:
                        aliases[mod][local] = target
                        changed = True
    return aliases


def _imported_names(tree):
    """{local name: (module, name)} for ``from .module import name``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


def _overrides(mod, cls_name, method):
    cls = getattr(importlib.import_module(f"jetfibers.{mod}"), cls_name)
    return any(method in vars(base) for base in cls.__mro__[1:])


def unnamed_definitions(src=SRC):
    """The (module, qualified name) of every definition nothing names."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    aliases = _module_aliases(trees)

    defs = {}  # (module, qualname) -> (kind, name, first line, last line)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = ("top", node.name, node.lineno, node.end_lineno)
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                if sub.name.startswith("__") and sub.name.endswith("__"):
                    continue
                if _overrides(mod, node.name, sub.name):
                    continue
                defs[mod, f"{node.name}.{sub.name}"] = ("method", sub.name, sub.lineno, sub.end_lineno)

    # every reference: (module, line, what it names); what is (module, name)
    # for a top-level name and (None, name) for an attribute of an object
    refs = []
    for mod, tree in trees.items():
        imported = _imported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = imported.get(node.id, (mod, node.id))
                refs.append((mod, node.lineno, target))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = None
                if isinstance(node.value, ast.Name):
                    owner = aliases[mod].get(node.value.id)
                refs.append((mod, node.lineno, (owner, node.attr)))

    dead: set = set()
    while True:
        spans = {key: (key[0], defs[key][2], defs[key][3]) for key in dead}

        def counts(ref, own):
            mod, line, _ = ref
            if own[0] == mod and own[1] <= line <= own[2]:
                return False
            return not any(m == mod and lo <= line <= hi for m, lo, hi in spans.values())

        found = set()
        for key, (kind, name, lo, hi) in defs.items():
            if key in ALLOWED:
                continue
            wanted = {(key[0], name)} if kind == "top" else {(None, name)}
            if not any(ref[2] in wanted and counts(ref, (key[0], lo, hi)) for ref in refs):
                found.add(key)
        if found == dead:
            return sorted(dead)
        dead = found


def test_every_definition_is_named_by_the_package():
    unnamed = [f"{mod}.{name}" for mod, name in unnamed_definitions()]
    assert unnamed == [], "named by nothing in src/jetfibers: " + ", ".join(unnamed)


def test_every_allowed_name_would_be_reported():
    # an entry whose name the package calls again has no reason left
    saved = dict(ALLOWED)
    ALLOWED.clear()
    try:
        unnamed = set(unnamed_definitions())
    finally:
        ALLOWED.update(saved)
    assert set(saved) <= unnamed


def unread_parameters(src=SRC):
    """(module, function, parameter) for every parameter its function's body
    never reads."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            out += [
                (path.stem, name, a.arg)
                for a in params
                if a.arg not in read and a.arg not in ("self", "cls") and not a.arg.startswith("_")
            ]
    return out


def test_every_parameter_is_read():
    unread = [f"{mod}.{func}({param})" for mod, func, param in unread_parameters()]
    assert unread == [], "parameters their function never reads: " + ", ".join(unread)


def test_an_unread_parameter_is_reported(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b, _c, *rest, d=1, **kw):\n"
        "    def g(e):\n"
        "        return a + d\n"
        "    return g\n"
        "h = lambda x, y: x\n",
        encoding="utf-8",
    )
    assert unread_parameters(tmp_path) == [
        ("m", "f", "b"),
        ("m", "f", "rest"),
        ("m", "f", "kw"),
        ("m", "g", "e"),
        ("m", "<lambda>", "y"),
    ]


def report_constructions(src=SRC):
    """(module, line) of every call of VerificationReport, by its bare name
    or as a module attribute (``gb.VerificationReport(...)``), in a module
    other than groebner."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "groebner":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "VerificationReport":
                out.append((path.stem, node.lineno))
    return out


def test_only_groebner_builds_reports():
    # every other module derives a report by check, fold, exhausted or
    # expect_refuted, so one rule decides each outcome and its sums
    built = [f"{mod}:{line}" for mod, line in report_constructions()]
    assert built == [], "VerificationReport built outside groebner: " + ", ".join(built)


def test_a_report_built_outside_groebner_is_reported(tmp_path):
    (tmp_path / "groebner.py").write_text("r = VerificationReport('c', 'verified')\n")
    (tmp_path / "m.py").write_text(
        "from . import groebner as gb\n"
        "from .groebner import VerificationReport\n"
        "a = gb.VerificationReport('c', 'verified')\n"
        "b = VerificationReport('c', 'refuted')\n"
        "c: VerificationReport = gb.check('c', True)\n",
        encoding="utf-8",
    )
    assert report_constructions(tmp_path) == [("m", 3), ("m", 4)]
