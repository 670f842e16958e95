"""Every function in src/dsgc is reachable from the program's entry points.

Reachability is by name reference in the AST, from three roots read where
they already live: the console script in pyproject.toml (`cli.cli`, which
calls `cli.main`); the acceptance suite, tests/test_acceptance.py, as code
that is reached: the names it imports from dsgc, and every attribute it
reads (the `ad.*` primitives, `vs.euclidean_view`, ...); and the names the
benchmark wraps, `tests/test_bench_contract.WRAPPED`.

The rules. A unit is a module-level function, class or assignment, an
imported name, or a method. A function's parameters and locals are not
references, so `def f(g)` does not reach a function `g`. A bare name reaches
the unit of that name in its own module, an imported name the unit it
imports, and an attribute `x.name` every method and module-level unit called
`name`. A reached class reaches its bases, its class-level statements and
its dunder methods; any other method is reached only when its name is
referenced from reached code. Module-level statements that define nothing
run on import, so they count as reached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dsgc").glob("*.py"))
# "module.function" -> why it stays in src with no caller on a program path
ALLOWED = {}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _locals(fn):
    """The names fn binds anywhere in its body: parameters (of nested
    functions and lambdas too), assignment and loop targets, nested defs,
    imports and exception names."""
    names = set()
    for node in ast.walk(fn):
        if _is_def(node) or isinstance(node, ast.Lambda):
            a = node.args
            names |= {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                      if x}
            if node is not fn and _is_def(node):
                names.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _refs(module, nodes, skip=frozenset()):
    """The references in nodes: ("name", module, id) for each bare name read
    that is not in skip, ("attr", name) for each attribute."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in skip:
                    out.add(("name", module, node.id))
            elif isinstance(node, ast.Attribute):
                out.add(("attr", node.attr))
    return out


def scan(sources):
    """Map each unit of sources ({module: source text}) to its references;
    also return the functions and each class's dunder methods."""
    units, functions, dunders = {}, set(), {}
    for module, text in sources.items():
        units[module] = set()  # module-level statements that run on import
        for stmt in ast.parse(text).body:
            if _is_def(stmt):
                name = f"{module}.{stmt.name}"
                units[name] = _refs(module, [stmt], _locals(stmt))
                functions.add(name)
            elif isinstance(stmt, ast.ClassDef):
                cls = f"{module}.{stmt.name}"
                body = [s for s in stmt.body if not _is_def(s)]
                units[cls] = _refs(module, stmt.bases + stmt.keywords + stmt.decorator_list + body)
                dunders[cls] = set()
                for fn in filter(_is_def, stmt.body):
                    name = f"{cls}.{fn.name}"
                    units[name] = _refs(module, [fn], _locals(fn))
                    functions.add(name)
                    if fn.name.startswith("__") and fn.name.endswith("__"):
                        dunders[cls].add(name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            units.setdefault(f"{module}.{node.id}", set()).update(
                                _refs(module, [stmt.value] if stmt.value else []))
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level or stmt.module.startswith("dsgc"):
                    source = (stmt.module or "").removeprefix("dsgc").lstrip(".")
                    for alias in stmt.names:
                        alias_unit = f"{module}.{alias.asname or alias.name}"
                        units[alias_unit] = {("name", source, alias.name)}
            elif not isinstance(stmt, ast.Import):
                units[module] |= _refs(module, [stmt])
    return units, functions, dunders


def unreached(sources, roots, allowed=()):
    """The functions of sources that no root reaches, minus allowed, sorted.
    A root names a unit, or is "*.name", a reference to every unit called
    name, as an attribute read is."""
    units, functions, dunders = scan(sources)
    by_last = {}
    for name in units:
        by_last.setdefault(name.rsplit(".", 1)[-1], set()).add(name)
    missing = [r for r in roots if not r.startswith("*.") and r not in units]
    assert not missing, f"roots name no unit: {missing}"
    seen, todo = set(), [*sources]
    for root in roots:
        todo.extend(by_last.get(root[2:], ()) if root.startswith("*.") else [root])
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(dunders.get(name, ()))
        for ref in units[name]:
            if ref[0] == "name":
                target = f"{ref[1]}.{ref[2]}"
                todo.extend([target] if target in units else [])
            else:
                todo.extend(by_last.get(ref[1], ()))
    return sorted(functions - seen - set(allowed))


def program_roots():
    """The console scripts, what the acceptance suite imports from dsgc and
    every attribute it reads (`ad.*` among them), and the wrapped names."""
    roots = [f"{m}.{f}" for m, f in re.findall(r'^\w+ = "dsgc\.(\w+):(\w+)"',
                                                (ROOT / "pyproject.toml").read_text(), re.M)]
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dsgc."):
            roots += [f"{node.module[5:]}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            roots.append(f"*.{node.attr}")
    contract = ast.parse((ROOT / "tests" / "test_bench_contract.py").read_text())
    wrapped = next(node.value for node in contract.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"])
    return roots + ast.literal_eval(wrapped)


def test_every_src_function_is_reached():
    sources = {p.stem: p.read_text() for p in SOURCES}
    found = unreached(sources, program_roots(), ALLOWED)
    assert found == [], f"no program path reaches {found}"


def test_a_same_named_parameter_is_not_a_reference():
    source = "def main(helper):\n    return helper\n\ndef helper():\n    pass\n"
    assert unreached({"m": source}, ["m.main"]) == ["m.helper"]


def test_a_method_called_only_from_an_unreached_method_is_reported():
    source = ("class C:\n"
              "    def used(self):\n        return 1\n"
              "    def dead(self):\n        return self.helper()\n"
              "    def helper(self):\n        return 2\n\n"
              "def main():\n    return C().used()\n")
    assert unreached({"m": source}, ["m.main"]) == ["m.C.dead", "m.C.helper"]


def test_the_dunders_of_a_reached_class_are_reached():
    source = ("class C:\n    def __init__(self):\n        pass\n"
              "    def __eq__(self, other):\n        return True\n\n"
              "class D:\n    def __init__(self):\n        pass\n\n"
              "def main():\n    return C()\n")
    assert unreached({"m": source}, ["m.main"]) == ["m.D.__init__"]


def test_an_imported_name_reaches_its_source():
    sources = {"a": "def f():\n    pass\n\ndef g():\n    pass\n",
               "b": "from .a import f as h\n\ndef main():\n    return h()\n"}
    assert unreached(sources, ["b.main"]) == ["a.g"]


def test_an_allowed_name_passes():
    source = "def main():\n    pass\n\ndef spare():\n    pass\n"
    assert unreached({"m": source}, ["m.main"], {"m.spare": "kept for a reason"}) == []
