"""Source hygiene checks that need no linter: every imported name is used,
every private module-level helper of the package has a caller, every public
function of the package is named somewhere in the repository, every public
function, method and property of it is read by shipped code or kept on
purpose, so is every dataclass field, every defaulted parameter of one is
passed by shipped code or kept on purpose, no handler catches every
exception, and every name the README or a package docstring gives in
backticks exists."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    p for p in (ROOT / "src" / "riskpremia").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unread_names():
    src = "import os\nimport numpy as np\nfrom a.b import c, d as e\nx = np.zeros(c)\n"
    assert unused_imports(src) == ["e (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced(sources: dict[str, str], wanted) -> list[str]:
    """Module-level functions and classes that ``wanted(module, node)``
    selects and that no code of ``sources`` (module name -> text) reads
    outside their own body."""
    defined, reads = [], defaultdict(list)
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and wanted(name, node):
                defined.append((name, node.name, set(ast.walk(node))))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append(node)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads[alias.name].append(node)
    return sorted(
        f"{module}: {helper}" for module, helper, body in defined
        if not any(node not in body for node in reads[helper])
    )


def private(module, node) -> bool:
    """A ``_private`` definition (not a dunder)."""
    return node.name.startswith("_") and not node.name.startswith("__")


def public_package_function(module, node) -> bool:
    """A public function of the package itself."""
    is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    return module.startswith("src/") and is_function and not node.name.startswith("_")


def test_scanner_flags_unreferenced_private_helpers():
    sources = {
        "a.py": "def _used():\n    pass\ndef _recursive():\n    return _recursive()\n"
                "class _Orphan:\n    pass\ndef __dunder__():\n    pass\n",
        "b.py": "from a import _used\nx = 1\n",
    }
    assert unreferenced(sources, private) == ["a.py: _Orphan", "a.py: _recursive"]


def test_no_unreferenced_private_helpers():
    package = sorted((ROOT / "src" / "riskpremia").glob("*.py"))
    assert unreferenced({p.name: p.read_text() for p in package}, private) == []


def test_scanner_flags_unreferenced_public_functions():
    sources = {
        "src/a.py": "def used():\n    pass\ndef orphan():\n    pass\n"
                    "def recursive():\n    return recursive()\nclass Unread:\n    pass\n"
                    "def _private():\n    pass\n",
        "tests/b.py": "import a\na.used()\n",
        "scripts/c.py": "def main():\n    pass\n",
    }
    assert unreferenced(sources, public_package_function) == ["src/a.py: orphan", "src/a.py: recursive"]


def test_every_public_function_is_named_somewhere():
    # a public function that no module, script, benchmark or test names is
    # dead code, however public its name
    files = sorted(
        p for folder in ("src", "scripts", "perfbench", "tests") for p in (ROOT / folder).rglob("*.py")
    )
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in files}
    assert unreferenced(sources, public_package_function) == []


def unread_public(sources: dict[str, str], read_names=frozenset()) -> list[str]:
    """``module: name`` for every public function, and ``module: Class.name``
    for every public method or property, that a ``src/`` module of
    ``sources`` (module name -> text) defines and that no code of ``sources``
    reads outside its own body.  Reads are matched by name: ``f``, ``x.f``
    or ``from m import f``; a name in ``read_names`` counts as read."""
    defined, reads = [], defaultdict(list)
    for module, source in sources.items():
        tree = ast.parse(source)
        if module.startswith("src/"):
            for node in tree.body:
                owner, members = (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
                for m in members:
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_"):
                        defined.append((module, owner + m.name, m.name, set(ast.walk(m))))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append(node)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads[alias.name].append(node)
    return sorted(
        f"{module}: {label}" for module, label, name, body in defined
        if name not in read_names and all(read in body for read in reads[name])
    )


def test_scanner_flags_unread_public_functions_methods_and_properties():
    sources = {
        "src/a.py": "class C:\n    def used(self):\n        pass\n    @property\n    def unread(self):\n"
                    "        return self.unread\n    def _private(self):\n        pass\n"
                    "    def traced(self):\n        pass\n"
                    "def imported():\n    pass\ndef orphan():\n    pass\n",
        "scripts/b.py": "from a import C, imported\nC().used()\n",
    }
    assert unread_public(sources, {"traced"}) == ["src/a.py: C.unread", "src/a.py: orphan"]


# Public functions, methods and properties that no module, script or
# benchmark reads, each kept on purpose; everything else public has a reader
# in shipped code.
KEPT_UNREAD = {
    "src/riskpremia/montecarlo.py: calibrate":
        "library capability: a DGP calibrated to an empirical fit",
    "src/riskpremia/panels.py: save_panel_csv":
        "the writer of the yield CSV that load_yield_csv reads back",
    "src/riskpremia/subset.py: sfar_distant":
        "criterion 4: the distant-value limit of the row statistic along one direction",
}


def test_every_public_function_is_read_by_shipped_code():
    # tests are not readers, and the package's __init__ only re-exports; a
    # perfbench trace target is read by the tracer, which wraps it by name
    files = sorted(p for folder in ("src", "scripts", "perfbench") for p in (ROOT / folder).rglob("*.py")
                   if p.name != "__init__.py")
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in files}
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in run.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACE_TARGETS"]]
    traced = {target.rsplit(".", 1)[1] for target in targets}
    assert unread_public(sources, traced) == sorted(KEPT_UNREAD)


def is_dataclass(decorator: ast.expr) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass(...)``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass"


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``module: Class.field`` for every field of a dataclass that a ``src/``
    module of ``sources`` (module name -> text) defines and that no code of
    ``sources`` reads.  Reads are matched by name, ``x.field`` loaded
    anywhere, a method of the class included; setting a field, by keyword
    or by assignment, is not a read, and neither is ``args.field``, a flag
    of an argparse namespace."""
    defined, reads = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        if module.startswith("src/"):
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
                    defined += [(module, node.name, stmt.target.id) for stmt in node.body
                                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        reads |= {
            n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and not (isinstance(n.value, ast.Name) and n.value.id == "args")
        }
    return sorted(f"{module}: {cls}.{name}" for module, cls, name in defined if name not in reads)


def test_scanner_flags_dataclass_fields_no_code_reads():
    sources = {
        "src/a.py": "from dataclasses import dataclass\nimport dataclasses\n"
                    "@dataclass(frozen=True)\nclass A:\n    read: int\n    unread: int = 0\n"
                    "    by_method: int = 0\n    flag: int = 0\n    __test__ = False\n"
                    "    def total(self):\n        return self.by_method\n"
                    "@dataclasses.dataclass\nclass B:\n    stored: int\n"
                    "class Plain:\n    annotated: int\n",
        "scripts/b.py": "from a import A, B\nA(read=1, unread=2).read\nb = B(1)\nb.stored = 2\n"
                        "print(args.flag)\n",
    }
    assert unread_fields(sources) == ["src/a.py: A.flag", "src/a.py: A.unread", "src/a.py: B.stored"]


# Dataclass fields that no module, script or benchmark reads, each kept on
# purpose; every other field has a reader in shipped code.
KEPT_FIELDS = {
    "src/riskpremia/confsets.py: ConfidenceSet.level":
        "the confidence level the set was inverted at, which one surface serves many of",
    "src/riskpremia/kronecker.py: KpsFactorization.normalization":
        "which scalar split of the factors kps_factorize used, its maxabs fallback included (criterion 8)",
    "src/riskpremia/kronecker.py: KpsFactorization.omega":
        "the p x p factor kps_factorize recovers (criterion 8)",
    "src/riskpremia/kronecker.py: KpsFactorization.residual_rel":
        "the distance of S from the product of its factors, falling with T for Kronecker data (criterion 8)",
    "src/riskpremia/kronecker.py: KpsFactorization.sigma":
        "the k x k factor kps_factorize recovers (criterion 8)",
    "src/riskpremia/montecarlo.py: PowerTable.level":
        "the nominal size each rejection frequency was counted at",
    "src/riskpremia/montecarlo.py: SfarDensityResult.quantile_se":
        "the standard errors criterion 5 compares the empirical sFAR quantiles with",
    "src/riskpremia/montecarlo.py: WishartLabResult.eigenvalues":
        "the draws behind small_sums and large_sums, for any other sum of them",
    "src/riskpremia/subset.py: BoundednessReport.alpha":
        "the level the classification was made at",
    "src/riskpremia/subset.py: BoundednessReport.critical_value":
        "the chi^2 critical value every scanned limit was compared with",
    "src/riskpremia/subset.py: BoundednessReport.rank_shortcut":
        "whether the rank certificate decided, so that no direction was scanned",
}


def test_every_dataclass_field_is_read_by_shipped_code():
    # tests are not readers: a field only a test reads is kept on purpose or goes
    files = sorted(p for folder in ("src", "scripts", "perfbench") for p in (ROOT / folder).rglob("*.py"))
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in files}
    assert unread_fields(sources) == sorted(KEPT_FIELDS)


def unset_defaults(sources: dict[str, str], wanted) -> list[str]:
    """``module: function(parameter)`` for every defaulted parameter of a
    module-level function that ``wanted(module, node)`` selects and that no
    call in ``sources`` (module name -> text) passes, by keyword or by
    position.  Calls are matched by name, ``f(...)`` or ``x.f(...)``; one
    that unpacks ``*args`` or ``**kwargs`` passes every parameter it reaches."""
    defined, calls = [], defaultdict(list)
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and wanted(module, node)
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)].append(node)

    def passes(call, position, name):
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        return position is not None and (
            position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)
        )

    found = []
    for module, node in defined:
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found += [
            f"{module}: {node.name}({name})" for position, name in defaulted
            if not any(passes(call, position, name) for call in calls[node.name])
        ]
    return sorted(found)


def test_scanner_flags_defaulted_parameters_no_call_passes():
    sources = {
        "src/a.py": "def f(x, y=1, z=2, *, w=3, v=None):\n    pass\n"
                    "def g(a=1, b=2):\n    pass\ndef h(c=1):\n    pass\ndef _p(d=1):\n    pass\n",
        "scripts/b.py": "import a\na.f(0, 5)\nf(0, v=1)\ng(*rest)\n",
        "perfbench/c.py": "h(**opts)\n",
    }
    assert unset_defaults(sources, public_package_function) == ["src/a.py: f(w)", "src/a.py: f(z)"]


# Defaulted parameters that no module, script or benchmark passes, each kept
# on purpose; every other defaulted parameter of a public function has a
# shipped caller that sets it.
KEPT_DEFAULTS = {
    "src/riskpremia/cli.py: main(argv)":
        "the console entry point reads sys.argv; programs pass an argument list",
    "src/riskpremia/confsets.py: joint_confidence_set(seed)":
        "the seed of the sFAR boundedness scan; riskpremia cs passes it to invert_surface",
    "src/riskpremia/kronecker.py: kps_factorize(normalize)":
        "the scalar split of the factors, whose product it leaves alone (criterion 8)",
    "src/riskpremia/montecarlo.py: calibrate(por)":
        "library capability: a DGP from a fit, with or without a price of risk",
    "src/riskpremia/montecarlo.py: calibrate(t)":
        "library capability: the sample length of a DGP from a fit",
    "src/riskpremia/montecarlo.py: simulate(init)":
        "library capability: a burn-in start in place of the stationary law",
}


def test_every_defaulted_parameter_is_passed_by_shipped_code():
    # an option that only tests set is code no run reaches; tests are not callers
    files = sorted(p for folder in ("src", "scripts", "perfbench") for p in (ROOT / folder).rglob("*.py"))
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in files}
    assert unset_defaults(sources, public_package_function) == sorted(KEPT_DEFAULTS)


def broad_handlers(source: str) -> list[tuple[str, ast.ExceptHandler]]:
    """(enclosing function, handler) for every handler that catches
    Exception, BaseException or, bare, everything."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(c is None or getattr(c, "id", None) in ("Exception", "BaseException")
                       for c in caught):
                    found.append((func, child))
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_func else func)

    visit(ast.parse(source), "<module>")
    return found


def test_scanner_flags_every_catch_all_handler():
    src = (
        "try:\n    pass\nexcept ValueError:\n    pass\n"
        "def f():\n    try:\n        pass\n    except (KeyError, Exception):\n        pass\n"
        "    except:\n        pass\n"
        "    def g():\n        try:\n            pass\n        except BaseException:\n            pass\n"
    )
    assert [(func, h.lineno) for func, h in broad_handlers(src)] == [("f", 8), ("f", 10), ("g", 15)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_catch_all_handlers(path):
    # errors are typed and never swallowed; the one exception is the CLI's
    # last resort, which reports an internal error as exit code 4
    found = broad_handlers(path.read_text())
    if path.name == "cli.py":
        last_resort = [h for func, h in found if func == "main"]
        assert len(last_resort) == 1 and ast.unparse(last_resort[0].body[-1]) == "return 4"
        found = [(func, h) for func, h in found if func != "main"]
    assert [f"{func} (line {h.lineno})" for func, h in found] == []


def readme_names(text: str) -> list[str]:
    """Backticked identifiers of ``text`` that contain ``_`` or ``.``, a
    trailing call ``(...)`` dropped; file names (.csv, .json, .py) are not
    identifiers."""
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", span)
        if match and re.search(r"[_.]", match[1]) and not match[1].endswith((".csv", ".json", ".py")):
            names.add(match[1])
    return sorted(names)


def unresolved_names(names, modules: dict) -> list[str]:
    """The ``names`` that are none of: a module of ``modules`` (name -> module)
    or a module-level name of one, each with any chain of attributes or
    dataclass fields after it; a member or field of a class the modules
    define, bare or off an instance (``spec.lambda1``); an importable module
    outside them, with any chain of attributes after it."""
    namespace = dict(modules)
    members = set()
    for module in modules.values():
        namespace.update(vars(module))
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members |= set(vars(obj)) | set(getattr(obj, "__annotations__", {}))

    def chain(obj, parts) -> bool:
        for part in parts:
            if not hasattr(obj, part) and part not in getattr(obj, "__annotations__", {}):
                return False
            obj = getattr(obj, part, None)
        return True

    def external(parts) -> bool:
        for i in range(len(parts), 0, -1):
            try:
                found = importlib.util.find_spec(".".join(parts[:i])) is not None
            except ModuleNotFoundError:             # a parent that is no package
                found = False
            if found:       # a module named whole is found, not imported
                return i == len(parts) or chain(importlib.import_module(".".join(parts[:i])), parts[i:])
        return False

    def resolves(name: str) -> bool:
        head, *rest = name.split(".")
        if head in namespace:
            return chain(namespace[head], rest)
        return head in members if not rest else rest[0] in members or external([head, *rest])

    return [name for name in names if not resolves(name)]


def test_scanner_resolves_readme_names():
    text = ("`fit_model(..., cov=...)` `mod.helper` `Point.x` `Point.norm()` `p.x` `y_only` "
            "`out.json` `run.py` `a b` `plain` `scipy.linalg` `dataclasses.fields` "
            "`mod.gone` `Point.z` `gone_name` `nomodule.at_all` `p.nothing`")
    assert readme_names(text) == sorted([
        "fit_model", "mod.helper", "Point.x", "Point.norm", "p.x", "y_only", "scipy.linalg",
        "dataclasses.fields", "mod.gone", "Point.z", "gone_name", "nomodule.at_all", "p.nothing",
    ])
    mod = types.ModuleType("mod")
    exec("from dataclasses import dataclass\n"
         "@dataclass\nclass Point:\n    x: float\n    y_only: float = 0.0\n"
         "    def norm(self):\n        pass\n"
         "def helper():\n    pass\ndef fit_model():\n    pass\n", mod.__dict__)
    assert unresolved_names(readme_names(text), {"mod": mod}) == [
        "Point.z", "gone_name", "mod.gone", "nomodule.at_all", "p.nothing",
    ]


# Backticked README names that are no name of the package, of tests/oracles.py
# or of an importable module, each with its reason
README_ONLY = {
    "RISKPREMIA_DATA": "the environment variable naming the empirical yield file",
    "ks_pvalue_vs_central": "a key of eigen_summary.json",
    "ru_maxrss": "the resource.getrusage field the benchmark reads peak memory from",
    "small_sum": "a column of eigen.csv",
}


def test_readme_names_resolve():
    import riskpremia
    import oracles

    modules = {info.name: importlib.import_module(f"riskpremia.{info.name}")
               for info in pkgutil.iter_modules(riskpremia.__path__)}
    names = readme_names((ROOT / "README.md").read_text())
    assert unresolved_names(names, {**modules, "oracles": oracles}) == sorted(README_ONLY)


def docstring_names(source: str) -> list[str]:
    """The ``readme_names`` of the double-backticked spans in the module,
    class and function docstrings of ``source``, less the parameters of its
    functions."""
    tree = ast.parse(source)
    spans, params = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            spans += re.findall(r"``([^`\n]+)``", ast.get_docstring(node, clean=False) or "")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params |= {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    return [name for name in readme_names(" ".join(f"`{span}`" for span in spans)) if name not in params]


def test_scanner_resolves_docstring_names():
    src = ('"""Module text: ``mod.helper``, ``gone_name`` and ``out.json``."""\n'
           "class Point:\n    \"\"\"Has ``Point.norm`` and ``Point.z``.\"\"\"\n"
           "def f(h0_grid, *rest, period_months=1):\n"
           "    \"\"\"Reads ``h0_grid``, ``period_months``, ``rest_of`` and ``f(x)``.\"\"\"\n"
           "    # ``in_a_comment`` is no docstring\n")
    names = docstring_names(src)
    assert names == sorted(["mod.helper", "gone_name", "Point.norm", "Point.z", "rest_of"])
    mod = types.ModuleType("mod")
    exec("class Point:\n    def norm(self):\n        pass\ndef helper():\n    pass\n", mod.__dict__)
    assert unresolved_names(names, {"mod": mod}) == ["Point.z", "gone_name", "rest_of"]


def test_docstring_names_resolve():
    # a docstring naming what the package no longer has is stale
    import riskpremia

    modules = {info.name: importlib.import_module(f"riskpremia.{info.name}")
               for info in pkgutil.iter_modules(riskpremia.__path__)}
    found = [f"{path.name}: {name}" for path in sorted((ROOT / "src" / "riskpremia").glob("*.py"))
             for name in unresolved_names(docstring_names(path.read_text()), modules)]
    assert found == []
