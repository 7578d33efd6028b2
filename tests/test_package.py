"""Package surface: lazily resolved public names, and the module layout
the benchmark's tracer relies on."""

import ast
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import disksig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_public_names_resolve_to_their_modules():
    for name in disksig.__all__:
        if name == "__version__":
            continue
        value = getattr(disksig, name)
        assert value.__module__.startswith("disksig.")
        assert getattr(sys.modules[value.__module__], name) is value
    namespace = {}
    exec("from disksig import *", namespace)
    assert set(disksig.__all__) <= set(namespace)


def unused_imports(source: str) -> list:
    """Names a module imports and never reads; a name listed in the
    module's __all__ counts as read, since it is re-exported."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = os.path.dirname(disksig.__file__)
    found = {}
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename)) as handle:
                unused = unused_imports(handle.read())
            if unused:
                found[filename] = unused
    assert found == {}
    assert unused_imports("import os\nimport sys as system\nfrom a import b, c\n"
                          "print(os, c)\n") == [(2, "system"), (3, "b")]


def unreached_functions(sources: dict, reached: set) -> list:
    """"file: name" of each module-level function in `sources` (filename
    -> source) that no code in `sources` names outside the function's own
    body and that is not in `reached`; dunder names are exempt."""
    defined = []
    named = set()
    for filename, source in sources.items():
        for top in ast.parse(source).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                defined.append((filename, own))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    named.add(name)
    return [f"{filename}: {name}" for filename, name in defined
            if name not in named and name not in reached
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_function_in_src_has_a_caller_outside_the_tests():
    """Code only the tests reach belongs in the tests (see tests/reference.py):
    every module-level function is named in the package itself, is a public
    export, or is one the benchmark's tracer wraps by name."""
    package = os.path.dirname(disksig.__file__)
    sources = {}
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename)) as handle:
                sources[filename] = handle.read()
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {attr for _, attr, _ in spans.FUNCTION_SPANS}
    assert unreached_functions(sources, set(disksig._EXPORTS) | traced) == []
    assert unreached_functions(
        {"a.py": "def f():\n    return f()\ndef g():\n    return 1\n"
                 "def __h__():\n    pass\nx = g()\n",
         "b.py": "import a\ny = a.k()\ndef k():\n    pass\ndef m():\n    pass\n"},
        {"m"}) == ["a.py: f"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        disksig.no_such_name
    assert not hasattr(disksig, "no_such_name")


# loads perfbench/spans.py by path and traces one `radius` run, in a
# fresh interpreter so the layers start out unexecuted, as in a benchmark run
_TRACE = """\
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import disksig.cli
tracer = spans.Tracer()
tracer.install()
try:
    status = disksig.cli.main(["radius", "--levels", "8", "--out", sys.argv[2]])
finally:
    tracer.uninstall()
calls = sum(1 for span in tracer.spans if span[0] == "hierarchy.a_coefficients")
# the tracer looks a_n up in hierarchy, which binds the radial route's own
restored = disksig.hierarchy.a_coefficients.__module__
print(json.dumps([status, calls, restored]))
"""


def test_benchmark_tracer_wraps_the_lazy_layers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE, os.path.join(ROOT, "perfbench", "spans.py"),
         str(tmp_path / "radius.csv")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, calls, restored = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert calls > 0
    assert restored == "disksig.radial"
