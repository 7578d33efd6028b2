"""Package surface: lazily resolved public names, and the module layout
the benchmark's tracer relies on."""

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
restored = disksig.cli.hierarchy.a_coefficients.__module__
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
    assert restored == "disksig.hierarchy"
