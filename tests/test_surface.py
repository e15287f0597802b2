"""The public names and the functions the benchmark's traced run rebinds.

``perfbench/spans.py`` looks up every ``TARGETS`` entry by name and binds
each counter's arguments to its target's signature, so renaming a target
or one of the parameters a counter reads breaks traced runs without
failing any other test.  A public name stays only while the command line,
a bundled example, an acceptance criterion or the benchmark reaches it.
"""

import ast
import importlib
import inspect
import re
import sys
import textwrap
from pathlib import Path

import pytest

import qichan

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# the callers whose use keeps a name public
REACHERS = (
    ROOT / "src" / "qichan" / "cli.py",
    ROOT / "src" / "qichan" / "catalog.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted(PERFBENCH.rglob("*.py")),
)


@pytest.fixture(scope="module")
def spans():
    # the benchmark worker runs with perfbench/ first on sys.path
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def _arguments_read(counter) -> set[str]:
    """Keys of ``bound.arguments[...]`` subscripts in a counter's source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(counter)))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "arguments"
        and isinstance(node.slice, ast.Constant)
    }


def test_every_trace_target_resolves(spans):
    for module, attr, name, _ in spans.TARGETS:
        target = getattr(importlib.import_module(f"qichan.{module}"), attr, None)
        assert callable(target), f"{name}: qichan.{module}.{attr} is gone"


def test_counters_read_parameters_of_their_targets(spans):
    read_anywhere = set()
    for module, attr, name, counter in spans.TARGETS:
        if counter is None:
            continue
        params = inspect.signature(getattr(importlib.import_module(f"qichan.{module}"), attr)).parameters
        read = _arguments_read(counter)
        read_anywhere |= read
        assert read <= set(params), f"{name} reads {sorted(read - set(params))}, not parameters of {attr}"
    assert {"operators", "a", "x", "hs_tol", "max_iter"} <= read_anywhere


def test_every_public_name_resolves():
    missing = [name for name in qichan.__all__ if not hasattr(qichan, name)]
    assert not missing


def test_every_public_name_is_reached():
    text = "\n".join(path.read_text() for path in REACHERS)
    unreached = [name for name in qichan.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not unreached, f"no caller reaches {unreached}"
