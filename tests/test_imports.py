"""No module of the package imports a name it does not use.

No linter runs on this repository, so this test stands in for pyflakes'
F401.  An imported name counts as used when the module reads it anywhere, when
``__init__`` re-exports it through ``__all__``, or when its import line is
marked ``# noqa: F401`` and the benchmark's tracer still wraps it by module
attribute, which no code in the module reads: ``WRAPPED`` in
``perfbench/spans.py`` lists it for that module.  So the exemption ends with
the span, and the import must go with it.
"""

import ast
from pathlib import Path

import pytest

import hqvq

MODULES = sorted(Path(hqvq.__file__).parent.glob("*.py"))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrapped_names(source: str) -> dict[str, set[str]]:
    """The names ``WRAPPED`` in ``source`` lists, by module, read with ``ast`` (nothing is imported).

    Each entry of ``WRAPPED`` is a tuple (module, "name", ...) whose module is a bare name.
    """
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            wrapped = {}
            for entry in node.value.elts:
                module, name = entry.elts[:2]
                wrapped.setdefault(module.id, set()).add(name.value)
            return wrapped
    raise AssertionError("no WRAPPED assignment")


def unused_imports(source: str, wrapped=frozenset()) -> list[str]:
    """The names ``source`` imports and never reads, with their lines, in line order.

    A name on a ``# noqa: F401`` import line counts as used only when it is in ``wrapped``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not (marked and name in wrapped):
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # __all__ re-exports its names
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{name} (line {line})" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    wrapped = wrapped_names(SPANS.read_text(encoding="utf-8")).get(path.stem, set())
    assert unused_imports(path.read_text(encoding="utf-8"), wrapped) == []


def test_an_unused_import_is_caught():
    source = "import math\nfrom os import path, sep\nfrom sys import argv  # noqa: F401\nprint(sep)\n"
    assert unused_imports(source, {"argv"}) == ["math (line 1)", "path (line 2)"]
    # the marker exempts a name only while the tracer wraps it
    assert unused_imports(source) == ["math (line 1)", "path (line 2)", "argv (line 3)"]


def test_wrapped_names_are_read_by_module():
    source = "WRAPPED = (\n    (kernels, 'dist_to_all', 'k', None),\n    (encoder, 'measure', 'g', None),\n)\n"
    assert wrapped_names(source) == {"kernels": {"dist_to_all"}, "encoder": {"measure"}}


def test_all_re_exports_count_as_used():
    source = "from .codebook import Codebook, distance\n__all__ = ['Codebook']\n"
    assert unused_imports(source) == ["distance (line 1)"]
