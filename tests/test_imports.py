"""Every name a package module imports is read somewhere in that module.

A name counts as read when the module's code loads it anywhere, in any
scope. The ``__future__`` switches bind no name and are not counted; the
package re-exports its public names by ``__getattr__``, not by import.
"""
import ast

import pytest

from test_layering import ALLOWED, SOURCE


def unread_imports(source: str) -> set:
    """The names ``source``'s import statements bind that it never reads."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return bound - read


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_reads_every_name_it_imports(module):
    source = (SOURCE / f"{module}.py").read_text(encoding="utf-8")
    assert unread_imports(source) == set()


@pytest.mark.parametrize("source, unread", [
    ("import os\n", {"os"}),
    ("import os.path\nos.sep\n", set()),
    ("import numpy as np\n", {"np"}),
    ("from a import b, c as d\nb()\n", {"d"}),
    ("from __future__ import annotations\n", set()),
    ("def f():\n    import math\n    return math.pi\n", set()),
    ("from a import b\nb = 1\n", {"b"}),  # a rebinding is no read
])
def test_the_check_finds_each_unread_name(source, unread):
    assert unread_imports(source) == unread
