"""Source hygiene for src/nccheck: every imported name is used.

No linter ships with the project, so this parses each module with ``ast``.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nccheck")

# (module, name) pairs imported on purpose without a use in the module.
ALLOWED_UNUSED = {
    # perfbench's tracer test asserts that product binds commutes_with_all
    # (test_tracer_rebinds_every_import_by_name) until ROADMAP item 2 makes it
    # check only the modules that call the function
    ("product", "commutes_with_all"),
}


def _modules():
    return sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))


def unused_imports(source):
    """Names bound by the module's imports that nothing else in it reads.

    ``from __future__`` and star imports bind nothing to check.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    # ``a.b`` reads ``a``: an attribute chain ends in an ast.Name
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_detected():
    src = "import os\nimport numpy as np\nfrom a import b, c as d\nx = np.zeros(b)\n"
    assert unused_imports(src) == ["d", "os"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", _modules())
def test_no_unused_imports(module):
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        unused = unused_imports(fh.read())
    unexpected = [n for n in unused if (module, n) not in ALLOWED_UNUSED]
    assert not unexpected, f"nccheck.{module} imports but never uses {unexpected}"


def test_allow_list_entries_are_still_unused():
    # an allowed import that gained a use (or vanished) leaves a stale entry
    for module, name in sorted(ALLOWED_UNUSED):
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            assert name in unused_imports(fh.read()), (module, name)
