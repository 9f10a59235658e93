"""Subpackages of cvradar reach each other through public names only, and
every module uses what it imports.

A module may import an underscore name (or from an underscore module) of
its own subpackage, but not of another one: dsp's private helpers stay
private to dsp, and so on for ctensor, cnn, fusion and traincli. Outside the
package __init__ files, which re-export, every imported name must be read in
its module. The checks read every module under src/cvradar with ast.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvradar"

# (module, name) -> why an import that nothing in its module reads stays
UNUSED_IMPORTS_ALLOWED = {
    ("traincli/pipeline.py", "read_rfc1"): "perfbench patches it; ROADMAP item 1",
}


def private_cross_imports(rel_path, source):
    """(line, imported name) for each private name the module at rel_path
    (relative to src/cvradar) imports from another cvradar subpackage."""
    parts = Path(rel_path).parts
    package = ("cvradar",) + parts[:-1]
    own = package[:2]
    found = []
    for node in ast.walk(ast.parse(source, str(rel_path))):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            target = base + tuple(node.module.split(".") if node.module else ())
            names = [target + (alias.name,) for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [tuple(alias.name.split(".")) for alias in node.names]
        else:
            continue
        for name in names:
            if name[:1] != ("cvradar",) or name[:2] == own:
                continue
            if any(p.startswith("_") and p != "__init__" for p in name[1:]):
                found.append((node.lineno, ".".join(name)))
    return found


def test_no_module_imports_another_subpackages_private_names():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        for line, name in private_cross_imports(rel, path.read_text(encoding="utf-8")):
            offenders.append(f"{rel}:{line}: {name}")
    assert not offenders, "private names imported across subpackages:\n" + "\n".join(offenders)


def test_checker_flags_cross_imports_only():
    cross = "from ..dsp.dataset import _check_samples, load_samples\nimport cvradar.ctensor.ops._x\n"
    assert private_cross_imports("traincli/pipeline.py", cross) == [
        (1, "cvradar.dsp.dataset._check_samples"), (2, "cvradar.ctensor.ops._x"),
    ]
    assert private_cross_imports("traincli/pipeline.py", "from ..dsp import _dataset\n") == [
        (1, "cvradar.dsp._dataset"),
    ]
    same = "from .dataset import _read_json\nfrom ..dsp.cube import _MAGIC\n"
    assert private_cross_imports("dsp/scenes.py", same) == []
    assert private_cross_imports("traincli/cli.py", "from ..dsp import read_rfc1\n") == []


def unused_imports(rel_path, source):
    """(line, name) for each name the module imports and never reads."""
    tree = ast.parse(source, str(rel_path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_module_uses_its_imports():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(SRC).as_posix()
        found |= {(rel, name) for _, name in unused_imports(rel, path.read_text(encoding="utf-8"))}
    offenders = sorted(found - UNUSED_IMPORTS_ALLOWED.keys())
    assert not offenders, "imported but never used:\n" + "\n".join(f"{m}: {n}" for m, n in offenders)
    stale = sorted(UNUSED_IMPORTS_ALLOWED.keys() - found)
    assert not stale, f"allowed unused imports that are gone or now used: {stale}"


def test_unused_import_checker():
    source = "import os\nimport numpy as np\nimport a.b\nfrom .m import c, d as e\nnp.zeros(a.b.x(e))\n"
    assert unused_imports("m.py", source) == [(1, "os"), (4, "c")]
