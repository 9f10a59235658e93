"""Subpackages of cvradar reach each other through public names only.

A module may import an underscore name (or from an underscore module) of
its own subpackage, but not of another one: dsp's private helpers stay
private to dsp, and so on for ctensor, cnn, fusion and traincli. The check
reads every module under src/cvradar with ast.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvradar"


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
