"""Subpackages of cvradar reach each other through public names only, every
module uses what it imports, and every public tape op has a caller.

A module may import an underscore name (or from an underscore module) of
its own subpackage, but not of another one: dsp's private helpers stay
private to dsp, and so on for ctensor, cnn, fusion and traincli. Outside the
package __init__ files, which re-export, every imported name must be read in
its module. Every function ctensor.ops exports is used by some other
module, as ops.f or imported from ops. Each subpackage __init__ only
re-exports its modules' __all__ (from .module import *) or imports a module,
and every name a package exports is imported from it by some module under
src/, tests/ or perfbench/, or by README.md. No module imports concurrent,
not even inside a function. The checks read the source with ast.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

from cvradar.ctensor import ops

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "cvradar"
PACKAGES = sorted(path.parent.name for path in SRC.glob("*/__init__.py"))

# (module, name) -> why an import that nothing in its module reads stays
UNUSED_IMPORTS_ALLOWED = {
    ("traincli/pipeline.py", "read_rfc1"): "perfbench patches it; ROADMAP item 1",
}

# ops function -> why it stays exported although no other module uses it
UNUSED_OPS_ALLOWED = {
    name: "perfbench wraps it by name; ROADMAP item 3" for name in ("add", "crelu", "index0")
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


def concurrent_imports(source):
    """(line, module) for each import of concurrent or a submodule of it, anywhere
    in source, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] == "concurrent"]
    return found


def test_no_module_imports_concurrent():
    """The lane worker is one plain thread: concurrent.futures stays out of src/."""
    offenders = [f"{path.relative_to(SRC)}:{line}: {module}"
                 for path in sorted(SRC.rglob("*.py"))
                 for line, module in concurrent_imports(path.read_text(encoding="utf-8"))]
    assert not offenders, "concurrent imported:\n" + "\n".join(offenders)


def test_concurrent_import_checker():
    source = ("import os, concurrent.futures\ndef f():\n    from concurrent.futures import Future\n"
              "from .concurrent import x\nimport concurrently\n")
    assert concurrent_imports(source) == [(1, "concurrent.futures"), (3, "concurrent.futures")]


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


def ops_used(source):
    """Every ops function source names, as ops.f or through from ...ops import f."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ops":
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "ops":
            found |= {alias.name for alias in node.names}
    return found


def test_every_exported_op_has_a_caller():
    used = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() != "ctensor/ops.py":
            used |= ops_used(path.read_text(encoding="utf-8"))
    exported = {name for name in ops.__all__ if inspect.isfunction(getattr(ops, name))}
    unused = sorted(exported - used - UNUSED_OPS_ALLOWED.keys())
    assert not unused, f"ops exported but used by no other module: {unused}"
    stale = sorted(UNUSED_OPS_ALLOWED.keys() & used)
    assert not stale, f"allowed unused ops that now have a caller: {stale}"


def test_ops_use_checker():
    source = "from ..ctensor.ops import reshape\nops.cconv2d(x)\nf(ops.bmm)\ns.add(1)\nbmm(a, b)\n"
    assert ops_used(source) == {"reshape", "cconv2d", "bmm"}


def init_faults(package, source):
    """(line, statement) for each statement of a package __init__ other than its
    docstring, `from .module import *` and `from . import module`."""
    found = []
    for i, node in enumerate(ast.parse(source).body):
        if i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [alias.name for alias in node.names]
            if node.module and names == ["*"]:
                continue
            if not node.module and all((SRC / package / f"{n}.py").exists() for n in names):
                continue
        found.append((node.lineno, ast.unparse(node).splitlines()[0]))
    return found


def test_package_inits_only_reexport_their_modules():
    offenders = [
        f"{package}/__init__.py:{line}: {text}"
        for package in PACKAGES
        for line, text in init_faults(package, (SRC / package / "__init__.py").read_text("utf-8"))
    ]
    assert not offenders, "package __init__ names more than its modules:\n" + "\n".join(offenders)


def test_init_checker():
    source = '"""Doc."""\nfrom .tape import *\nfrom . import ops\nfrom .tape import halves\n__all__ = ["a"]\n'
    assert init_faults("ctensor", source) == [
        (4, "from .tape import halves"), (5, "__all__ = ['a']"),
    ]
    assert init_faults("ctensor", "from . import nothing_here\n") == [
        (1, "from . import nothing_here"),
    ]


def package_exports(package):
    """The names cvradar.<package> exports: the __all__ of each module its
    __init__ star-imports, and every name it imports explicitly."""
    names = set()
    for node in ast.walk(ast.parse((SRC / package / "__init__.py").read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    names |= set(importlib.import_module(f"cvradar.{package}.{node.module}").__all__)
                else:
                    names.add(alias.name)
    return names


def names_imported_from_packages(source, rel_path=None):
    """{(package, name)} for each name source imports from a cvradar subpackage
    itself, not from one of its modules: `from cvradar.<package> import name`, or
    `from ..<package> import name` in the module at rel_path under src/cvradar."""
    package = ("cvradar",) + Path(rel_path).parts[:-1] if rel_path else ()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        base = package[: len(package) - node.level + 1] if node.level else ()
        target = base + tuple(node.module.split(".") if node.module else ())
        if len(target) == 2 and target[0] == "cvradar":
            found |= {(target[1], alias.name) for alias in node.names}
    return found


def test_every_package_export_is_imported_from_its_package():
    imported = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            rel = path.relative_to(SRC).as_posix()
            imported |= names_imported_from_packages(path.read_text("utf-8"), rel)
    for path in sorted((REPO / "tests").rglob("*.py")) + sorted((REPO / "perfbench").rglob("*.py")):
        imported |= names_imported_from_packages(path.read_text("utf-8"))
    for block in re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text("utf-8"), re.S):
        imported |= names_imported_from_packages(block)
    unused = sorted(
        f"{package}.{name}" for package in PACKAGES for name in package_exports(package)
        if (package, name) not in imported
    )
    assert not unused, f"exported but imported from the package by nothing: {unused}"


def test_package_import_checker():
    source = "from ..cnn import init_conv\nfrom ..cnn.layers import init_head\nfrom .metrics import x\n"
    assert names_imported_from_packages(source, "traincli/train.py") == {("cnn", "init_conv")}
    source = "from cvradar.dsp import read_rfc1\nfrom cvradar.traincli.cli import main\n"
    assert names_imported_from_packages(source) == {("dsp", "read_rfc1")}
