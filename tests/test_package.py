import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import secrid

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = Path(secrid.__file__).resolve().parent

# The public surface.  A name leaves it only by an edit here, which the
# change log then has to explain.
PUBLIC_NAMES = [
    "Field",
    "field_for",
    "prime_power",
    "IdCodeParams",
    "Identity",
    "Challenge",
    "MultiChallenge",
    "identity_from_bytes",
    "evaluate_tag",
    "generate_challenge",
    "generate_multi",
    "verify",
    "verify_multi",
    "code_size_bits",
    "capacity_diagnostics",
    "RsIdParams",
    "RsErrorQuote",
    "epsilon_2rs",
    "SecrecyParams",
    "Seed",
    "SecretChallenge",
    "sample_seed",
    "encrypt",
    "decrypt",
    "encrypt_tags",
    "decrypt_tags",
    "leakage_bound",
    "min_cipher_length",
    "split_leakage_budget",
    "ChannelModel",
    "LeakageReport",
    "exact_leakage",
    "exact_id_error",
    "PlanReport",
    "plan",
]


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in secrid.__all__ if not hasattr(secrid, name)]
    assert missing == []
    assert len(set(secrid.__all__)) == len(secrid.__all__)


def test_public_names_are_pinned():
    assert sorted(secrid.__all__) == sorted(PUBLIC_NAMES)


def test_dir_lists_every_export():
    lazy = [name for names in secrid._EXPORTS.values() for name in names]
    assert sorted(lazy) == sorted(secrid.__all__)
    assert set(secrid.__all__) <= set(dir(secrid))
    assert "__version__" in dir(secrid)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        secrid.no_such_name


def test_bare_import_loads_no_submodule():
    # the exports load on first use; a child process starts with none loaded
    probe = (
        "import sys, secrid; "
        "print(sorted(m for m in sys.modules if m.startswith('secrid.')))"
    )
    pythonpath = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_version_matches_pyproject():
    # the version is written twice: in pyproject.toml and in the package
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with (ROOT / "pyproject.toml").open("rb") as fh:
        assert secrid.__version__ == tomllib.load(fh)["project"]["version"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never mentions again.  A name listed in
    a literal __all__ counts as used: a package re-export.  (A derived
    __all__, as in secrid/__init__.py, re-exports nothing it imports.)"""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports_in_package():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}
