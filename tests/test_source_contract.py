"""Every setting that changes a run must be an option that config_digest
covers, so no module of the package may read the process environment."""

import ast
import pathlib

import ueprobe

PACKAGE = pathlib.Path(ueprobe.__file__).parent
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_NAMES for alias in node.names):
                yield node.lineno


def test_no_module_reads_the_environment():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [f"{p.name}:{line}" for p in modules for line in _environment_reads(p)]
    assert offenders == []
