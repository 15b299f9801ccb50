"""The README's module map names every module of the package, its run config is the CLI's,
and its commands and imports name what the package has."""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

from flowrec import cli

ROOT = Path(__file__).resolve().parents[1]


def test_module_map_has_a_row_for_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = sorted(p.stem for p in (ROOT / "src" / "flowrec").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    assert modules
    missing = [name for name in modules if f"| `flowrec.{name}` |" not in readme]
    assert not missing, f"README module map has no row for {missing}"


def test_run_config_block_is_the_cli_default():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, flags=re.S)
    assert json.loads(re.sub(r"//.*", "", block)) == cli.DEFAULT_CONFIG


def test_every_flowrec_command_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = "".join(re.findall(r"```bash\n(.*?)```", readme, flags=re.S)).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("flowrec ")]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a usage error raises ConfigError


def test_every_name_the_python_block_imports_exists():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    names = [(node.module, alias.name) for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) >= 11
    missing = [f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"the README imports names the package does not have: {missing}"
