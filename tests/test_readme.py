"""The README's module map names every module of the package, and its run config is the CLI's."""

import json
import re
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
