from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_module_table_names_each_module_once():
    rows = re.findall(r"^\| `ergostep\.(\w+)` \|", (ROOT / "README.md").read_text(), re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "ergostep").glob("*.py")} - {"__init__"}
    counts = Counter(rows)
    assert set(counts) == modules, (sorted(set(counts) - modules), sorted(modules - set(counts)))
    assert all(n == 1 for n in counts.values()), counts


def test_readme_config_block_lists_every_key_and_weight_kind():
    from ergostep.harness import CONFIG_KEYS
    from ergostep.schedules import WEIGHT_KINDS

    (block,) = re.findall(r"^```ini\n(.*?)^```", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL)
    keys = [ln.split("=", 1)[0].strip() for ln in block.splitlines()]
    assert sorted(keys) == sorted(CONFIG_KEYS)
    (line,) = [ln for ln in block.splitlines() if ln.startswith("weight.kind")]
    assert tuple(kind.strip() for kind in line.split("#", 1)[1].split("|")) == WEIGHT_KINDS
