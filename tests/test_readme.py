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
