"""The benchmark scripts reach the library only through package attributes
(bf.<name> in perfbench/run.py, BF.<name> in perfbench/selftest.py).
Removing or renaming one of those names breaks the benchmark, and
selftest.py is too slow for tier-1, so the names are checked here."""
import re
from pathlib import Path

import pytest

import braceforge

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("script, alias", [("run.py", "bf"),
                                           ("selftest.py", "BF")])
def test_benchmark_names_exist_in_the_package(script, alias):
    text = (PERFBENCH / script).read_text()
    names = set(re.findall(rf"\b{alias}\.([A-Za-z_]\w*)", text))
    assert names, f"no {alias}.<name> found in {script}"
    assert sorted(n for n in names if not hasattr(braceforge, n)) == []
