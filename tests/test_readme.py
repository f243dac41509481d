import importlib
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"
MODULES = ("units", "matter", "zstates", "phases", "cqed", "cli")


def test_every_module_name_in_the_readme_resolves():
    pattern = rf"`((?:{'|'.join(MODULES)})(?:\.\w+)+)`"
    names = set(re.findall(pattern, README.read_text(encoding="utf-8")))
    assert names, "README names no module attribute"
    missing = []
    for name in sorted(names):
        module, *path = name.split(".")
        target = importlib.import_module(f"eqls.{module}")
        for attr in path:
            target = getattr(target, attr, None)
        if target is None:
            missing.append(name)
    assert not missing, f"README.md names {missing}, which eqls does not define"
