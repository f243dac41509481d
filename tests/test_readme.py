import argparse
import importlib
import re
from pathlib import Path

from eqls.cli import build_parser

README = Path(__file__).parents[1] / "README.md"
MODULES = ("units", "matter", "zstates", "phases", "cqed", "cli")
OPTION = r"--[a-z0-9-]+"


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


def test_every_test_id_in_the_readme_exists():
    # the figures README states name the test that enforces each one
    ids = set(re.findall(r"`tests/(test_\w+)\.py((?:::\w+)+)`",
                         README.read_text(encoding="utf-8")))
    assert ids, "README names no test"
    missing = []
    for module, path in sorted(ids):
        target = importlib.import_module(module)
        for attr in path.split("::")[1:]:
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"tests/{module}.py{path}")
    assert not missing, f"README.md names {missing}, which the tests do not define"


def test_command_synopsis_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    common = set(re.findall(OPTION,
                            re.search(r"Common options:(.*?)\.\s", text, re.S).group(1)))
    listed: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("eqls "):
            command = line.split()[1]
            listed[command] = set()
        listed[command] |= set(re.findall(OPTION, line))    # continuation lines too
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, options in listed.items():
        known = set(subparsers.choices[command]._option_string_actions)
        assert options <= known, f"README lists {sorted(options - known)} under {command}"
    for command in ("table1", "table2", "states", "phase-diagram", "classify"):
        known = {o for o in subparsers.choices[command]._option_string_actions
                 if o.startswith("--") and o != "--help"}
        missing = known - listed[command] - common
        assert not missing, f"README's synopsis of {command} leaves out {sorted(missing)}"
