"""The README's python example runs, its library table names only what the
library has, and its CLI section names exactly the flags the parser has."""

import argparse
import importlib
import math
import re
from pathlib import Path

from dpclip.harness.cli import build_parser
from dpclip.losses import Problem

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert math.isfinite(float(capsys.readouterr().out))


def library_table_rows(text):
    """(module, contents) of each row of the "Library overview" table."""
    section = text.split("## Library overview\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(dpclip(?:\.\w+)*)` \| (.*) \|$", section, re.M)


def test_readme_library_table_names_exist():
    # every backticked plain identifier in a row is an attribute of that
    # row's module or of Problem, so a deleted name cannot stay in the docs
    rows = library_table_rows(README.read_text(encoding="utf-8"))
    assert [module for module, _ in rows] == [
        "dpclip.privacy", "dpclip.clipping", "dpclip.losses", "dpclip.lipschitz",
        "dpclip.optimizer", "dpclip.parallel", "dpclip.harness",
    ]
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for token in re.findall(r"`([^`]+)`", contents):
            if re.fullmatch(r"[A-Za-z_]\w*", token, re.ASCII) and not (
                hasattr(module, token) or hasattr(Problem, token)
            ):
                missing.append(f"{module_name}: {token}")
    assert not missing


def test_readme_cli_flags_match_the_parser():
    # a retired flag cannot stay in the docs, nor a new one go unmentioned
    section = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", section))
    (commands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        flag for sub in commands.choices.values() for action in sub._actions
        for flag in action.option_strings
    } - {"-h", "--help"}
    assert documented == options
