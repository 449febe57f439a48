"""Every command-line flag README names is an option of ``stepbcd``, so
README cannot advertise a flag the parser has dropped.

A flag is ``--`` followed by a lowercase word; ``{split}`` in one stands
for both ``train`` and ``test``.  Lines that run ``pip`` name pip's own
flags and are skipped.
"""

import argparse
import re
from pathlib import Path

from stepbcd.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
FLAG = re.compile(r"(?<![\w-])--[a-z{][a-z0-9{}-]*")


def named_flags(text):
    """The flags ``text`` names outside ``pip`` lines, ``{split}`` expanded, each once, in order."""
    flags = []
    for line in text.splitlines():
        if not re.search(r"\bpip\b", line):
            flags += [flag.replace("{split}", split) for flag in FLAG.findall(line) for split in ("train", "test")]
    return list(dict.fromkeys(flags))


def parser_options(parser):
    """Every option string of ``parser`` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= parser_options(sub)
    return options


def unknown_flags(text, parser):
    """The flags ``text`` names that no command of ``parser`` takes."""
    options = parser_options(parser)
    return [flag for flag in named_flags(text) if flag not in options]


def test_every_flag_readme_names_is_an_option():
    text = (ROOT / "README.md").read_text()
    assert len(named_flags(text)) >= 20
    assert unknown_flags(text, build_parser()) == []


def test_guard_flags_an_unknown_flag():
    parser = argparse.ArgumentParser()
    parser.add_argument("--verbose")
    sub = parser.add_subparsers()
    run = sub.add_parser("run")
    run.add_argument("--train-n")
    run.add_argument("--test-n")
    sub.add_parser("show").add_argument("--split-size")
    text = ("`run --train-n 5` and `--{split}-n`\n"
            "pip install --no-build-isolation -e .\n"
            "`show --split-size 2 --verbose`, `--split both`, a---b, `--{split}-csv`")
    assert named_flags(text) == ["--train-n", "--test-n", "--split-size", "--verbose", "--split",
                                 "--train-csv", "--test-csv"]
    assert unknown_flags(text, parser) == ["--split", "--train-csv", "--test-csv"]
