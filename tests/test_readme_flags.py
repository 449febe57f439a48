"""Every command-line flag README names is an option of ``stepbcd``, and
every long option of ``stepbcd`` but ``--help`` is named in README, so
README can neither advertise a flag the parser has dropped nor leave one
out.

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


def undocumented_options(text, parser):
    """The long options of ``parser`` and its subcommands, ``--help`` aside, that ``text`` never names."""
    named = set(named_flags(text))
    return sorted(o for o in parser_options(parser) if o.startswith("--") and o != "--help" and o not in named)


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


def test_every_option_is_named_in_readme():
    assert undocumented_options((ROOT / "README.md").read_text(), build_parser()) == []


def test_guard_reports_an_undocumented_option():
    parser = argparse.ArgumentParser()
    parser.add_argument("--verbose", "-v")
    run = parser.add_subparsers().add_parser("run")
    run.add_argument("--train-n")
    run.add_argument("--no-clamp", dest="clamp")
    run.add_argument("--test-n")
    text = "`-v`, `--verbose` and `--{split}-n`\npip install --no-clamp"
    assert undocumented_options(text, parser) == ["--no-clamp"]
    assert undocumented_options(text + "\n`run --no-clamp`", parser) == []
