"""Documentation health: every ``python -m repro`` command quoted in the
markdown docs or run by the CI workflow must still parse with the real
CLI parser and name registered scenarios and demand sets, so a removed
subcommand or a renamed cell breaks the build, not the reader's
copy-paste."""

import argparse
import contextlib
import io
import os
import shlex

import pytest

from repro.__main__ import build_parser
from repro.alloc import demand_set_names
from repro.scenarios import registry

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Files whose ``python -m repro`` commands are checked.
SOURCES = ["README.md", os.path.join(".github", "workflows", "ci.yml")] + \
    sorted(os.path.join("docs", name)
           for name in os.listdir(os.path.join(REPO_ROOT, "docs"))
           if name.endswith(".md"))

PREFIX = "python -m repro"


def _commands(path):
    """Yield ``(line number, argv)`` for each command in ``path``.

    Shell line continuations are joined; a command ends at a markdown
    backtick, a comment or a shell operator (pipe, redirect, the
    closing parenthesis of a command substitution).
    """
    with open(os.path.join(REPO_ROOT, path)) as handle:
        lines = handle.read().splitlines()
    index = 0
    while index < len(lines):
        number, line = index + 1, lines[index]
        while line.endswith("\\") and index + 1 < len(lines):
            index += 1
            line = line[:-1] + " " + lines[index]
        index += 1
        start = line.find(PREFIX)
        while start >= 0:
            text = line[start + len(PREFIX):].split("`", 1)[0]
            lexer = shlex.shlex(text, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            lexer.commenters = "#"
            argv = []
            for token in lexer:
                if set(token) <= set(lexer.punctuation_chars):
                    break
                argv.append(token)
            yield number, argv
            start = line.find(PREFIX, start + len(PREFIX))


def _unknown_names(args):
    """Registry names the parsed command refers to but which do not
    exist.  Values computed by the shell (``$(...)``) are not checked."""
    scenarios, demand_sets = [], []
    if args.command in ("scenario", "trace", "profile") \
            and getattr(args, "action", "run") == "run" and args.name:
        scenarios.append(args.name)
    names = getattr(args, "names", None)
    if names and "$" not in names:
        scenarios += [name.strip() for name in names.split(",")
                      if name.strip()]
    if args.command == "alloc" and args.name:
        demand_sets.append(args.name)
    if args.command == "synth" and args.demand_set:
        demand_sets.append(args.demand_set)
    known = demand_set_names()
    return ([name for name in scenarios
             if name not in registry.SCENARIOS] +
            [name for name in demand_sets if name not in known])


def _problem(parser, commands, argv):
    """Why ``argv`` is not a working command, or None."""
    if not argv:
        return "no subcommand"
    if len(argv) == 1 and argv[0] in commands:
        return None  # a command group named in prose
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit:
        return stderr.getvalue().strip().splitlines()[-1]
    unknown = _unknown_names(args)
    return f"unknown name(s) {unknown}" if unknown else None


def test_sources_quote_commands():
    assert any(any(_commands(path)) for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES)
def test_quoted_commands_parse(path):
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)
                    ).choices
    problems = []
    for number, argv in _commands(path):
        problem = _problem(parser, commands, argv)
        if problem:
            problems.append(f"{path}:{number}: {PREFIX} {' '.join(argv)}"
                            f" -> {problem}")
    assert not problems, "\n".join(problems)
