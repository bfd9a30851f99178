#!/usr/bin/env python
"""Docs health check, run by the CI ``docs`` job.

Six gates:

1. every relative markdown link in README.md and docs/ resolves to an
   existing file, and anchored links (``file.md#heading``) resolve to a
   real heading in the target (GitHub-style slugs);
2. ``qckpt --help`` exits 0 for the top level and for every subcommand in
   the argparse tree (including nested ``daemon`` verbs);
3. every top-level subcommand is documented in docs/OPERATIONS.md, so the
   CLI surface and the operator guide cannot drift apart silently;
4. every backticked ``repro.…`` dotted name in README.md and docs/ imports
   or resolves to an attribute, so deleting a module cannot leave the docs
   pointing at nothing;
5. every ``$ qckpt …`` line inside a fenced block of README.md and docs/
   parses with the CLI's own argparse tree (parsed, never run), so a doc
   cannot show a verb or flag that does not exist;
6. the ``QCKPT_*`` environment variables that appear under ``src/`` and the
   rows of the environment table in docs/OPERATIONS.md are the same set, so
   that table stays the one place they are specified.

Exits non-zero with a per-failure report.  Run locally with::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#+\s+(.*)$", re.MULTILINE)
DOTTED_NAME_RE = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")
FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
SHELL_OPERATORS = {"|", "||", "&", "&&", ">", ">>", ";"}
ENV_VAR_RE = re.compile(r"QCKPT_[A-Z_]+")
ENV_ROW_RE = re.compile(r"^\| `(QCKPT_[A-Z_]+)` \|", re.MULTILINE)


def _slug(heading: str) -> str:
    """GitHub-style anchor slug of one heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _doc_files() -> list:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links() -> list:
    errors = []
    for doc in _doc_files():
        text = doc.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if "://" in target or target.startswith("mailto:"):
                continue  # external links are not this gate's business
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{doc.relative_to(REPO)}: broken link -> {target}"
                    )
                    continue
            else:
                resolved = doc
            if anchor and resolved.suffix == ".md":
                headings = {
                    _slug(h) for h in HEADING_RE.findall(
                        resolved.read_text(encoding="utf-8")
                    )
                }
                if anchor not in headings:
                    errors.append(
                        f"{doc.relative_to(REPO)}: dead anchor -> {target}"
                    )
    return errors


def _iter_command_paths(parser, prefix=()):
    yield prefix
    for action in parser._actions:  # noqa: SLF001 - argparse introspection
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _iter_command_paths(sub, prefix + (name,))


def check_help() -> list:
    from repro.cli import build_parser

    errors = []
    parser = build_parser()
    for path in _iter_command_paths(parser):
        argv = list(path) + ["--help"]
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                build_parser().parse_args(argv)
            errors.append(f"qckpt {' '.join(argv)}: did not exit")
        except SystemExit as exc:
            if exc.code not in (0, None):
                errors.append(
                    f"qckpt {' '.join(argv)}: exit {exc.code}\n"
                    f"{buffer.getvalue()}"
                )
    return errors


def check_operations_coverage() -> list:
    from repro.cli import build_parser

    operations = (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    errors = []
    parser = build_parser()
    for action in parser._actions:  # noqa: SLF001
        if isinstance(action, argparse._SubParsersAction):
            for name in action.choices:
                if f"qckpt {name}" not in operations:
                    errors.append(
                        f"docs/OPERATIONS.md does not document 'qckpt {name}'"
                    )
    return errors


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                target = getattr(target, attr)
        except AttributeError:
            return False
        return True
    return False


def check_dotted_names() -> list:
    errors = []
    for doc in _doc_files():
        names = set(DOTTED_NAME_RE.findall(doc.read_text(encoding="utf-8")))
        for name in sorted(names):
            if not _resolves(name):
                errors.append(
                    f"{doc.relative_to(REPO)}: `{name}` does not resolve"
                )
    return errors


def check_console_lines() -> list:
    from repro.cli import build_parser

    errors = []
    for doc in _doc_files():
        for block in FENCE_RE.findall(doc.read_text(encoding="utf-8")):
            for line in block.replace("\\\n", " ").splitlines():
                if not line.startswith("$ qckpt "):
                    continue
                argv = shlex.split(line[len("$ qckpt "):], comments=True)
                for i, token in enumerate(argv):
                    if token in SHELL_OPERATORS:  # the shell's, not qckpt's
                        argv = argv[:i]
                        break
                complaint = io.StringIO()
                try:
                    with contextlib.redirect_stderr(complaint):
                        build_parser().parse_args(argv)
                except SystemExit as exc:
                    if not exc.code:
                        continue  # --help
                    reason = complaint.getvalue().strip().splitlines()[-1:]
                    errors.append(
                        f"{doc.relative_to(REPO)}: `{line}` does not parse: "
                        + " ".join(reason)
                    )
    return errors


def check_env_table() -> list:
    in_src = set()
    for source in (REPO / "src").rglob("*.py"):
        in_src.update(ENV_VAR_RE.findall(source.read_text(encoding="utf-8")))
    operations = (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    rows = set(ENV_ROW_RE.findall(operations))
    return [
        f"docs/OPERATIONS.md: no environment-table row for `{name}` (src/ reads it)"
        for name in sorted(in_src - rows)
    ] + [
        f"docs/OPERATIONS.md: environment-table row `{name}` names a "
        "variable nothing under src/ mentions"
        for name in sorted(rows - in_src)
    ]


def main() -> int:
    errors = []
    for gate in (
        check_links,
        check_help,
        check_operations_coverage,
        check_dotted_names,
        check_console_lines,
        check_env_table,
    ):
        errors.extend(gate())
    if errors:
        print(f"docs check FAILED ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  - {error}")
        return 1
    docs = ", ".join(str(f.relative_to(REPO)) for f in _doc_files())
    print(f"docs check OK: links + anchors resolve in [{docs}]; "
          "every qckpt subcommand --help exits 0 and is documented; "
          "every `repro.…` name resolves; every `$ qckpt` console line "
          "parses; the QCKPT_* table matches src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
