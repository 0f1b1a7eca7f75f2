"""Stdlib link checker for the docs tree (CI's ``docs`` job).

Two classes of rot it catches:

- **relative links**: every ``[text](target)`` in ``docs/*.md`` and the
  README whose target is not an absolute URL or pure anchor must
  resolve on disk, relative to the file that links it, and a
  ``#fragment`` on a link into another markdown file must name one of
  that file's headings (GitHub slugs: lowercased, every character but
  letters, digits, spaces, ``-`` and ``_`` dropped, spaces turned into
  ``-``);
- **CLI examples**: inside fenced code blocks, a line invoking
  ``repro <word>`` (or ``python -m repro <word>``) must name a real
  subcommand.  The valid set is parsed from the live ``repro --help``
  text, so a renamed subcommand breaks the docs build instead of the
  reader.

No third-party markdown parser: the repo's docs stick to plain
CommonMark links and fenced blocks, which a few regexes cover.
"""

from __future__ import annotations

import re
from pathlib import Path

__all__ = ["check_links", "cli_subcommands", "doc_files"]

#: [text](target) — target captured without the optional "title" part
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: skip-list for link targets that are not filesystem paths
_EXTERNAL = ("http://", "https://", "mailto:", "#")

#: a fenced-block line invoking the repro CLI; group 1 is the first token
#: after the program name
_CLI_LINE = re.compile(
    r"^\s*\$?\s*(?:python\s+-m\s+repro|repro)\s+(?:--?\S+\s+\S+\s+)*(\S+)")

#: an ATX heading; group 1 is its text
_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*$")


def doc_files(root: str | Path) -> list[Path]:
    """The markdown set the checker covers: README + docs/*.md."""
    root = Path(root)
    files = sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() else []
    readme = root / "README.md"
    if readme.exists():
        files.insert(0, readme)
    return files


def cli_subcommands() -> set[str]:
    """Valid ``repro`` subcommands, parsed from the live ``--help`` text."""
    from repro.cli import build_parser

    help_text = build_parser().format_help()
    found: set[str] = set()
    for match in re.finditer(r"\{([a-z0-9_,-]+)\}", help_text):
        found.update(name for name in match.group(1).split(",") if name)
    return found


def _slug(heading: str) -> str:
    """GitHub's anchor for a heading's text."""
    return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    """Anchors of every heading in a markdown file, fenced blocks skipped."""
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence and (match := _HEADING.match(line)):
            anchors.add(_slug(match.group(1)))
    return anchors


def _check_file_links(path: Path, root: Path) -> list[str]:
    problems: list[str] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL):
                continue
            relative, _, fragment = target.partition("#")
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}:{lineno}: broken relative "
                    f"link {target!r} (resolved to {resolved})"
                )
            elif (
                fragment
                and resolved.suffix == ".md"
                and fragment not in _anchors(resolved)
            ):
                problems.append(
                    f"{path.relative_to(root)}:{lineno}: link {target!r} "
                    f"names no heading of {relative}"
                )
    return problems


def _check_file_cli(path: Path, root: Path, commands: set[str]) -> list[str]:
    problems: list[str] = []
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                  start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        match = _CLI_LINE.match(line)
        if match is None:
            continue
        word = match.group(1)
        if word.startswith("-") or word in ("|", "&&", ";"):
            continue  # bare `repro --help`-style or shell plumbing
        if word not in commands:
            problems.append(
                f"{path.relative_to(root)}:{lineno}: CLI example names "
                f"unknown subcommand {word!r} (known: "
                f"{', '.join(sorted(commands))})"
            )
    return problems


def check_links(root: str | Path) -> list[str]:
    """All doc problems found; empty means the docs tree is clean."""
    root = Path(root)
    commands = cli_subcommands()
    problems: list[str] = []
    for path in doc_files(root):
        problems.extend(_check_file_links(path, root))
        problems.extend(_check_file_cli(path, root, commands))
    return problems
