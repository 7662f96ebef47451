#!/usr/bin/env python3
"""Counts code lines under src/: the number ROADMAP's Shrink items use.

A code line is a non-blank line of a src/**/*.cpp or src/**/*.hpp file
after two strips:
  * every /* ... */ block comment is removed (a block spanning lines
    leaves nothing of those lines but the code around it);
  * every line whose first non-blank characters are // is dropped.
Trailing // comments after code do not change the count.

Usage: scripts/count_src_lines.py [repo_root]   (default: this checkout)
Prints the total, then one line per top-level src/ directory.
"""
import pathlib
import re
import sys

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)


def code_lines(text):
    text = BLOCK_COMMENT.sub("", text)
    return sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("//")
    )


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    per_dir = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cpp", ".hpp") or not path.is_file():
            continue
        top = path.relative_to(src).parts[0]
        n = code_lines(path.read_text(encoding="utf-8", errors="replace"))
        per_dir[top] = per_dir.get(top, 0) + n
    print("total %d" % sum(per_dir.values()))
    for name in sorted(per_dir):
        print("  %-10s %6d" % (name, per_dir[name]))


if __name__ == "__main__":
    main()
