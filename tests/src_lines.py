"""Print the non-blank, non-comment lines of each ``src/plasmonstack`` module.

    python tests/src_lines.py [SRC_DIR]

Counts, per ``.py`` file under ``SRC_DIR/plasmonstack`` (default: the
``src`` directory beside this file's), the lines that hold something other
than whitespace and do not start with ``#`` once indented; docstring lines
count.  Prints one ``count  relative/path`` line per module, sorted by path,
then the total.  The name has no ``test_`` prefix, so pytest does not
collect it.
"""

from __future__ import annotations

import os
import sys


def count_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))


def main(argv):
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 1
    src = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    package = os.path.join(src, "plasmonstack")
    if not os.path.isdir(package):
        print(f"{package} is not a directory", file=sys.stderr)
        return 1
    counts = {}
    for root, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                counts[os.path.relpath(path, src)] = count_lines(path)
    for path in sorted(counts):
        print(f"{counts[path]:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
