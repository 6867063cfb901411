"""Print the sha256 of every file the presets write.

    python tests/preset_digest.py SRC_DIR OUT_DIR

Runs each preset in ``plasmonstack.presets.PRESETS`` through
``plasmonstack.cli.main`` with ``SRC_DIR`` first on ``sys.path``, writing
into ``OUT_DIR/<preset>``, and prints one ``sha256  relative/path`` line per
file, sorted by path.  Two source trees write the same bytes when their
listings are equal::

    python tests/preset_digest.py old/src /tmp/old > old.txt
    python tests/preset_digest.py src /tmp/new > new.txt
    diff old.txt new.txt

Exits 1 if OUT_DIR already holds files, since every file under it is
listed and a stale one would keep its old hash, or if a preset run exits
nonzero.  The name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    src, out = (os.path.abspath(a) for a in argv)
    if os.path.exists(out) and (not os.path.isdir(out) or os.listdir(out)):
        print(f"{out} already exists and is not an empty directory", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    from plasmonstack import cli
    from plasmonstack.presets import PRESETS

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"plasmonstack imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    for name, preset in PRESETS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([preset.command, "--preset", name, "--out", os.path.join(out, name)])
        if code != 0:
            print(f"preset {name} exited {code}", file=sys.stderr)
            return 1
    paths = sorted(
        os.path.relpath(os.path.join(root, f), out) for root, _dirs, files in os.walk(out) for f in files
    )
    for path in paths:
        with open(os.path.join(out, path), "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
