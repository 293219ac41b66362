"""Set-up probe: a fresh interpreter imports kopula and runs one warm-up op.

    python3 perfbench/probe.py ROOT ARGV_JSON EXPECTED_CODE

run.py times the whole process from outside, so interpreter start-up,
``import kopula`` and the first op all count towards ``setup_s``.
Exits 0 when the op returned the expected code.
"""

import contextlib
import io
import json
import os
import sys


def main() -> int:
    root, argv, expected = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, os.path.join(root, "src"))
    from kopula import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return 0 if code == expected else 1


if __name__ == "__main__":
    sys.exit(main())
