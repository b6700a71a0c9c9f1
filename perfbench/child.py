"""Helper process for work that must run in a fresh interpreter.

    python3 perfbench/child.py <module> <args...>

imports ``<module>`` from this directory, calls its ``child_main(args)``
(or ``child_setup(args)``) and prints the returned JSON object as the
last line of standard output.  The parent sets the environment (cache
directories, ``PYTHONPATH``).
"""

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    module = importlib.import_module(sys.argv[1])
    fn = getattr(module, "child_main", None) or module.child_setup
    out = fn(sys.argv[2:])
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
