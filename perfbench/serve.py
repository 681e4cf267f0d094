"""Start ``repro serve`` for the benchmark, optionally with layer tracing.

Usage::

    python3 perfbench/serve.py [--layers DIR] serve --workers 2 ...

Everything from ``serve`` on is handed to the program's own command
line.  With ``--layers``, the layers of this process (role ``server``)
and of its pool workers (role ``worker``) are traced and written to
``DIR`` when each process ends (see ``layers.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.__main__ import main as repro_main

    trace = None
    if argv[:1] == ["--layers"]:
        import layers

        trace = layers.install(argv[1], "server")
        argv = argv[2:]
    code = repro_main(argv)
    if trace is not None:
        trace.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
