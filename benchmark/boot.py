"""Run one ``flowrec`` CLI command with the benchmark's spans installed.

    python benchmark/boot.py SPANS_OUT -- <flowrec arguments...>

Installs the same wrappers as the in-process traced mode, calls
``flowrec.cli.main``, then writes the spans to SPANS_OUT. SIGTERM is turned
into the KeyboardInterrupt on which ``flowrec serve`` shuts down, after which
the spans are written as for any command.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: boot.py SPANS_OUT -- <flowrec arguments...>", file=sys.stderr)
        return 1
    from flowrec import cli

    signal.signal(signal.SIGTERM, _interrupt)
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(argv[0], process=argv[2] if len(argv) > 2 else "")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
