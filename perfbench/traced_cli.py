"""Run one ``maschke_kit.cli`` command with span tracing.

Usage: python3 perfbench/traced_cli.py TRACE CLI-ARGS...

Behaves like ``python -m maschke_kit.cli CLI-ARGS...`` (same output and exit
code) and writes the spans and their aggregate to TRACE when the command
returns.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    from maschke_kit import cli
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
