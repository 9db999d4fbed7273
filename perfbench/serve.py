"""Launch ``repro serve`` with the benchmark's tracing wrappers installed.

Usage: ``python3 perfbench/serve.py SPANS.json [serve arguments...]``.
Spans are written to ``SPANS.json`` when the server shuts down.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path = sys.argv[1]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as repro_main

    code = repro_main(["serve", *sys.argv[2:]])
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
