"""Run one `cpe` CLI command with every layer traced, then write the spans.

    python3 bench/traced_cli.py SPANS.npz [cpe arguments ...]

The program is imported from PYTHONPATH, as `python3 -m cpe.cli` would.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    from cpe import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
