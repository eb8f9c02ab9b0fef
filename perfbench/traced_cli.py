"""Run one spanwitness command with spans recorded inside the process.

    python perfbench/traced_cli.py SPANS_OUT <spanwitness arguments...>

Imports the package, installs the tracer, runs the CLI's `main`, writes the
spans to SPANS_OUT when the command ends and exits with the CLI's code.
"""

import sys

import spanwitness.cli

from tracing import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return spanwitness.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
