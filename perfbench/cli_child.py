"""Run the leftcurtain CLI with module spans recorded.

    PERFBENCH_TRACE_FILE=spans.json python3 perfbench/cli_child.py <cli arguments>

Traced cli-fresh runs start this in place of `python -m leftcurtain.cli`.
Standard output and the exit code are the CLI's own; the spans and counts
go to the file.
"""

import json
import os
import sys

import leftcurtain.cli

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return leftcurtain.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE_FILE"], "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main())
