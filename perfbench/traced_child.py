"""Run one partgrowth CLI invocation with every layer traced.

Usage: python perfbench/traced_child.py TRACE_OUT SUBCOMMAND [OPTIONS...]

Imports partgrowth.cli inside a span, wraps the layer functions, runs
cli.main(argv) with stdout captured, then writes the captured report to
stdout and the spans to TRACE_OUT as JSON.  The exit status is the one
cli.main returned.  The import path comes from PYTHONPATH, as for an
untraced invocation.
"""

import contextlib
import importlib
import io
import json
import sys
import time

from spans import Recorder


def main(trace_out, argv):
    recorder = Recorder()
    start = time.perf_counter()
    cli = recorder.call("cli.import", importlib.import_module, "partgrowth.cli")
    recorder.install()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            status = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        sys.stdout.write(captured.getvalue())
        trace = recorder.to_json_obj()
        trace["wall_s"] = wall
        with open(trace_out, "w", encoding="utf-8") as fp:
            json.dump(trace, fp)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
