"""Start the sweep service for the ``serve-mix`` workload.

    python -u perfbench/serve_boot.py [--trace SPANS.jsonl]

Binds a free local port, prints the service's ``listening on`` line and
serves until SIGINT.  With ``--trace`` it first wraps the same library
callables as the in-process traced runs, plus the serving entry points,
and writes the spans when the server stops.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="SPANS.jsonl")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from perfbench.layers import SERVING_TARGETS, TARGETS
        from perfbench.tracer import Tracer, install, write_jsonl

        tracer = Tracer()
        install(tracer, TARGETS + SERVING_TARGETS)
    from repro.serving import ServiceConfig, serve

    try:
        serve(host="127.0.0.1", port=0, config=ServiceConfig())
    finally:
        if tracer is not None:
            write_jsonl(tracer.spans, args.trace)


if __name__ == "__main__":
    main()
