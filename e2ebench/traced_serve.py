"""``gatest serve`` with the benchmark's layer shims installed.

Usage: python3 e2ebench/traced_serve.py --dump FILE -- <gatest serve args>

Runs the service exactly as ``gatest serve`` does, in this process, and
after the service shuts down writes the layer aggregates as JSON to
``--dump``.  Process-tier workers are separate processes and stay
untraced; their run time reaches the dump through the
``generator.run`` span each run job returns.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracer import Tracer, install_service


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    tracer = Tracer()
    queue_waits: list = []
    tier_spans: list = []
    install_service(tracer, queue_waits, tier_spans)
    from repro.cli import main as gatest

    status = gatest(["serve"] + serve_args)
    with open(args.dump, "w", encoding="utf-8") as handle:
        json.dump({
            "total": dict(tracer.total), "self": dict(tracer.self_time),
            "calls": dict(tracer.calls), "counts": dict(tracer.counts),
            "queue_waits": queue_waits, "tier_spans": tier_spans,
        }, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
