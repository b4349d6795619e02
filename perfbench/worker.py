"""Job process of the benchmark.

Usage: ``python3 perfbench/worker.py SRC_DIR LOG_FILE SPANS_FILE``

Imports ``cqretrofit`` from ``SRC_DIR`` and runs CLI commands sent as
JSON lines on stdin, ``{"job": ..., "argv": [...], "trace": bool}``,
answering each with one JSON line ``{"rc", "wall_s", "layers"}`` on its
original stdout. The program's own stdout and stderr go to LOG_FILE.
A traced job runs with the span recorder installed; ``layers`` is the
summary of its spans. ``{"exit": true}`` writes all spans (if any) to
SPANS_FILE and answers with the process's peak resident memory.
"""
from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback


def main(src: str, log_path: str, spans_path: str) -> None:
    proto = os.fdopen(os.dup(1), "w", encoding="utf-8")
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    sys.path.insert(0, src)

    import requests
    from cqretrofit import cli, filtration, gateway, matcher, metrics, ontology, prompts

    import spans

    recorder = spans.Recorder()
    targets = spans.layer_targets(
        cli, ontology, prompts, gateway, filtration, matcher, metrics, requests
    )

    def send(payload: dict) -> None:
        proto.write(json.dumps(payload) + "\n")
        proto.flush()

    send({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("exit"):
            break
        gc.collect()
        first = len(recorder.spans)
        if msg["trace"]:
            recorder.job = msg["job"]
            recorder.install(targets)
        t0 = time.perf_counter()
        try:
            rc = cli.main(msg["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
        wall_s = time.perf_counter() - t0
        layers = None
        if msg["trace"]:
            recorder.uninstall()
            layers = spans.summarize(recorder.spans[first:])
        sys.stdout.flush()
        send({"rc": rc, "wall_s": wall_s, "layers": layers})
    if recorder.spans:
        recorder.dump(spans_path)
    send({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})


if __name__ == "__main__":
    main(*sys.argv[1:4])
