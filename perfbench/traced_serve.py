"""``repro`` CLI with timers around the serving layers' entry points.

Usage: ``python traced_serve.py OUT.json serve --artifact DIR ...``

Wraps ``_Handler.do_POST`` (the HTTP layer's per-request handler: body
read, ``dispatch`` or ``EngineDispatcher.handle_http``, reply write) and
``EngineDispatcher.handle_http`` (routing plus the worker pipe hop),
runs the CLI unchanged, and on exit writes the samples to ``OUT.json``:
``{"handler": [s, ...], "handle_http": [[crc32(body), s], ...],
"handle_failed": n}`` in arrival order.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import zlib


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main
    from repro.serving import service
    from repro.serving.dispatcher import EngineDispatcher

    lock = threading.Lock()
    samples = {"handler": [], "handle_http": [], "handle_failed": 0}

    do_post = service._Handler.do_POST
    handle_http = EngineDispatcher.handle_http

    def timed_do_post(handler):
        start = time.perf_counter()
        try:
            return do_post(handler)
        finally:
            elapsed = time.perf_counter() - start
            with lock:
                samples["handler"].append(elapsed)

    def timed_handle_http(dispatcher, path, raw):
        start = time.perf_counter()
        status = None
        try:
            status, body = handle_http(dispatcher, path, raw)
            return status, body
        finally:
            elapsed = time.perf_counter() - start
            with lock:
                samples["handle_http"].append([zlib.crc32(raw), elapsed])
                if status != 200:
                    samples["handle_failed"] += 1

    service._Handler.do_POST = timed_do_post
    EngineDispatcher.handle_http = timed_handle_http
    try:
        return cli_main(argv)
    finally:
        with lock:
            text = json.dumps(samples)
        with open(out_path, "w") as fh:
            fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
