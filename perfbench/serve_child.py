"""``repro serve`` with the span wrappers installed: the traced server.

Usage: ``python3 perfbench/serve_child.py OUT.json serve [serve options]``.
Wraps the layers, then runs the program's own CLI.  ``SIGUSR1`` opens the
measured window (the set-up spans are kept apart) and ``SIGUSR2`` closes
it; on shutdown the per-layer figures of the window are written to
``OUT.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import spans


def main() -> int:
    out = Path(sys.argv[1])
    recorder = spans.Recorder()
    recorder.install()
    recorder.active = True
    window = {"setup": [], "start": {}, "end": {}}

    def open_window(signum, frame):
        window["setup"] = recorder.spans
        window["start"] = spans.registry_counters()
        recorder.reset()

    def close_window(signum, frame):
        recorder.active = False
        window["end"] = spans.registry_counters()

    signal.signal(signal.SIGUSR1, open_window)
    signal.signal(signal.SIGUSR2, close_window)
    from repro.cli import main as cli_main

    code = cli_main(sys.argv[2:])
    recorder.active = False
    figures = spans.layer_metrics(recorder, window["setup"])
    figures.update(spans.counter_figures(window["start"], window["end"]))
    out.write_text(json.dumps(figures))
    return code


if __name__ == "__main__":
    sys.exit(main())
