"""``repro serve`` with the benchmark's layer wrappers installed.

    python benchmarks/e2e/traced_serve.py SPANS.json [serve options...]

Serves exactly like ``python -m repro serve [serve options...]`` and,
when the server shuts down (SIGINT), writes every recorded span to
``SPANS.json``.  Forked shard workers inherit the wrappers, but their
spans stay in the workers and are not written.
"""

from __future__ import annotations

import sys

from common import require_program


def main(argv: list[str]) -> int:
    require_program()
    from spans import Recorder, install

    from repro.cli import main as cli_main

    spans_path, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
