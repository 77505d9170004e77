"""``python -m repro serve`` with the benchmark's span recorder installed.

    python3 perfbench/serve_traced.py SPANS.jsonl serve --socket PATH ...

Installs the same wrappers as the in-process traced runs, runs the
server until it is shut down, then writes the recorded spans as JSONL.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main(argv) -> int:
    out, serve_argv = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        recorder.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
