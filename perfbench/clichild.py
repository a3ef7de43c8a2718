"""A traced ``python -m splitgame`` for the cold-CLI workload.

Usage: clichild.py SPANS_OUT ARG...

Does what ``python -m splitgame ARG...`` does, with the span wrappers
installed after the package import, and writes the spans recorded inside
``main`` to SPANS_OUT as JSON before exiting with main's exit code.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(out_path, argv):
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import splitgame.cli

    recorder = spans.Recorder()
    recorder.current_phase = spans.WORKLOAD
    spans.install(recorder)
    try:
        return splitgame.cli.main(argv)
    finally:
        rows = [[name, start, end, parent, units, aux] for name, start, end, parent, _, _, units, aux in recorder.rows()]
        Path(out_path).write_text(json.dumps(rows), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
