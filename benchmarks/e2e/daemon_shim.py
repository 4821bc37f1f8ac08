"""``repro serve`` with layer spans, for traced ``serve_mix`` runs.

Usage: ``python daemon_shim.py SPANS_OUT serve [serve options...]``

Wraps the layer functions (:mod:`spans`), runs the ordinary CLI entry
point, and appends every recorded span to ``SPANS_OUT`` when the daemon
exits.
"""

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    from repro.cli import main as cli_main
    try:
        return cli_main(argv)
    finally:
        restore()
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
