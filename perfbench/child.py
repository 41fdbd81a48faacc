"""One qsc run in a fresh process, as the `qsc` console script would make it.

    python3 perfbench/child.py STAMP_FILE TRACE_FILE|- MODE -- <qsc arguments>

MODE is `run` (run the command) or `probe` (stop once the config is
loaded: a set-up-only run).  The moment `cli.load_config` returns is
written to STAMP_FILE as `time.monotonic()`, a clock shared by all
processes of the machine, so run.py can subtract its launch time.
With a TRACE_FILE, qsc is traced and the spans are written there at exit.
"""

import json
import sys
import time


class _SetupDone(BaseException):
    """Ends a probe; a BaseException, so qsc's error handlers pass it on."""


def main(argv: list[str]) -> int:
    stamp_path, trace_path, mode, sep, *qsc_argv = argv
    if sep != "--" or mode not in ("run", "probe"):
        raise SystemExit(__doc__)
    from qsc import cli

    tracer = None
    if trace_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    stamp = {}
    load_config = cli.load_config

    def stamped_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        stamp["config_loaded"] = time.monotonic()
        if mode == "probe":
            raise _SetupDone
        return cfg

    cli.load_config = stamped_load_config
    try:
        code = cli.main(qsc_argv)
    except _SetupDone:
        code = 0
    with open(stamp_path, "w") as fh:
        json.dump(stamp, fh)
    if tracer is not None:
        tracer.save(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
