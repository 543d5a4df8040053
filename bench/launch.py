"""Child process of the benchmark: run one ``sechyp`` CLI invocation.

    python3 bench/launch.py MODE RECORD -- SECHYP_ARGS...

MODE is ``plain`` (untraced), ``trace`` (spans and model-call counts) or
``setup`` (stop as soon as set-up is done).  The process writes a JSON
record to RECORD with the monotonic time at which ``load_model``
returned, the end of set-up, and in ``trace`` mode the spans.  The exit
code is the CLI's.

The only instrument in ``plain`` mode is one wrapper around the CLI's
``load_model``, which runs once per invocation.
"""

import json
import os
import sys
import time


def main():
    mode, record_path, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        sys.exit("usage: launch.py {plain|trace|setup} RECORD -- SECHYP_ARGS...")
    import sechyp.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(sechyp.cli.__file__).startswith(src + os.sep):
        sys.exit(f"sechyp imported from {sechyp.cli.__file__}, not from {src}")

    record = {}
    tracer = None
    load_model = sechyp.cli.load_model

    def marked_load_model(*args, **kwargs):
        model = load_model(*args, **kwargs)
        if tracer is not None:
            model = tracer.counting_model(model)
        record["setup_end"] = time.monotonic()
        if mode == "setup":
            _write(record_path, record)
            os._exit(0)
        return model

    if mode == "trace":
        from spans import SETUP_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
        sechyp.cli.load_model = tracer.wrap(SETUP_SPAN, marked_load_model)
    else:
        sechyp.cli.load_model = marked_load_model

    code = sechyp.cli.main(cli_args)
    record["main_end"] = time.monotonic()
    if tracer is not None:
        record.update(tracer.record())
    _write(record_path, record)
    return code


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
