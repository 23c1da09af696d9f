"""Run one `rtmodes` CLI command in-process with every layer traced.

Usage: python3 bench/traced_cli.py <spans.tsv> <metrics.json> <cli args...>

Exits with the CLI's own exit code.  Writes the spans and the per-layer
metrics computed from them; the caller adds what needs the outside view
(tracing overhead and coverage of the process's wall time).
"""

import json
import sys
import time

from tracing import Tracer, layer_metrics


def main(spans_path, metrics_path, argv):
    import rtmodes.cli
    from rtmodes.eigen import DENSE_CUTOFF

    tracer = Tracer()
    tracer.install()
    main_epoch = time.time()
    try:
        code = rtmodes.cli.main(argv)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, tracer.kernel_calls, DENSE_CUTOFF)
    metrics["trace.main_epoch"] = main_epoch
    tracer.write(spans_path)
    with open(metrics_path, "w") as fh:
        json.dump(metrics, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
