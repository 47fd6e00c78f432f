"""Run one eulertop command in a fresh traced process.

    python3 perfbench/traced_cli.py OUT.json ARGS...

Times the import of eulertop.cli, installs the tracer, runs the command as
``python -m eulertop.cli ARGS...`` would, and writes the span summary and
the spans to OUT.json.  The first action_quadrature call per scheme and
precision is repeated at once: the first call pays the cold node
computation, the repeat shows the warm cost.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import eulertop.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = eulertop.cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump({"summary": summary, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
