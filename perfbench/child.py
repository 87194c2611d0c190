"""Child process of the benchmark.

  python3 perfbench/child.py [--trace-out PATH --op-id N] cli ARGS...
      runs ``lattice_lab.cli.main(ARGS)`` and exits with its code; with
      ``--trace-out`` the tracing wrappers are installed first and their
      totals are written to PATH as JSON.
  python3 perfbench/child.py setup WORKLOAD SEED WORKDIR
      imports lattice_lab and builds the workload's inputs, then exits;
      the parent times this as one set-up.
"""

from __future__ import annotations

import json
import sys

import bootstrap

bootstrap.pin_threads()


def main(argv: list[str]) -> int:
    trace_out, op_id = None, 0
    while argv and argv[0] in ("--trace-out", "--op-id"):
        if argv[0] == "--trace-out":
            trace_out = argv[1]
        else:
            op_id = int(argv[1])
        argv = argv[2:]
    mode, rest = argv[0], argv[1:]
    lattice_lab = bootstrap.import_program()
    if mode == "setup":
        import workloads

        workloads.WORKLOADS[rest[0]](int(rest[1]), rest[2])
        return 0
    if trace_out is None:
        return lattice_lab.cli.main(rest)
    import tracing

    tracer = tracing.Tracer()
    tracer.op_id = op_id
    tracing.install(tracer)
    try:
        return lattice_lab.cli.main(rest)
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.raw(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
