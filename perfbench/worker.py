"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
                                [--setup-only | --oracle]

Prints one JSON line: monotonic timestamps of the round (``run.py`` turns
them into times since the process was spawned), the per-stage wall times,
the outcome counts and problems, the sizes, the peak RSS at the end of the
timed part and, with ``--trace 1``, the per-layer span metrics.

``--setup-only`` stops once the inputs are built; ``--oracle`` instead
rebuilds the q = 0 dressing untimed and runs the ``sympy`` oracles on it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (imports todatau)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args(argv)

    inp = workloads.make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.oracle:
        problems = []
        if not inp.spec.hirota:
            import oracle
            problems = oracle.check(inp)
        print(json.dumps({"problems": problems}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install(extra_namespaces=[workloads])
    res = workloads.run(inp)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    problems = workloads.judge(inp, res)
    requested, certified = workloads.cell_counts(res)
    out = {
        "ready": ready,
        "start": res.marks["start"],
        "end": res.marks["end"],
        "stages": res.stages,
        "waves_s": sum(res.stages.get(s, 0.0) for s in workloads.WAVE_STAGES),
        "attempted": len(res.ops),
        "failed": sum(op.outcome == "fail" for op in res.ops),
        "problems": problems,
        "sizes": res.sizes,
        "cells_requested": requested,
        "cells_certified": certified,
        "peak_rss_mb": rss_kb / 1024.0,
        "layers": tracer.metrics() if tracer is not None else {},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
