"""todatau benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports todatau from ``src/``.

A run spawns ``SETUP_PROBES`` interpreters that only import todatau and
build the workload's inputs, half before the rounds and half after.  It
runs max(1, S // budget) whole rounds of the workload, where
``ROUND_BUDGET_S`` fixes the seconds budgeted per round, so that every run
of a workload attempts the same operations.  Each round runs in a fresh
single-threaded interpreter, so the module-level memo caches start empty,
as in every ``todatau run``.  A last process re-checks the q = 0 dressing
with the ``sympy`` oracles, untimed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: medians over the rounds (and, for
``setup_s``, over the probes as well) of the end-to-end metrics with
``--trace 0``, of the per-layer metrics with ``--trace 1``.  Any error, or
a checkout without ``src/todatau``, ends the run with a nonzero exit code
and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# workload -> seconds budgeted per round: a run of S seconds measures
# max(1, S // budget) whole rounds, a count that does not depend on how fast
# the machine happens to be
ROUND_BUDGET_S = {"operator-vacuum": 10, "operator-dense": 30,
                  "hirota-vacuum": 20}
WORKLOADS = tuple(ROUND_BUDGET_S)
SETUP_PROBES = 10
ROUND_TIMEOUT_S = 170
# no further round starts once it would end after this many seconds of run
RUN_LIMIT_S = 140

# name -> unit; every one is better when lower
END_TO_END = {"setup_s": "s", "waves_s": "s", "verify_s": "s",
              "total_s": "s", "peak_rss_mb": "MB"}

STAGES = ("dress", "evolve", "residuals", "prop2", "tau", "fay", "hqe",
          "toda")
METHOD_METRICS = (
    "scalars.mul_calls", "scalars.mul_s",
    "weyl.shift_x_calls", "weyl.shift_x_s",
    "weyl.discrete_antiderivative_calls",
    "weyl.diffop_mul_calls", "weyl.diffop_mul_s",
    "shift_algebra.mul_calls", "shift_algebra.mul_s",
    "shift_algebra.invert_calls", "shift_algebra.invert_s",
    "shift_algebra.sharp_calls",
    "shift_algebra.lambda_mul_calls", "shift_algebra.lambda_mul_s",
    "shift_algebra.exp_nilpotent_s",
    "time_series.mul_calls", "time_series.mul_s",
    "time_series.bilinear_calls",
    "time_series.miwa_shift_calls", "time_series.miwa_shift_s",
    "time_series.exp_s",
    "eth_core.evolve_waves_s", "eth_core.log_lax_calls",
    "eth_core.flow_generator_calls",
    "eth_core.prop2_operator_residual_s",
    "eth_core.prop2_residue_residual_s",
    "tau.build_tau_s", "tau.tau_to_waves_calls", "tau.tau_to_waves_s",
    "tau.fay_residual_s",
    "hqe.hqe_residual_s", "hqe.hqe_regularity_s", "hqe.verdicts_agree_s",
    "hqe.toda_regularity_s",
)


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "verdict.certified_ratio":
        return "ratio"
    return "count"


PER_LAYER = (["stage.%s_s" % s for s in STAGES]
             + ["%s.%s" % (L, m) for L in LAYERS
                for m in ("calls", "busy_s", "self_s")]
             + list(METHOD_METRICS)
             + ["size.pl_cells", "size.pl_scalar_terms", "size.logtau_terms",
                "verdict.cells_requested", "verdict.cells_certified",
                "verdict.certified_ratio"])
HIGHER_IS_BETTER = ("verdict.cells_requested", "verdict.cells_certified",
                    "verdict.certified_ratio")


class BenchError(Exception):
    pass


def spawn(workload, seed, trace, *flags):
    """Run the worker once; returns (monotonic spawn time, its JSON)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s"
                         % (proc.returncode, proc.stderr[-2000:]))
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(out):
    """The per-layer metrics of one traced round."""
    m = dict(out["layers"])
    for s in STAGES:
        m["stage.%s_s" % s] = out["stages"].get(s, 0.0)
    for k in ("pl_cells", "pl_scalar_terms", "logtau_terms"):
        m["size." + k] = out["sizes"].get(k, 0)
    m["verdict.cells_requested"] = out["cells_requested"]
    m["verdict.cells_certified"] = out["cells_certified"]
    m["verdict.certified_ratio"] = out["cells_certified"] / out["cells_requested"]
    return {name: m[name] for name in PER_LAYER}


def probe_setup(workload, seed, n):
    """Set-up times of n interpreters that stop once the inputs exist."""
    times = []
    for _ in range(n):
        t0, out = spawn(workload, seed, 0, "--setup-only")
        times.append(out["ready"] - t0)
    return times


def measure(workload, seed, seconds, trace):
    setups = probe_setup(workload, seed, SETUP_PROBES // 2)
    began = time.monotonic()
    rounds = []
    for _ in range(max(1, int(seconds // ROUND_BUDGET_S[workload]))):
        t0, out = spawn(workload, seed, trace)
        out["spawned"] = t0
        rounds.append(out)
        setups.append(out["ready"] - t0)
        print("round %d: setup %.4f s, waves %.4f s, total %.4f s"
              % (len(rounds), out["ready"] - t0, out["waves_s"],
                 out["end"] - t0), file=sys.stderr)
        now = time.monotonic()
        if now - began + (now - t0) > RUN_LIMIT_S:
            break
    setups += probe_setup(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
    problems = [p for out in rounds for p in out["problems"]]
    problems += spawn(workload, seed, 0, "--oracle")[1]["problems"]
    med = statistics.median
    if trace:
        per_round = [layer_metrics(out) for out in rounds]
        counts = [{k: v for k, v in m.items() if _unit(k) == "count"}
                  for m in per_round]
        if any(c != counts[0] for c in counts):
            problems.append("counts differ between rounds of one run")
        metrics = {name: {"value": med([m[name] for m in per_round]),
                          "unit": _unit(name)} for name in PER_LAYER}
    else:
        values = {
            "setup_s": med(setups),
            "waves_s": med([o["waves_s"] for o in rounds]),
            "verify_s": med([o["end"] - o["start"] - o["waves_s"]
                             for o in rounds]),
            "total_s": med([o["end"] - o["spawned"] for o in rounds]),
            "peak_rss_mb": med([o["peak_rss_mb"] for o in rounds]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    for p in problems:
        print("problem: %s" % p, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(o["attempted"] for o in rounds),
        "failed": sum(o["failed"] for o in rounds),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "todatau", "eth_core.py")):
        print("no todatau sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
