"""Tests of the benchmark itself: its checks can fail, its tracer counts
and restores what it wraps, and BENCHMARK.json names what run.py prints.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from todatau import eth_core  # noqa: E402
from todatau.scalars import Scalar  # noqa: E402
from todatau.shift_algebra import ShiftSeries  # noqa: E402
from todatau.time_series import TimeSeries, TimeVars, eth_slots  # noqa: E402
from todatau.weyl import DiffOp, XPoly  # noqa: E402

DEPTH, EPS_HI = 8, workloads.EPS_HI
VARS = TimeVars(eth_slots(1), degree=2, y_degree=2)
VACUUM = eth_core.LaxOperator(u=XPoly.zero(), v=XPoly.zero())


def _small_pair(lax=VACUUM):
    pl0 = eth_core.dress_left(lax, DEPTH, EPS_HI)
    pr0 = eth_core.dress_right_paired(pl0, lax, DEPTH, EPS_HI)
    return pl0, pr0


def _zs_all_zero(w):
    slots = VARS.slots
    return all(eth_core.zs_residual(a, b, w).is_zero()
               for i, a in enumerate(slots) for b in slots[i:])


def test_zakharov_shabat_catches_corrupted_pair():
    pl0, pr0 = _small_pair()
    w = eth_core.evolve_waves(pl0, pr0, VARS, 2, DEPTH, EPS_HI)
    assert _zs_all_zero(w)
    bad_pr = w.pr + ShiftSeries.of(
        TimeSeries.const(VARS, DiffOp.of(XPoly.x())), -2)
    wbad = eth_core.make_wave_pair(w.pl, bad_pr, VARS, DEPTH, EPS_HI,
                                   degree=2, strict=False)
    assert not _zs_all_zero(wbad)


def test_oracle_accepts_dressing_and_rejects_corruption():
    for u in (Fraction(0), Fraction(-3, 2)):
        lax = eth_core.LaxOperator(u=XPoly.of(Scalar.of(u)) if u else XPoly.zero(),
                                   v=XPoly.zero())
        pl0, pr0 = _small_pair(lax)
        w = oracle.coeff_exprs(pl0, DEPTH)
        p = oracle.coeff_exprs(pr0, DEPTH)
        su = oracle.sympy.Rational(u.numerator, u.denominator)
        assert oracle.dressing_problems(w, p, su, DEPTH) == []
        w[3] = w[3] + oracle.x * oracle.Q
        assert oracle.dressing_problems(w, p, su, DEPTH)


def test_judge_keeps_only_the_named_toda_faults():
    inp = workloads.make_inputs("hirota-vacuum", 1)
    res = workloads.Result()
    for check in workloads.CELL_CHECKS[1:]:
        res.cell(check, (0, 0), "pass")
    for (m, r), witness in workloads.TODA_KNOWN_FAULTS.items():
        res.cell("toda-regularity", (m, r), "fail", witness)
    assert workloads.judge(inp, res) == []
    res.cell("toda-regularity", (0, 1), "fail", "Q")
    assert len(workloads.judge(inp, res)) == 1
    res.cell("hqe-residue", (-2, 2), "fail", workloads.TODA_KNOWN_FAULTS[(-2, 2)])
    assert len(workloads.judge(inp, res)) == 2


def test_tracer_counts_layer_entries_and_restores_methods():
    mul, shift_x = Scalar.__mul__, XPoly.shift_x
    tracer = spans.install(extra_namespaces=[workloads])
    try:
        assert Scalar.__mul__ is not mul
        pl0, pr0 = _small_pair()
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert Scalar.__mul__ is mul and XPoly.shift_x is shift_x
    assert eth_core.dress_left.__name__ == "dress_left"
    assert not hasattr(eth_core.dress_left, "__wrapped__")
    assert m["eth_core.calls"] == 2
    assert m["shift_algebra.invert_calls"] == 1
    for L in spans.LAYERS[:3]:
        assert m[L + ".calls"] > 0
        assert 0 < m[L + ".self_s"] <= m[L + ".busy_s"] * (1 + 1e-9)
    assert m["eth_core.busy_s"] >= m["shift_algebra.busy_s"]
    assert m["scalars.mul_calls"] > 0 and m["tau.calls"] == 0


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == run.PER_LAYER
    for m in bench["per_layer"]:
        assert m["unit"] == run._unit(m["name"])
        want = "higher" if m["name"] in run.HIGHER_IS_BETTER else "lower"
        assert m["better"] == want
