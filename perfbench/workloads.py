"""The benchmark workloads, driven through the public functions of
todatau's layers.

Each workload mirrors the stage chain of ``todatau.runner.run`` (dress ->
evolve -> residual battery -> tau -> Fay -> Hirota -> Toda) on inputs made
from the workload seed.  ``make_inputs`` is the set-up; ``run`` is the timed
part and returns a :class:`Result` holding every operation's outcome, the
per-stage wall times and the size counts.  ``judge`` decides whether the
outcomes are right; the ``sympy`` oracles live in ``oracle.py``.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from todatau import eth_core, hqe, tau
from todatau.scalars import Scalar
from todatau.tau import TauSeries
from todatau.time_series import TimeSeries, TimeVars, eth_slots
from todatau.weyl import XPoly

EPS_HI = 8          # eps window (-8, 8), as in the runner's default config
Y_DEGREE = 2
M_MAX = 2
R_MAX = 3
HQE_DEPTH = 8       # lambda-depth of the Hirota symbols; certifies every
                    # trusted cell of the vacuum tau, as the default 10 does
TODA_DEPTH = 12     # the runner's lambda_window default

# The constant u of operator-dense: nonzero rationals of height 3 whose
# numerator and denominator both exceed 1, so that every draw stores the
# same cells with equally small integers and a seed changes values, not work.
U_CHOICES = (Fraction(-3, 2), Fraction(-2, 3), Fraction(2, 3),
             Fraction(3, 2))

# hqe.toda_regularity certifies cells at trust room 0 on the restricted
# vacuum tau and finds them nonzero.  The benchmark keeps them as failed
# operations with their exact witnesses until the program is fixed.
TODA_KNOWN_FAULTS = {(-2, 2): "1/2*Q", (2, 2): "-1/2*Q",
                     (-1, 3): "2*Q^{3/2}", (1, 3): "-2*Q^{3/2}"}


@dataclass(frozen=True)
class Spec:
    depth: int          # Lambda-depth of the dressing
    n_max: int
    D: int              # tau-layer order; evolution degree is D + n_max - 1
    dense: bool         # constant u = c drawn from the seed, else vacuum
    hirota: bool        # tau/Fay/Hirota/Toda chain, else operator battery

    @property
    def degree(self):
        return self.D + self.n_max - 1


# operator-vacuum: deep shift-operator algebra on sparse coefficients, no
# tau or symbol work.  operator-dense: the same stages with every coefficient
# a non-trivial rational, so Scalar/XPoly arithmetic dominates.
# hirota-vacuum: tau, Miwa-shift and bilinear symbol work with little
# Lambda-depth work, the mirror image of the operator workloads.
WORKLOADS = {
    "operator-vacuum": Spec(12, 1, 2, dense=False, hirota=False),
    "operator-dense": Spec(9, 1, 2, dense=True, hirota=False),
    "hirota-vacuum": Spec(10, 2, 2, dense=False, hirota=True),
}


def dense_u(seed):
    """The operator-dense constant u drawn from the workload seed."""
    return random.Random(seed).choice(U_CHOICES)


def gauge_seed(seed):
    """The hirota-vacuum gauge constant for the seeded tau (never zero)."""
    rng = random.Random(seed)
    return Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))


@dataclass
class Inputs:
    spec: Spec
    u: Fraction
    lax: eth_core.LaxOperator
    vars: TimeVars
    gauge: Fraction = None
    toda_vars: TimeVars = None
    trivial_tau: TauSeries = None


def make_inputs(name, seed):
    spec = WORKLOADS[name]
    u = dense_u(seed) if spec.dense else Fraction(0)
    u_poly = XPoly.of(Scalar.of(u)) if u else XPoly.zero()
    lax = eth_core.LaxOperator(u=u_poly, v=XPoly.zero())
    vars = TimeVars(eth_slots(spec.n_max), degree=spec.degree,
                    y_degree=Y_DEGREE)
    inp = Inputs(spec, u, lax, vars)
    if spec.hirota:
        inp.gauge = gauge_seed(seed)
        # the runner's Toda restriction: the q_{n,1} slots of N_max 1, one
        # order deeper than the main evolution at (N_max 1, D 3)
        toda_n_max, toda_D = 1, spec.D + 1
        inp.toda_vars = TimeVars(
            tuple(s for s in eth_slots(toda_n_max) if s[1] == 1),
            degree=toda_D + toda_n_max - 1 + 1, y_degree=Y_DEGREE)
        tv = TimeVars(eth_slots(spec.n_max), degree=spec.D, y_degree=Y_DEGREE)
        inp.trivial_tau = TauSeries(vars=tv, logtau=TimeSeries.zero(tv),
                                    n_max=spec.n_max, eps_hi=EPS_HI)
    return inp


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

@dataclass
class Op:
    check: str
    params: tuple
    outcome: str            # "pass" | "fail" | "inconclusive"
    witness: str = ""


@dataclass
class Result:
    ops: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)      # stage -> seconds
    marks: dict = field(default_factory=dict)       # monotonic timestamps
    sizes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)       # property violations

    @contextmanager
    def stage(self, name):
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + \
                time.monotonic() - t0

    def series(self, check, params, residual):
        ok = residual.is_zero()
        self.ops.append(Op(check, params, "pass" if ok else "fail",
                           "" if ok else residual.render()[:160]))

    def plain(self, check, params, ok, witness=""):
        self.ops.append(Op(check, params, "pass" if ok else "fail",
                           "" if ok else witness))

    def cell(self, check, params, verdict, witness=""):
        outcome = {"pass": "pass", "fail": "fail",
                   "uncertified": "inconclusive"}[verdict]
        self.ops.append(Op(check, params, outcome, witness))

    def note(self, ok, text):
        if not ok:
            self.notes.append(text)


WAVE_STAGES = ("dress", "evolve")
CELL_CHECKS = ("prop2-residue", "hqe-residue", "hqe-regularity",
               "toda-regularity")


def _waves(res, lax, vars, degree, depth):
    with res.stage("dress"):
        pl0 = eth_core.dress_left(lax, depth, EPS_HI)
        pr0 = eth_core.dress_right_paired(pl0, lax, depth, EPS_HI)
    with res.stage("evolve"):
        return eth_core.evolve_waves(pl0, pr0, vars, degree, depth, EPS_HI)


def run(inp):
    """The timed part: every stage and verdict of the workload."""
    res = Result()
    spec = inp.spec
    res.marks["start"] = time.monotonic()
    waves = _waves(res, inp.lax, inp.vars, spec.degree, spec.depth)
    if spec.hirota:
        _hirota_chain(res, inp, waves)
    else:
        _operator_battery(res, waves, spec.n_max)
    res.marks["end"] = time.monotonic()
    res.sizes["pl_cells"], res.sizes["pl_scalar_terms"] = _count(waves.pl)
    return res


def _operator_battery(res, waves, n_max):
    with res.stage("residuals"):
        for name, r in eth_core.dressing_residuals(waves).items():
            res.series("dressing-" + name, (), r)
        for slot, (rl, rr) in eth_core.wave_equation_residuals(waves).items():
            res.series("wave-equation-left", slot, rl)
            res.series("wave-equation-right", slot, rr)
        slots = waves.vars.slots
        for i, a in enumerate(slots):
            for b in slots[i:]:
                res.series("zakharov-shabat", (a, b),
                           eth_core.zs_residual(a, b, waves))
    with res.stage("prop2"):
        for r in range(R_MAX + 1):
            res.series("prop2-operator", (r,), eth_core.prop2_operator_residual(
                r, waves.pl, waves.pr, waves.vars, n_max))
        cache = {}
        for m in range(-M_MAX, M_MAX + 1):
            for r in range(R_MAX + 1):
                cell = eth_core.prop2_residue_residual(
                    m, r, waves.pl, waves.pr, waves.vars, n_max, _cache=cache)
                verdict = "uncertified" if not cell.certified else \
                    ("pass" if cell.is_zero() else "fail")
                res.cell("prop2-residue", (m, r), verdict,
                         (cell.witness() or "") if verdict == "fail" else "")


def _trusted_r_max(t, m):
    """The runner's trusted r range for shift m: r <= complete_degree - |m|."""
    return min(R_MAX, int(t.complete_degree) - abs(m))


def _hirota_chain(res, inp, waves):
    with res.stage("tau"):
        t = tau.build_tau(waves)
        for n, resid in tau.tau_de1_residual(t, waves).items():
            res.series("tau-de1", (n,), resid)
        zero_slot = next(i for i, s in enumerate(t.vars.slots) if s[1] == 0)
        mono = tuple(int(i == zero_slot) for i in range(len(t.vars.slots)))
        alt = tau.build_tau(waves, seeds={mono: Scalar.of(inp.gauge)})
        diff = alt.logtau - t.logtau
        ok = not diff.is_zero() and diff.derivative().is_zero() and all(
            diff.partial(s).is_zero() for s in t.vars.slots if s[1] == 1)
        res.plain("tau-gauge-difference", (), ok, diff.render()[:160])
    res.sizes["logtau_terms"] = _count(t.logtau)[1]

    with res.stage("fay"):
        for which in ("id1", "id2", "id4", "identity-a", "identity-b"):
            res.series("fay-" + which, (), tau.fay_residual(which, waves))

    with res.stage("hqe"):
        for m in range(-M_MAX, M_MAX + 1):
            r_top = _trusted_r_max(t, m)
            if r_top < 0:
                continue
            cache = {}
            sweep = [hqe.hqe_residual(t, m, r, depth=HQE_DEPTH, _cache=cache)
                     for r in range(r_top + 1)]
            for c in sweep:
                res.cell("hqe-residue", (m, c.r), c.verdict, c.witness)
            reg = hqe.hqe_regularity(t, m, r_max=r_top, depth=HQE_DEPTH)
            for c in reg:
                res.cell("hqe-regularity", (m, c.r), c.verdict, c.witness)
            res.note([c.verdict for c in sweep] == [c.verdict for c in reg],
                     "hqe_residual and hqe_regularity disagree at m=%d" % m)
            agree, info = hqe.verdicts_agree(t, m, r_max=r_top,
                                             depth=HQE_DEPTH)
            res.plain("hqe-verdict-crosscheck", (m,), agree, str(info))
        control = hqe.hqe_residual(inp.trivial_tau, -1, 1)
        res.plain("hqe-control-trivial-tau", (-1, 1),
                  control.verdict == "fail" and control.witness == "Q^{1/2}",
                  "%s %s" % (control.verdict, control.witness))

    spec = inp.spec
    twaves = _waves(res, inp.lax, inp.toda_vars, inp.toda_vars.degree,
                    spec.depth)
    with res.stage("toda"):
        tt = tau.build_tau(twaves)
        for m in range(-M_MAX, M_MAX + 1):
            r_top = _trusted_r_max(tt, m)
            if r_top < 0:
                continue
            for c in hqe.toda_regularity(tt, m, r_max=r_top, depth=TODA_DEPTH):
                res.cell("toda-regularity", (m, c.r), c.verdict, c.witness)


def _count(obj):
    """(stored Scalar cells, Scalar terms) of a nested series."""
    if hasattr(obj, "hi"):                      # a Scalar
        return 1, len(obj.terms)
    inner = getattr(obj, "coeffs", None)
    if inner is None:
        inner = obj.terms
    cells = terms = 0
    for c in inner.values():
        a, b = _count(c)
        cells += a
        terms += b
    return cells, terms


# ---------------------------------------------------------------------------
# judging
# ---------------------------------------------------------------------------

def judge(inp, res):
    """Problems with the outcomes (an empty list means correct).

    A failed operation is correct only when it is one of the named Toda
    faults with its exact witness; every other check must pass or, for a
    windowed cell, be inconclusive.  Every cell check must certify at least
    one cell."""
    problems = list(res.notes)
    for op in res.ops:
        if op.outcome != "fail":
            continue
        if op.check == "toda-regularity" and \
                TODA_KNOWN_FAULTS.get(op.params) == op.witness:
            continue
        problems.append("%s %s failed: %s" % (op.check, op.params, op.witness))
    for check in CELL_CHECKS:
        cells = [op for op in res.ops if op.check == check]
        if cells and all(op.outcome == "inconclusive" for op in cells):
            problems.append("%s certified no cell" % check)
    expected = ("prop2-residue",) if not inp.spec.hirota else CELL_CHECKS[1:]
    for check in expected:
        if not any(op.check == check for op in res.ops):
            problems.append("%s never ran" % check)
    return problems


def cell_counts(res):
    """(requested, certified) over the windowed verdict cells."""
    cells = [op for op in res.ops if op.check in CELL_CHECKS]
    return len(cells), sum(op.outcome != "inconclusive" for op in cells)
