"""Independent re-check of the q = 0 dressing in ``sympy``.

The benchmark times todatau's own exact arithmetic; these checks redo the
defining relations of the dressing outside it, on expressions rebuilt from
the stored coefficients.  They run in a process of their own after the
timed rounds.

With L = Lambda + u + Q Lambda^{-1} (v = 0) and P_L = sum_k w_k Lambda^{-k}:

* w_0 = 1, and every w_k for 1 <= k <= depth has zero constant term and
  satisfies w_k(x) - w_k(x+eps) = u w_{k-1}(x) + Q w_{k-2}(x-eps);
* the paired right operator P_R = sum_j p_j Lambda^{-j} (left normal form)
  inverts P_L: sum_{i+j=k} w_i(x) p_j(x - i eps) = [k = 0] for k <= depth;
* on the vacuum, w_2 = -Qx/eps, and the zero-constant right dressing has
  wtilde_2 = Qx/eps.
"""

from __future__ import annotations

import sympy

from todatau import eth_core
from workloads import EPS_HI

x, eps, Q, logQ = sympy.symbols("x eps Q logQ", positive=True)


def scalar_expr(s):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * Q ** sympy.Rational(h2, 2) * logQ ** b * eps ** e
                for (h2, b, e), c in s.terms.items()), sympy.Integer(0))


def xpoly_expr(p):
    return sum((scalar_expr(s) * x ** d for d, s in p.coeffs.items()),
               sympy.Integer(0))


def coeff_exprs(ss, depth):
    """{k: sympy expression} for the Lambda^{-k} coefficients, k = 0..depth,
    of a q = 0 series whose coefficients are order-0 operators."""
    out = {}
    for k in range(depth + 1):
        op = ss.coeffs.get(-k)
        if op is None:
            out[k] = sympy.Integer(0)
            continue
        if op.order != 0:
            raise ValueError("Lambda^-%d coefficient has a D term" % k)
        out[k] = xpoly_expr(op.coeff(0))
    return out


def _zero(expr):
    return sympy.expand(expr) == 0


def dressing_problems(w, p, u, depth):
    """Problems with P_L's difference equation and with P_L P_R = 1."""
    problems = []
    if not _zero(w[0] - 1):
        problems.append("w_0 = %s, not 1" % w[0])
    for k in range(1, depth + 1):
        lhs = w[k] - w[k].subs(x, x + eps)
        rhs = u * w[k - 1] + (Q * w[k - 2].subs(x, x - eps) if k >= 2 else 0)
        if not _zero(lhs - rhs):
            problems.append("w_%d violates the dressing recursion" % k)
        if not _zero(w[k].subs(x, 0)):
            problems.append("w_%d has a nonzero constant term" % k)
    for k in range(depth + 1):
        prod = sum(w[i] * p[k - i].subs(x, x - i * eps) for i in range(k + 1))
        if not _zero(prod - (1 if k == 0 else 0)):
            problems.append("(P_L P_R) at Lambda^-%d is not %d" % (k, k == 0))
    return problems


def check(inp):
    """Problems with the q = 0 dressing of an operator workload's inputs."""
    depth = inp.spec.depth
    pl0 = eth_core.dress_left(inp.lax, depth, EPS_HI)
    pr0 = eth_core.dress_right_paired(pl0, inp.lax, depth, EPS_HI)
    u = sympy.Rational(inp.u.numerator, inp.u.denominator)
    w = coeff_exprs(pl0, depth)
    p = coeff_exprs(pr0, depth)
    problems = dressing_problems(w, p, u, depth)
    if u == 0:
        if not _zero(w[2] + Q * x / eps):
            problems.append("vacuum w_2 = %s, not -Qx/eps" % w[2])
        plain = eth_core.dress_right(inp.lax, depth, EPS_HI)
        # stored left-normal coefficient p_2(x) = wtilde_2(x - 2 eps)
        wt2 = coeff_exprs(plain, 2)[2].subs(x, x + 2 * eps)
        if not _zero(wt2 - Q * x / eps):
            problems.append("vacuum wtilde_2 = %s, not Qx/eps" % wt2)
    return problems
