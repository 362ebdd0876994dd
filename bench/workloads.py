"""Replay one query through the public API of ``contest_forge`` and check it.

``run`` is the timed part: it builds the library objects from the query's
plain data and calls the solvers. ``check`` runs afterwards, outside the
clock, and returns the names of the checks that failed (empty when correct).
Every library call goes through the package namespace at call time, so the
tracer's rebound functions are the ones used.
"""

from __future__ import annotations

import math

import numpy as np

import contest_forge as cf

from queries import HETERO_N, HETERO_POINTS, HETERO_REPLICAS

# asymptotic_scan's residual band, as in acceptance criterion 06
RESIDUAL_BAND = (0.3, 3.0)


def _design_desk(q: dict) -> list[dict]:
    n, budget = q["n"], q["budget"]
    qd = cf.Uniform(*q["quality"])
    out = []
    for item in q["contests"]:
        contest = cf.validate_contest(item["values"], budget)
        eq = cf.equilibrium_threshold(contest, qd, item["cost"])
        design = cf.optimal_contest(n, budget, item["cost"], qd)
        frontier = cf.c_star(n, budget, eq.p)
        out.append({"contest": contest, "eq": eq, "design": design, "frontier": frontier})
    return out


def _scale_tables(q: dict) -> dict:
    qd = cf.Uniform(0.0, 1.0)
    n, cost, vc = q["table_n"], q["table_cost"], q["vc"]
    table = cf.breakpoints(n, 1.0)
    return {
        "table": table,
        "class_j": cf.classify_by_breakpoints(table, cost),
        "solver_j": cf.optimal_contest(n, 1.0, cost, qd).j_star,
        "limit": cf.poisson_limit(vc, 1.0),
        "large": cf.optimal_contest(math.ceil(3.0 * vc), vc, 1.0, qd),
    }


def _hetero_experiments(q: dict) -> dict:
    jd = cf.RectMixture(tuple(cf.RectComponent(*r) for r in q["rects"]))
    report = cf.wta_approx_experiment(
        jd, HETERO_N, 1.0, HETERO_POINTS, HETERO_REPLICAS, q["seed"]
    )
    types = cf.discretize(jd, HETERO_POINTS, q["seed"], n=HETERO_N)
    contest = cf.validate_contest(q["prizes"], 1.0)
    bracket = cf.equilibrium(contest, types)
    eq = bracket.profile
    sub = cf.ParticipationProfile(eq.mask & np.asarray(q["keep"]))
    return {
        "report": report,
        "converged": bracket.converged,
        "sub_ok": cf.is_sub_equilibrium(contest, types, sub),
        "fosd_ok": cf.fosd_check(types, eq, sub, contest),
    }


def _check_design_desk(q: dict, answer: list[dict]) -> list[str]:
    failed = []
    budget = q["budget"]
    a, b = q["quality"]
    for item, got in zip(q["contests"], answer):
        c, eq = item["cost"], got["eq"]
        residual = abs(cf.expected_prize(got["contest"], eq.p) - c)
        if eq.saturated is not None or residual > 1e-10 * max(budget, c):
            failed.append("equation_residual")
        if eq.p > got["design"].equilibrium.p + 1e-9:
            failed.append("one_hot_optimality")
        if abs(eq.theta - (a + (1.0 - eq.p) * (b - a))) > 1e-12 * max(1.0, b):
            failed.append("threshold_quantile")
        # the general contest sustains rate p at cost c, so the frontier does
        if c > got["frontier"] + 1e-9 * budget:
            failed.append("frontier_dominates")
    return failed


def _check_scale_tables(q: dict, answer: dict) -> list[str]:
    failed = []
    if len(answer["table"].entries) != q["table_n"] - 1:
        failed.append("breakpoint_rows")
    if answer["class_j"] != answer["solver_j"]:
        failed.append("breakpoint_class")
    vc = q["vc"]
    if abs(answer["limit"].value - 1.0) > 1e-9 * vc:
        failed.append("poisson_equation")
    large = answer["large"]
    log_vc = math.log(vc)
    r_j = (vc - large.j_star) / math.sqrt(vc / log_vc)
    r_lam = (vc - large.equilibrium.lam) / math.sqrt(vc * log_vc)
    lo, hi = RESIDUAL_BAND
    if not (lo <= r_j <= hi and lo <= r_lam <= hi):
        failed.append("asymptotic_residuals")
    return failed


def _check_hetero_experiments(q: dict, answer: dict) -> list[str]:
    checks = answer["report"]["checks"]
    named = {
        "three_w_geq_best": checks["three_w_geq_best"],
        "all_brackets_collapsed": checks["all_brackets_collapsed"] and answer["converged"],
        "is_sub_equilibrium": answer["sub_ok"],
        "fosd_check": answer["fosd_ok"],
    }
    return [name for name, ok in named.items() if not ok]


_RUN = {
    "design-desk": _design_desk,
    "scale-tables": _scale_tables,
    "hetero-experiments": _hetero_experiments,
}
_CHECK = {
    "design-desk": _check_design_desk,
    "scale-tables": _check_scale_tables,
    "hetero-experiments": _check_hetero_experiments,
}


def run(workload: str, query: dict):
    return _RUN[workload](query)


def check(workload: str, query: dict, answer) -> list[str]:
    return _CHECK[workload](query, answer)
