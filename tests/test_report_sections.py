"""The order in which each report calls the model functions, and which
failures a report survives.

Each report's model functions are wrapped by spies that record their names;
a nested call is recorded where it happens.  ``FAILURE_GOLDENS`` in
``test_cli.py`` pins only the first step that fails, so these pins also
cover the steps after a survived failure and the steps of a report that
succeeds.
"""

import pytest

from epistab import covid, figure_params, linalg, model, paper_check, seir, table_params

SPIES = {
    covid: ("dfe", "endemic", "_linear_ratios", "r0_reduced", "r0_full", "det_jp0",
            "jacobian_closed", "determinant", "add_compound", "dominance", "criterion_verdicts"),
    seir: ("dfe3", "endemic3", "r0_seir", "jacobian3", "determinant", "add_compound",
           "endemic_conditions", "dominance", "measure", "criterion_verdicts"),
    paper_check: ("claim_sum_identity", "claim_jacobian_entries", "claim_dfe_jacobian_display",
                  "claim_endemic_ratios", "claim_ngm", "claim_dfe_determinant",
                  "claim_splitting_cubic", "claim_seir_jacobian", "claim_seir_compound_display",
                  "claim_seir_endemic_i1"),
}

REPORTS = {
    "stability": covid.stability_report,
    "equilibria": covid.equilibria_report,
    "r0": covid.r0_report,
    "paper-check": paper_check.build_report,
    "seir stability": seir.seir_stability,
    "seir equilibria": seir.seir_equilibria,
}

# parameter changes from the table set (five-compartment reports) or the
# figure set (``seir`` reports)
POINTS = {
    "table": {},
    "beta2-beta8-0": {"beta2": 0.0, "beta8": 0.0},  # the endemic ratios do not exist
    "beta10-0.55": {"beta10": 0.55},  # beta1 == beta10: no endemic point
    "beta10-0.6": {"beta10": 0.6},  # beta1 < beta10: an infeasible endemic point
    "beta7-0": {"beta7": 0.0},  # V is singular at the disease-free point
    "figure": {},
    "Lambda-0": {"Lambda": 0.0},
    "beta1-beta2-0": {"beta1": 0.0, "beta2": 0.0},
}

_STABILITY_DFE = ("dfe _linear_ratios r0_reduced r0_full determinant det_jp0 jacobian_closed "
                  "determinant jacobian_closed add_compound dominance criterion_verdicts endemic "
                  "_linear_ratios")
_STABILITY = _STABILITY_DFE + " jacobian_closed determinant add_compound criterion_verdicts"
_PAPER_CHECK_COVID = ("dfe claim_sum_identity claim_jacobian_entries" + " jacobian_closed" * 5
                      + " claim_dfe_jacobian_display jacobian_closed claim_endemic_ratios"
                      " _linear_ratios")
_PAPER_CHECK = (_PAPER_CHECK_COVID + " endemic _linear_ratios claim_ngm claim_dfe_determinant"
                " det_jp0 jacobian_closed determinant claim_splitting_cubic claim_seir_jacobian"
                + " jacobian3" * 5 + " claim_seir_compound_display dfe3 jacobian3"
                " claim_seir_endemic_i1 endemic3")
_SEIR_STABILITY = ("endemic3 jacobian3 add_compound determinant r0_seir dfe3 endemic_conditions "
                   "dominance measure criterion_verdicts")

# (report, point): (the exception the report ends with, or None, and the
# spied calls in order)
CALL_ORDER = {
    ("stability", "table"): (None, _STABILITY),
    ("stability", "beta2-beta8-0"): (None, _STABILITY_DFE),
    ("stability", "beta10-0.55"): (None, _STABILITY_DFE),
    ("stability", "beta10-0.6"): (None, _STABILITY),
    ("stability", "beta7-0"): (
        "SingularMatrixError", "dfe _linear_ratios r0_reduced r0_full determinant"),
    ("equilibria", "table"): (None, "dfe endemic _linear_ratios"),
    ("equilibria", "beta2-beta8-0"): ("InfeasibleError", "dfe endemic _linear_ratios"),
    ("equilibria", "beta10-0.55"): ("InfeasibleError", "dfe endemic _linear_ratios"),
    ("equilibria", "beta10-0.6"): ("InfeasibleError", ""),
    ("equilibria", "beta7-0"): ("InfeasibleError", "dfe endemic _linear_ratios"),
    ("r0", "table"): (None, "dfe r0_full determinant r0_reduced"),
    ("r0", "beta10-0.6"): (None, "dfe r0_full determinant r0_reduced"),
    ("r0", "beta7-0"): ("SingularMatrixError", "dfe r0_full determinant"),
    ("paper-check", "table"): (None, _PAPER_CHECK),
    ("paper-check", "beta2-beta8-0"): ("InfeasibleError", _PAPER_CHECK_COVID),
    ("paper-check", "beta10-0.55"): ("InfeasibleError", _PAPER_CHECK_COVID),
    ("paper-check", "beta10-0.6"): (None, _PAPER_CHECK),
    ("paper-check", "beta7-0"): ("InfeasibleError", _PAPER_CHECK_COVID),
    ("seir stability", "figure"): (None, _SEIR_STABILITY),
    ("seir stability", "Lambda-0"): (None, _SEIR_STABILITY),
    ("seir stability", "beta1-beta2-0"): ("InfeasibleError", "endemic3"),
    ("seir equilibria", "figure"): (None, "dfe3 endemic3"),
    ("seir equilibria", "Lambda-0"): (None, "dfe3 endemic3"),
    ("seir equilibria", "beta1-beta2-0"): ("InfeasibleError", "dfe3 endemic3"),
}


def _spy(monkeypatch):
    """Wrap every function of ``SPIES``; return the list their calls append to."""
    calls = []
    for module, names in SPIES.items():
        for name in names:
            def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("report, point", sorted(CALL_ORDER),
                         ids=lambda v: v.replace(" ", "-"))
def test_report_call_order(report, point, monkeypatch):
    base = figure_params() if report.startswith("seir") else table_params(0.1)
    p = base.replace(**POINTS[point])
    paper_check.seeded_claims()  # drawn once per process, before any report is spied on
    calls = _spy(monkeypatch)
    try:
        REPORTS[report](p)
        failure = None
    except Exception as exc:
        failure = type(exc).__name__
    assert (failure, " ".join(calls)) == CALL_ORDER[report, point]


@pytest.mark.parametrize("point", ["beta2-beta8-0", "beta10-0.55"])
def test_stability_survives_a_missing_endemic_ratio(point):
    rep = covid.stability_report(table_params(0.1).replace(**POINTS[point]))
    assert set(rep["equilibria"]["endemic"]) == {"error"}
    assert set(rep["verdicts"]) == {"dfe"}
    unique = rep["unique_dfe_conditions"]
    assert (set(unique) == {"error"}) == (point == "beta2-beta8-0")


def test_an_endemic_verdict_failure_replaces_the_endemic_point(monkeypatch):
    # the endemic point exists, but its verdicts raise: the endemic section
    # fails as a whole, so its point holds the error and it has no verdicts
    verdicts = covid.criterion_verdicts
    seen = []

    def failing_at_the_endemic_point(*args):
        seen.append(1)
        if len(seen) == 2:
            raise linalg.ConvergenceError("no convergence at the endemic point")
        return verdicts(*args)

    monkeypatch.setattr(covid, "criterion_verdicts", failing_at_the_endemic_point)
    rep = covid.stability_report(table_params(0.1))
    assert len(seen) == 2
    assert rep["equilibria"]["endemic"] == {"error": "no convergence at the endemic point"}
    assert set(rep["verdicts"]) == {"dfe"}
    assert rep["equilibria"]["dfe"]["kind"] == "dfe"


def test_an_uncaught_failure_ends_the_report(monkeypatch):
    # only InfeasibleError and ArithmeticError are survived, and only by the
    # endemic section: a ValueError there ends the report
    def refuse(p):
        raise ValueError("not a number")

    monkeypatch.setattr(covid, "endemic", refuse)
    with pytest.raises(ValueError, match="^not a number$"):
        covid.stability_report(table_params(0.1))


def test_the_evaluator_lays_out_its_entries():
    # a dotted key nests, a "_" key and a None entry are left out, a Record
    # is written through to_dict, and a caught failure becomes its entry
    def infeasible(done):
        raise model.InfeasibleError("no such point")

    rep = model.report([
        ("_x", lambda r: 2.0),
        ("a.b", lambda r: r["_x"] + 1),
        ("c", lambda r: None),
        ("a.p", lambda r: figure_params()),
        ("d", infeasible, model.InfeasibleError),
        ("a.e", lambda r: r["d"])])
    assert rep == {"a": {"b": 3.0, "p": figure_params().to_dict(),
                         "e": {"error": "no such point"}},
                   "d": {"error": "no such point"}}
    with pytest.raises(model.InfeasibleError, match="^no such point$"):
        model.report([("d", infeasible, ArithmeticError)])
