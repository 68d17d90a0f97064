import json

import numpy as np
import pytest

from epistab import covid, paper_check, seir
from epistab.linalg import determinant
from epistab.paper_check import FLAGGED, MATCH, build_report, report_to_dicts


@pytest.fixture(scope="module")
def report():
    from epistab import table_params
    return build_report(table_params(0.1))


def _by_id(report):
    return {c.claim_id: c for c in report}


def test_claim_ids_unique_and_schema(report):
    ids = [c.claim_id for c in report]
    assert len(ids) == len(set(ids))
    for d in report_to_dicts(report):
        assert set(d) >= {"claim_id", "paper_value", "oracle_value",
                          "max_abs_diff", "verdict"}
        assert d["verdict"] in (MATCH, FLAGGED)
        assert d["max_abs_diff"] >= 0.0
        json.dumps(d)  # serializable


def test_required_flagged_claims(report):
    claims = _by_id(report)
    for cid in ("covid_jacobian_entry_2_1", "covid_jacobian_entry_3_3",
                "covid_jacobian_entry_4_4", "covid_sum_identity_all_compartments"):
        assert claims[cid].verdict == FLAGGED
        assert claims[cid].max_abs_diff > 0.0


def test_seir_jacobian_passes(report):
    claim = _by_id(report)["seir_jacobian"]
    assert claim.verdict == MATCH
    assert claim.max_abs_diff < 1e-6


def test_jacobian_slips_have_expected_magnitudes(report):
    claims = _by_id(report)
    # (3,3): beta2 vs beta3 -> |0.4 - 0.6|; (4,4): spurious beta8
    assert claims["covid_jacobian_entry_3_3"].max_abs_diff == pytest.approx(0.2, abs=1e-12)
    assert claims["covid_jacobian_entry_4_4"].max_abs_diff == pytest.approx(0.3, abs=1e-12)
    assert claims["covid_jacobian_other_entries"].verdict == MATCH


def test_sum_identity_gap_is_mu_times_d(report):
    # at the canonical probe (1, .8, .6, .4, .2) the gap is mu * D = 0.01 * 0.2,
    # and the worst probe is larger
    claim = _by_id(report)["covid_sum_identity_all_compartments"]
    assert claim.max_abs_diff >= 0.01 * 0.2 - 1e-12


def test_verified_claims_match(report):
    claims = _by_id(report)
    for cid in ("covid_endemic_ratio_beta_hat", "covid_endemic_ratio_gamma_hat",
                "covid_endemic_h_star_convention", "covid_ngm_det_v",
                "covid_ngm_minor_m11"):
        assert claims[cid].verdict == MATCH, cid


def test_known_transcription_gaps_flagged(report):
    claims = _by_id(report)
    for cid in ("covid_endemic_ratio_alpha_hat", "covid_ngm_minor_m12",
                "covid_ngm_minor_m21", "covid_ngm_minor_m22",
                "covid_ngm_r0_quadratic_formula", "covid_dfe_jacobian_determinant",
                "covid_splitting_cubic_coefficients", "cubic_conjugate_pair_half_factor",
                "second_compound_10x10_display", "seir_dfe_compound_display",
                "seir_endemic_i1_divisor", "covid_dfe_jacobian_display"):
        assert claims[cid].verdict == FLAGGED, cid
        assert claims[cid].max_abs_diff > 1e-8, cid


def test_compound_display_gap_location(report):
    # the only disagreement in the 10x10 display sits at (10, 9): -a43 vs +a43
    claim = _by_id(report)["second_compound_10x10_display"]
    paper = np.array(claim.paper_value)
    oracle = np.array(claim.oracle_value)
    diff = abs(paper - oracle)
    assert np.argwhere(diff > 1e-12).tolist() == [[9, 8]]
    assert diff[9, 8] == pytest.approx(2.0 * abs(oracle[9, 8]), rel=1e-12)


def test_report_is_deterministic():
    from epistab import table_params
    p = table_params(0.1)
    a = report_to_dicts(build_report(p))
    b = report_to_dicts(build_report(p))
    assert a == b


@pytest.mark.parametrize("beta10", [0.1, 0.2, 0.6])
def test_stacked_ngm_determinants_equal_determinant_bit_for_bit(beta10):
    p = covid.table_params(beta10)
    parts = [covid.ngm_full(p, x) for x in [covid.dfe(p).state, *paper_check._seeded()[0]]]
    vs = np.array([q.V for q in parts])
    stacked_det_v = np.linalg.det(vs).tolist()
    stacked_minors = np.linalg.det(vs.reshape(len(vs), 25)[:, paper_check._MINORS]).tolist()
    # each matrix on its own: V, and its (1,1), (1,2), (2,1), (2,2) minors cut out by np.delete
    single = [[determinant(v)] + [determinant(np.delete(np.delete(v, i, 0), j, 1))
                                  for i in (0, 1) for j in (0, 1)] for v in vs]
    assert [[d, *m] for d, m in zip(stacked_det_v, stacked_minors)] == single
    claims = {c.claim_id: c for c in build_report(p)}
    for k, (cid, closed) in enumerate((("covid_ngm_det_v", "detV_closed"),
                                       ("covid_ngm_minor_m11", "m11"),
                                       ("covid_ngm_minor_m12", "m12"),
                                       ("covid_ngm_minor_m21", "m21"),
                                       ("covid_ngm_minor_m22", "m22"))):
        assert claims[cid].oracle_value == single[0][k], cid
        assert claims[cid].max_abs_diff == max(
            abs(getattr(q, closed) - dets[k]) for q, dets in zip(parts, single)), cid


def test_seeded_parts_are_shared_and_read_only():
    a = build_report(covid.table_params(0.1))
    b = build_report(covid.table_params(0.2).replace(B=1.3, mu=0.02),
                     seir.SeirParams(Lambda=1.2, beta1=0.4, beta2=0.5, mu=0.2, gamma=0.15, d=0.05))
    for cid, shared in (("cubic_conjugate_pair_half_factor", True),
                        ("second_compound_10x10_display", True), ("seir_jacobian", False)):
        assert (_by_id(a)[cid].to_dict() == _by_id(b)[cid].to_dict()) is shared, cid
    compound = _by_id(a)["second_compound_10x10_display"]
    states, _, _, seir_states = paper_check._seeded()
    for array in (*states, seir_states, compound.paper_value, compound.oracle_value):
        with pytest.raises(ValueError):
            array[0] = 1.0
