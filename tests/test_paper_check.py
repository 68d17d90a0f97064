import json

import numpy as np
import pytest
from reference import lu_solve

from epistab import covid, paper_check, seir
from epistab.linalg import SingularMatrixError, determinant
from epistab.paper_check import FLAGGED, MATCH, build_report


@pytest.fixture(scope="module")
def report():
    from epistab import table_params
    return build_report(table_params(0.1))


def _by_id(report):
    return {c.claim_id: c for c in report}


def test_claim_ids_unique_and_schema(report):
    ids = [c.claim_id for c in report]
    assert len(ids) == len(set(ids))
    for d in (c.to_dict() for c in report):
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
    a = [c.to_dict() for c in build_report(p)]
    b = [c.to_dict() for c in build_report(p)]
    assert a == b


@pytest.mark.parametrize("beta10", [0.1, 0.2, 0.6])
def test_stacked_ngm_determinants_equal_determinant_bit_for_bit(beta10):
    p = covid.table_params(beta10)
    probes = [covid.dfe(p).state, *paper_check._seeded()[0]]
    vs = np.array([covid.ngm_matrices(p, x)[1] for x in probes])
    stacked_det_v = np.linalg.det(vs).tolist()
    stacked_minors = np.linalg.det(vs.reshape(len(vs), 25)[:, paper_check._MINORS]).tolist()
    # each matrix on its own: V, and its (1,1), (1,2), (2,1), (2,2) minors cut out by np.delete
    single = [[determinant(v)] + [determinant(np.delete(np.delete(v, i, 0), j, 1))
                                  for i in (0, 1) for j in (0, 1)] for v in vs]
    assert [[d, *m] for d, m in zip(stacked_det_v, stacked_minors)] == single
    # the printed forms divide by that one det V per probe
    printed = [paper_check.ngm_printed(p, x, dets[0]) for x, dets in zip(probes, single)]
    claims = {c.claim_id: c for c in build_report(p)}
    for k, cid in enumerate(("covid_ngm_det_v", "covid_ngm_minor_m11", "covid_ngm_minor_m12",
                             "covid_ngm_minor_m21", "covid_ngm_minor_m22")):
        assert claims[cid].oracle_value == single[0][k], cid
        assert claims[cid].max_abs_diff == max(
            abs(q[k] - dets[k]) for q, dets in zip(printed, single)), cid


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


def _ngm_radius_per_probe(fs, vs, det_v):
    """rho(F V^-1) one probe at a time: its det guard, then the reference LU."""
    radii = []
    for f, v, d in zip(fs, vs, det_v):
        if abs(d) < 1e-300:
            raise SingularMatrixError("transition matrix V is singular", abs(d))
        radii.append(float(abs(np.linalg.eigvals(f @ lu_solve(v, np.eye(5)))).max()))
    return radii


def test_ngm_claims_and_r0_full_equal_the_per_probe_loop_bit_for_bit():
    rng = np.random.default_rng(20261020)
    base, states = covid.table_params(0.1).to_dict(), paper_check._seeded()[0]
    for _ in range(1000):
        factors = rng.uniform(0.5, 1.5, size=len(base))
        p = covid.CovidParams(**{k: v * f for (k, v), f in zip(base.items(), factors)})
        probes = [covid.dfe(p).state, *states]
        fs, vs = zip(*(covid.ngm_matrices(p, x) for x in probes))
        single = [[determinant(v)] + [determinant(np.delete(np.delete(v, i, 0), j, 1))
                                      for i in (0, 1) for j in (0, 1)] for v in vs]
        oracles = [s + [r] for s, r in zip(single, _ngm_radius_per_probe(fs, vs, [s[0] for s in single]))]
        assert [covid.r0_full(p, x) for x in probes] == [o[5] for o in oracles]
        printed = [paper_check.ngm_printed(p, x, o[0]) for x, o in zip(probes, oracles)]
        claims = paper_check.claim_ngm(p, probes)
        assert [c.claim_id[:10] for c in claims] == ["covid_ngm_"] * 6
        for k, c in enumerate(claims):
            diff = max(abs(q[k] - o[k]) for q, o in zip(printed, oracles))
            assert (c.paper_value, c.oracle_value, c.max_abs_diff) == (printed[0][k], oracles[0][k], diff)
            assert c.verdict == (MATCH if diff <= 1e-8 else FLAGGED)


def _outcome(f, *args):
    try:
        return f(*args)
    except SingularMatrixError as exc:
        return str(exc), exc.pivot


@pytest.mark.parametrize("det_at", [None, 0, 1, 2, 3, 4])
@pytest.mark.parametrize("pivot_at", [None, 0, 1, 2, 3, 4])
def test_stacked_ngm_radius_raises_what_the_per_probe_loop_raises(det_at, pivot_at):
    p = covid.table_params(0.1)
    probes = [covid.dfe(p).state, *paper_check._seeded()[0]]
    fs, vs = (np.array(a) for a in zip(*(covid.ngm_matrices(p, x) for x in probes)))
    if pivot_at is not None:  # det V = 1e-14 passes the det guard, not the pivot floor
        vs[pivot_at] = np.diag([1.0, 1.0, 1.0, 1.0, 1e-14])
    if det_at is not None:  # a zero column: det V = 0 fails the det guard
        vs[det_at][:, 4] = 0.0
    det_v = np.linalg.det(vs).tolist()
    want = _outcome(_ngm_radius_per_probe, fs, vs, det_v)
    assert _outcome(covid.ngm_radius, fs, vs, det_v) == want
    first = min(k for k in (det_at, pivot_at, 5) if k is not None)
    assert type(want) is (list if first == 5 else tuple)
    if first < 5:
        assert want[0].startswith("transition matrix V is singular" if first == det_at
                                  else "matrix is singular to working precision")
