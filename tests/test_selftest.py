"""The built-in diagnostic suite: healthy pass, broken builds name the property."""

import numpy as np
import pytest

from plmpc import qp as qp_mod
from plmpc import rls as rls_mod
from plmpc import selftest
from plmpc.qp import QpProblem


def test_all_checks_pass_on_healthy_build():
    messages = []
    failures = selftest.run_checks(report=messages.append)
    assert failures == []
    assert len(messages) == len(selftest.CHECKS)
    assert all(m.startswith("PASS ") for m in messages)


def test_check_names_are_unique_and_stable():
    names = [name for name, _ in selftest.CHECKS]
    assert len(names) == len(set(names)) == 12
    assert "rls-inverse-pair" in names
    assert "qp-matches-kkt-oracle" in names
    assert "planner-matches-dense-linear-oracle" in names


def test_disabled_forgetting_is_named_by_the_suite(monkeypatch):
    # neutering the directional discount must trip its own named check; the
    # state-free oracle checks cannot be affected (identity forgetting still
    # keeps the pair an exact inverse), while checks that run a live loop may
    # legitimately drift with the altered estimator
    monkeypatch.setattr(rls_mod, "directional_forget",
                        lambda info, cov, phi, lam: (np.asarray(info, dtype=float),
                                                     np.asarray(cov, dtype=float)))
    failures = selftest.run_checks(report=lambda _m: None)
    failed = [name for name, _ in failures]
    assert "rls-directional-forgetting-identity" in failed
    loop_driven = {"planner-matches-dense-linear-oracle",
                   "closed-loop-deterministic", "closed-loop-tracking-improves"}
    assert set(failed) <= {"rls-directional-forgetting-identity"} | loop_driven
    for untouched in ("rls-inverse-pair", "rls-batch-equivalence",
                      "qp-matches-kkt-oracle", "qp-constraints-match-recursion"):
        assert untouched not in failed


def test_broken_solver_is_named_by_the_suite(monkeypatch):
    def explode(problem):
        raise RuntimeError("injected")

    monkeypatch.setattr(qp_mod, "solve", explode)
    failures = selftest.run_checks(report=lambda _m: None)
    failed = [name for name, _ in failures]
    assert "qp-matches-kkt-oracle" in failed
    assert all(msg for _, msg in failures)


# --- the oracles themselves --------------------------------------------------------

def test_batch_oracle_with_no_data_returns_prior():
    theta0 = np.array([1.0, -2.0])
    got = selftest.batch_least_squares(theta0, 3.0 * np.eye(2), [], [])
    assert np.allclose(got, theta0, atol=1e-12)


def test_batch_oracle_closed_form_single_observation():
    # scalar: (r0 + phi^2) theta = r0*theta0 + y*phi
    got = selftest.batch_least_squares([0.5], np.array([[2.0]]), [3.0], [[1.0]])
    assert got[0] == pytest.approx((2.0 * 0.5 + 3.0) / 3.0, abs=1e-14)


def test_kkt_oracle_scalar_closed_form():
    # y = 2u - 1, cost (y-3)^2 + 0.5 u^2
    problem = QpProblem(np.zeros((1, 1)), np.array([[2.0]]), np.array([-1.0]),
                        1.0, 0.5, np.array([-6.0]))
    x = selftest.kkt_solve(problem)
    u_star = 2.0 * (3.0 + 1.0) / (4.0 + 0.5)
    assert x[1] == pytest.approx(u_star, abs=1e-12)


def test_dense_linear_oracle_rejects_varying_dictionaries():
    from plmpc.basis import AtanPair, Constant
    from plmpc.model import ModelStructure
    from plmpc.mpc import HorizonState

    state = HorizonState(anchor=0.0, past_y=np.empty(0), past_u=np.empty(0),
                         commands=np.zeros(2))
    bad = ModelStructure(1, (Constant(),), (AtanPair(),), None)
    with pytest.raises(ValueError):
        selftest.dense_linear_plan(bad, np.zeros(3), state, 1.0, 0.1)
