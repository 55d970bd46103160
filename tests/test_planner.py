from fractions import Fraction

import pytest

from secrid.planner import PlanReport, plan


def test_golden_plan_snapshot():
    # frozen end-to-end plan for the reference operating point
    report = plan(q=59049, ell=2, k=20, kappa=0.2)
    assert (report.p, report.m) == (3, 10)
    assert report.coeff_count == 231
    assert report.eps_2rs == Fraction(19721, 1162261467)
    assert (report.rs_k_in, report.rs_k_out) == (2, 115)
    assert report.n_challenges == 2
    assert report.per_challenge_epsilon == pytest.approx(4.1192e-3, rel=1e-4)
    assert report.ell_prime == 3
    assert report.ell_prime_real == pytest.approx(2.65751, abs=1e-4)
    assert report.wire_plain_symbols == 6   # n * (ell + 1)
    assert report.wire_secret_symbols == 10  # n * (ell + ell_prime)
    assert report.identity_bits == pytest.approx(3661.2634, abs=1e-3)


def test_plan_is_deterministic():
    a = plan(q=59049, ell=2, k=20, kappa=0.2)
    b = plan(q=59049, ell=2, k=20, kappa=0.2)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_plan_json_has_exact_error_and_wire_bits():
    report = plan(q=59049, ell=2, k=20, kappa=0.2)
    obj = report.to_json_dict()
    assert obj["eps_2rs_exact"] == "19721/1162261467"
    assert obj["wire_plain_bits"] == report.wire_plain_symbols * 16
    assert obj["wire_secret_bits"] == report.wire_secret_symbols * 16


def test_budget_override_changes_secrecy_not_challenges():
    base = plan(q=59049, ell=2, k=20, kappa=0.2)
    tighter = plan(q=59049, ell=2, k=20, kappa=0.2, epsilon_total=1e-9)
    assert tighter.n_challenges == base.n_challenges
    assert tighter.eps_2rs == base.eps_2rs
    assert tighter.ell_prime >= base.ell_prime
    assert tighter.epsilon_total == 1e-9


def test_additive_policy_needs_no_longer_ciphertext_than_root():
    root = plan(q=81, ell=2, k=10, kappa=0.3, budget_policy="paper")
    additive = plan(q=81, ell=2, k=10, kappa=0.3, budget_policy="additive")
    assert additive.per_challenge_epsilon <= root.per_challenge_epsilon
    assert additive.ell_prime >= root.ell_prime


def test_more_challenges_when_baseline_is_stronger():
    # raising ell (hence the size budget) strengthens the layered baseline,
    # which can only push the required challenge count up
    counts = [plan(q=3 ** 10, ell=ell, k=10 * ell, kappa=0.0).n_challenges
              for ell in (2, 3, 4)]
    assert counts == sorted(counts)


def test_plan_kappa_zero_and_validation():
    report = plan(q=25, ell=1, k=2, kappa=0.0)
    assert report.ell_prime >= 2
    with pytest.raises(ValueError):
        plan(q=25, ell=1, k=2, kappa=1.0)
    with pytest.raises(ValueError):
        plan(q=26, ell=1, k=2, kappa=0.0)
    with pytest.raises(ValueError):
        plan(q=25, ell=1, k=2, kappa=0.2, budget_policy="bogus")


def test_plan_report_is_frozen():
    report = plan(q=25, ell=1, k=2, kappa=0.0)
    assert isinstance(report, PlanReport)
    with pytest.raises(AttributeError):
        report.ell_prime = 5


def test_plan_refuses_a_code_past_the_float_range():
    # C(59300, 300) * log2 q has no float; this raised OverflowError
    with pytest.raises(ValueError, match="past 2\\^1024, the float range"):
        plan(59049, 300, 59000, 0.2)


@pytest.mark.parametrize(
    "policy,k,n", [("paper", 20, 2), ("additive", 1, 1)], ids=["paper", "additive"]
)
def test_plan_refuses_a_budget_whose_share_leaves_the_unit_interval(policy, k, n):
    # a total in (0, 2] whose share per challenge is past 1: 1.5^(1/2), 1.5 / 1
    with pytest.raises(ValueError) as info:
        plan(q=59049, ell=2, k=k, kappa=0.2, budget_policy=policy, epsilon_total=1.5)
    assert str(info.value).startswith(
        f"budget 1.5 split over {n} challenges by the {policy!r} policy leaves "
    )
    assert str(info.value).endswith(" per challenge, outside (0, 1]")
    # split over two challenges, additive leaves 0.75
    report = plan(q=59049, ell=2, k=20, kappa=0.2, budget_policy="additive", epsilon_total=1.5)
    assert (report.n_challenges, report.per_challenge_epsilon) == (2, 0.75)
