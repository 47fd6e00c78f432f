"""What the oracle evaluates per call, beside the values it returns."""

from eulertop.oracle import beta_action_value, verify_series_numerics
from eulertop.picardfuchs import assemble_beta_actions
from eulertop.series import KappaPoly


def test_verify_evaluates_each_coefficient_once_per_call(monkeypatch):
    calls = 0
    call = KappaPoly.__call__

    def counted(self, kappa):
        nonlocal calls
        calls += 1
        return call(self, kappa)

    monkeypatch.setattr(KappaPoly, "__call__", counted)
    samples = [0.005, -0.005, 0.02, -0.02]
    report = verify_series_numerics(0.5, samples, order=6, tol=1e-3, dps=30)
    plus, minus = assemble_beta_actions(6)
    series = plus.series
    # once per coefficient of the two series both sides sum, not per sample
    assert calls == len(series.action_regular.coeffs) + len(series.action_singular.regular_part.coeffs)
    assert [r.h for r in report.rows] == samples
    for row in report.rows:
        assert row.series_value == beta_action_value(plus if row.h > 0 else minus, 0.5, row.h, dps=30)
