"""Tests for the fluid model, Theorem 1 equilibrium and Theorem 2 dynamics."""

import pytest

from repro.analysis import (
    FluidModel,
    best_response_iteration,
    find_equilibrium,
    simulate_dynamics,
    symmetric_equilibrium_rate,
    theorem2_band,
)


class TestFluidModel:
    def test_loss_zero_below_capacity(self):
        model = FluidModel(100.0)
        assert model.loss([30.0, 40.0]) == 0.0

    def test_loss_formula_above_capacity(self):
        model = FluidModel(100.0)
        assert model.loss([80.0, 40.0]) == pytest.approx(1.0 - 100.0 / 120.0)

    def test_throughput_is_rate_times_delivery(self):
        model = FluidModel(100.0)
        rates = [80.0, 40.0]
        loss = model.loss(rates)
        assert model.throughput(rates, 0) == pytest.approx(80.0 * (1 - loss))

    def test_utility_close_to_throughput_when_no_loss(self):
        model = FluidModel(100.0)
        # sigmoid(-0.05 * alpha) is ~0.993, not exactly 1, so allow 1%.
        assert model.utility([20.0, 30.0], 0) == pytest.approx(20.0, rel=0.01)

    def test_utility_negative_when_loss_far_above_threshold(self):
        model = FluidModel(100.0, alpha=100.0)
        # Total 200 -> 50% loss: sigmoid ~ 0, utility ~ -x * L < 0.
        assert model.utility([100.0, 100.0], 0) < 0.0

    def test_recommended_alpha(self):
        model = FluidModel(100.0)
        assert model.recommended_alpha(2) == 100.0
        assert model.recommended_alpha(100) == pytest.approx(2.2 * 99)

    def test_best_response_unilateral_optimality(self):
        model = FluidModel(100.0)
        rates = [40.0, 30.0, 20.0]
        best = model.best_response(rates, 0)
        candidate = list(rates)
        candidate[0] = best
        best_utility = model.utility(candidate, 0)
        for deviation in [0.5, 0.9, 1.1, 1.5]:
            candidate[0] = best * deviation
            assert model.utility(candidate, 0) <= best_utility + 1e-6

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FluidModel(0.0)
        with pytest.raises(ValueError):
            FluidModel(10.0, alpha=-1)


class TestTheorem1:
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_equilibrium_is_fair(self, n):
        result = find_equilibrium(capacity=100.0, n=n)
        assert result.converged
        assert result.max_relative_spread < 1e-3

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_total_rate_in_proved_region(self, n):
        """Theorem 1's proof confines the total rate to (C, 20C/19)."""
        result = find_equilibrium(capacity=100.0, n=n)
        assert 100.0 < result.total_rate < 100.0 * 20.0 / 19.0 + 1e-6

    def test_two_senders_reach_fairness_under_the_dynamics(self):
        """For n = 2 the *unrestricted* static game also has boundary points
        with total ~= C where best-response iteration can stall; Theorem 1 is
        stated over the region the dynamics actually reach (total in
        (C, 20C/19)), so fairness for n = 2 is verified through the Theorem 2
        update dynamics instead of continuous best responses."""
        model = FluidModel(100.0, alpha=100.0)
        result = simulate_dynamics(model, [80.0, 20.0], epsilon=0.05, steps=1000)
        final = result.final_rates
        assert abs(final[0] - final[1]) / (sum(final) / len(final)) < 0.25

    def test_uniqueness_from_different_starting_points(self):
        model = FluidModel(100.0, alpha=100.0)
        a = best_response_iteration(model, [10.0, 10.0, 10.0, 10.0])
        b = best_response_iteration(model, [90.0, 5.0, 1.0, 60.0])
        assert a.converged and b.converged
        assert a.rates == pytest.approx(b.rates, rel=1e-3)

    def test_symmetric_rate_matches_iteration(self):
        model = FluidModel(50.0, alpha=100.0)
        x_hat = symmetric_equilibrium_rate(model, 4)
        iterated = best_response_iteration(model, [5.0, 10.0, 15.0, 20.0])
        assert iterated.rates == pytest.approx([x_hat] * 4, rel=1e-3)

    def test_scales_linearly_with_capacity(self):
        small = symmetric_equilibrium_rate(FluidModel(10.0), 3)
        large = symmetric_equilibrium_rate(FluidModel(1000.0), 3)
        assert large / small == pytest.approx(100.0, rel=1e-3)


class TestTheorem2:
    def test_two_senders_converge_into_band(self):
        model = FluidModel(100.0, alpha=100.0)
        result = simulate_dynamics(model, [90.0, 10.0], epsilon=0.05, steps=800)
        assert result.converged
        assert result.converged_step is not None

    def test_band_definition(self):
        lo, hi = theorem2_band(50.0, 0.05)
        assert lo == pytest.approx(50.0 * 0.95 ** 2)
        assert hi == pytest.approx(50.0 * 1.05 ** 2)

    def test_three_senders_converge(self):
        model = FluidModel(100.0, alpha=100.0)
        result = simulate_dynamics(model, [60.0, 30.0, 5.0], epsilon=0.03,
                                   steps=1500)
        assert result.converged

    def test_convergence_to_fairness_not_just_efficiency(self):
        model = FluidModel(100.0, alpha=100.0)
        result = simulate_dynamics(model, [95.0, 5.0], epsilon=0.05, steps=1000)
        final = result.final_rates
        assert abs(final[0] - final[1]) / (sum(final) / len(final)) < 0.25

    def test_heterogeneous_step_policies_still_converge(self):
        """§2.2: the argument is independent of the step function mix."""
        model = FluidModel(100.0, alpha=100.0)
        policies = [
            lambda rate, direction: rate + direction * 1.0,          # AIAD
            lambda rate, direction: rate * (1.0 + 0.04 * direction), # MIMD
        ]
        result = simulate_dynamics(model, [80.0, 10.0], epsilon=0.05, steps=2000,
                                   step_policies=policies)
        final = result.final_rates
        # Both senders end near the fair share despite different step rules.
        assert abs(final[0] - final[1]) / (sum(final) / len(final)) < 0.3

    def test_trajectory_shape(self):
        model = FluidModel(100.0, alpha=100.0)
        result = simulate_dynamics(model, [50.0, 50.0], epsilon=0.01, steps=10)
        assert len(result.trajectory) == 11
        assert all(len(row) == 2 for row in result.trajectory)
