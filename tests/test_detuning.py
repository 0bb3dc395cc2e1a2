import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoquery.detuning import (
    ExperimentConfig,
    _min_separation,
    bv3_sweep,
    detuned_probe_temperature,
    flip_probability,
    suppression_factor,
)
from thermoquery.cli import main
from thermoquery.query import kickback_outcome
from thermoquery.thermal import (
    BooleanFunctionTable,
    ThermalQubit,
    build_custom_oracle,
    build_dj_oracle,
    inverse_temperature_from_population,
)

def triple_loop_min_separation(curves: dict[str, list[float | None]]) -> float:
    """Closest approach of two curves, pair by pair and point by point (reference)."""
    secrets = sorted(curves)
    best = math.inf
    for i, si in enumerate(secrets):
        for sj in secrets[i + 1 :]:
            for vi, vj in zip(curves[si], curves[sj]):
                if vi is None or vj is None:
                    continue
                best = min(best, abs(vi - vj))
    return best if best < math.inf else math.nan


def as_curves(values: np.ndarray) -> dict[str, list[float | None]]:
    return {f"{i:03b}": [None if math.isnan(v) else float(v) for v in row] for i, row in enumerate(values)}


DEFAULT_CONFIG = ExperimentConfig(
    machine_gaps=(1.0, 1.13, 1.31), bias=0.05, coupling=4.0, machine_inverse_temperature=1.0
)


class TestFlipProbability:
    def test_resonant_pi_pulse(self):
        assert flip_probability(1.0, 0.0, math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_time(self):
        assert flip_probability(1.0, 0.5, 0.0) == 0.0

    def test_phase_past_the_float_range_rejected_by_name(self):
        """A finite time whose phase overflows is a ValueError naming time,
        not math.sin's domain error."""
        with pytest.raises(ValueError, match=r"time must keep the phase .* finite, got 1e\+308"):
            flip_probability(4.0, 0.0, 1e308)
        assert 0.0 <= flip_probability(4.0, 0.0, 1e307) <= 1.0

    def test_detuned_peak_touches_envelope(self):
        g = delta = 1.0
        time = math.pi / math.sqrt(2.0)
        value = flip_probability(g, delta, time)
        assert value == pytest.approx(0.5, abs=1e-12)
        assert value <= suppression_factor(g, delta) + 1e-12

    @given(
        g=st.floats(0.05, 5.0),
        delta=st.floats(-5.0, 5.0),
        time=st.floats(0.0, 50.0),
    )
    @settings(max_examples=200)
    def test_envelope_property(self, g, delta, time):
        assert flip_probability(g, delta, time) <= suppression_factor(g, delta) + 1e-12

    def test_invalid_coupling(self):
        with pytest.raises(ValueError):
            flip_probability(0.0, 0.1, 1.0)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
class TestNonFiniteInput:
    """Each argument that is not finite raises a ValueError naming it, not a
    NaN or a math domain error."""

    def test_flip_probability(self, value):
        with pytest.raises(ValueError, match="coupling g"):
            flip_probability(value, 0.1, 1.0)
        with pytest.raises(ValueError, match="detuning"):
            flip_probability(1.0, value, 1.0)
        with pytest.raises(ValueError, match="time"):
            flip_probability(1.0, 0.1, value)

    def test_suppression_factor(self, value):
        with pytest.raises(ValueError, match="coupling g"):
            suppression_factor(value, 1.0)
        with pytest.raises(ValueError, match="detuning"):
            suppression_factor(1.0, value)


class TestSuppressionFactor:
    def test_no_detuning(self):
        assert suppression_factor(1.0, 0.0) == 1.0

    def test_detuning_equal_to_coupling(self):
        assert suppression_factor(2.0, 2.0) == 0.5

    def test_monotone_in_absolute_detuning(self):
        deltas = np.linspace(0.0, 4.0, 40)
        values = [suppression_factor(1.0, d) for d in deltas]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert suppression_factor(1.0, -1.3) == suppression_factor(1.0, 1.3)

    @pytest.mark.parametrize("g, detuning, eta", [
        (1e200, 1.0, 1.0),  # g*g overflows
        (1e200, 1e200, 0.5),
        (1e-200, 1e-200, 0.5),  # both squares underflow
        (1e-200, -1e-200, 0.5),
        (3e-200, 4e-200, 9.0 / 25.0),
        (1e-200, 1.0, 0.0),  # eta = 1e-400 underflows
        (5e-324, 5e-324, 0.5),
    ])
    def test_extremes_of_the_float_range(self, g, detuning, eta):
        assert suppression_factor(g, detuning) == pytest.approx(eta, rel=1e-15, abs=0.0)

    def test_matches_the_flip_probability_peak(self, rng):
        """At t = pi / sqrt(g^2 + d^2) the flip probability reaches eta."""
        for g, detuning in zip(rng.uniform(0.1, 3.0, 200), rng.uniform(-3.0, 3.0, 200)):
            peak = flip_probability(g, detuning, math.pi / math.hypot(g, detuning))
            assert peak == pytest.approx(suppression_factor(g, detuning), rel=1e-15, abs=0.0)


class TestDetunedTemperature:
    def test_full_transfer_matches_kickback(self, rng):
        for _ in range(50):
            gaps = rng.uniform(0.2, 2.0, int(rng.integers(1, 5)))
            oracle = build_custom_oracle(gaps, float(rng.uniform(0.1, 1.5)))
            probe = ThermalQubit(float(rng.uniform(0.25, 2.0)), float(rng.uniform(-1.2, 1.2)))
            outcome = kickback_outcome(probe, oracle)
            value = detuned_probe_temperature(probe, oracle, 1.0)
            assert value == outcome.beta_after

    def test_no_exchange_keeps_probe_temperature(self):
        oracle = build_custom_oracle([1.0, 0.5], 1.0)
        probe = ThermalQubit(1.5, 1.0)  # equal Boltzmann exponents
        for eta in (0.2, 0.7, 1.0):
            assert detuned_probe_temperature(probe, oracle, eta) == pytest.approx(1.0, abs=1e-12)

    def test_two_paths_agree(self):
        # Scaling delta_p0 by eta and inverting the population must match the
        # closed form.
        probe = ThermalQubit(1.0, 0.2)
        oracle = build_dj_oracle(BooleanFunctionTable(1, (0, 1)), 1.0, 0.5, 1.0)
        outcome = kickback_outcome(probe, oracle)
        eta = 0.5
        via_population = inverse_temperature_from_population(
            outcome.p0_before + eta * outcome.delta_p0, probe.gap
        )
        assert detuned_probe_temperature(probe, oracle, eta) == pytest.approx(
            via_population, abs=1e-10
        )

    def test_monotone_in_eta(self):
        probe = ThermalQubit(1.0, 0.0)
        cooling = build_custom_oracle([1.0, 0.9], 1.0)
        etas = np.linspace(0.05, 1.0, 30)
        values = [detuned_probe_temperature(probe, cooling, float(e)) for e in etas]
        assert all(b > a for a, b in zip(values, values[1:]))
        heating = build_custom_oracle([0.1], 0.5)
        probe_hot = ThermalQubit(1.5, 1.0)
        values = [detuned_probe_temperature(probe_hot, heating, float(e)) for e in etas]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_eta_validation(self):
        oracle = build_custom_oracle([1.0], 1.0)
        with pytest.raises(ValueError):
            detuned_probe_temperature(ThermalQubit(1.0, 0.0), oracle, 0.0)
        with pytest.raises(ValueError):
            detuned_probe_temperature(ThermalQubit(1.0, 0.0), oracle, 1.5)


class TestExperimentConfig:
    def test_omega_defaults_to_total_gap(self):
        assert DEFAULT_CONFIG.omega == pytest.approx(3.44)
        explicit = ExperimentConfig(machine_gaps=(1.0, 1.0, 1.0), bias=0.1, coupling=1.0, probe_gap=2.5)
        assert explicit.omega == 2.5

    def test_gaps_for_secret(self):
        gaps = DEFAULT_CONFIG.gaps_for_secret("101")
        assert gaps == pytest.approx((1.05, 1.13 * 0.95, 1.31 * 1.05))

    def test_detunings_are_bias_weighted_signed_sums(self):
        cfg = DEFAULT_CONFIG
        assert cfg.detuning_for_secret("111") == pytest.approx(0.05 * 3.44)
        assert cfg.detuning_for_secret("000") == pytest.approx(-0.05 * 3.44)
        assert cfg.detuning_for_secret("011") == pytest.approx(0.05 * (-1.0 + 1.13 + 1.31))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_probe_gap_or_coupling_rejected(self, value):
        with pytest.raises(ValueError, match="probe gap"):
            ExperimentConfig(machine_gaps=(1.0, 1.0, 1.0), bias=0.1, coupling=1.0, probe_gap=value)
        with pytest.raises(ValueError, match="coupling"):
            ExperimentConfig(machine_gaps=(1.0, 1.0, 1.0), bias=0.1, coupling=value)

    def test_overflowing_default_probe_gap_rejected(self):
        # Three finite gaps whose sum, the default probe gap, is not.
        with pytest.raises(ValueError, match="probe gap"):
            ExperimentConfig(machine_gaps=(1e308, 1e308, 1e308), bias=0.1, coupling=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(machine_gaps=(1.0, 1.0), bias=0.1, coupling=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(machine_gaps=(1.0, 1.0, 1.0), bias=-0.1, coupling=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(machine_gaps=(1.0, 1.0, 1.0), bias=0.1, coupling=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(machine_gaps=(1.0, 1.0, 1.0), bias=1.0, coupling=1.0)


class TestSweep:
    def test_eight_distinct_curves_with_distinct_gaps(self):
        sweep = bv3_sweep(DEFAULT_CONFIG, np.linspace(0.0, 3.0, 31))
        assert len(sweep.secrets()) == 8
        assert sweep.min_pairwise_separation > 0.0

    def test_equal_gaps_collapse_by_hamming_weight(self):
        config = ExperimentConfig(machine_gaps=(1.0, 1.0, 1.0), bias=0.05, coupling=4.0)
        sweep = bv3_sweep(config, np.linspace(0.0, 3.0, 11))
        assert len(set(sweep.curves)) == 4
        assert sweep.min_pairwise_separation == 0.0

    def test_zero_bias_collapses_everything(self):
        config = ExperimentConfig(machine_gaps=(1.0, 1.13, 1.31), bias=0.0, coupling=4.0)
        sweep = bv3_sweep(config, np.linspace(0.0, 3.0, 11))
        assert len(set(sweep.curves)) == 1

    def test_deterministic(self):
        grid = np.linspace(0.0, 3.0, 7)
        assert bv3_sweep(DEFAULT_CONFIG, grid) == bv3_sweep(DEFAULT_CONFIG, grid)

    def test_csv_format(self, tmp_path):
        # The sweep's CSV form is the detuning-sweep subcommand's output.
        out = tmp_path / "sweep.csv"
        assert main(["detuning-sweep", "--beta-s", "0,1", "--out", str(out)]) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == "secret,beta_S,delta_s,eta,beta_S_prime"
        assert len(lines) == 1 + 8 * 2
        first = lines[1].split(",")
        assert first[0] == "000"
        sweep = bv3_sweep(DEFAULT_CONFIG, [0.0, 1.0])
        assert float(first[4]) == sweep.curves[0][0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            bv3_sweep(DEFAULT_CONFIG, [])

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_grid_rejected(self, value):
        with pytest.raises(ValueError, match="probe inverse temperature must be finite"):
            bv3_sweep(DEFAULT_CONFIG, [0.0, value, 1.0])

    @pytest.mark.parametrize("beta_s", [10.0, -10.0])
    def test_grid_times_probe_gap_overflow_rejected(self, beta_s):
        """A grid value whose product with the probe gap passes the largest
        double is refused, not carried into the kernel as an overflow."""
        config = ExperimentConfig(machine_gaps=(1.0, 1.13, 1.31), bias=0.05, coupling=4.0, probe_gap=1e308)
        with pytest.raises(ValueError, match="times the probe gap 1e\\+308 must be finite"):
            bv3_sweep(config, [0.0, beta_s])

    def test_points_curves_and_secrets_agree(self):
        """curves, delta_s and eta hold one entry per secret of secrets(), in
        lexicographic order, with the secret's own detuning and suppression."""
        config = ExperimentConfig(
            machine_gaps=(1.0, 1.13, 1.31), bias=0.3, coupling=4.0, machine_inverse_temperature=300.0
        )
        grid = np.linspace(-300.0, 300.0, 7)
        sweep = bv3_sweep(config, grid)
        secrets = [format(i, "03b") for i in range(8)]
        assert sweep.secrets() == secrets
        assert sweep.beta_s_grid == tuple(grid.tolist())
        assert sweep.delta_s == tuple(config.detuning_for_secret(secret) for secret in secrets)
        assert sweep.eta == tuple(suppression_factor(config.coupling, delta) for delta in sweep.delta_s)
        for secret, eta, curve in zip(secrets, sweep.eta, sweep.curves, strict=True):
            oracle = config.oracle_for_secret(secret)
            expected = [detuned_probe_temperature(ThermalQubit(config.omega, float(b)), oracle, eta) for b in grid]
            assert curve == tuple(expected)
        assert any(None in curve for curve in sweep.curves)


class TestMinSeparation:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_triple_loop_with_gaps(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(8, 13))
        values[rng.random(values.shape) < 0.3] = math.nan
        values[rng.random(values.shape) < 0.05] = math.inf
        expected = triple_loop_min_separation(as_curves(values))
        assert _min_separation(values) == expected

    def test_sweep_with_undefined_points(self):
        # A cold machine and a cold probe: the probe's excited population
        # underflows and the temperature is undefined at some points.
        config = ExperimentConfig(
            machine_gaps=(1.0, 1.13, 1.31), bias=0.3, coupling=4.0, machine_inverse_temperature=300.0
        )
        sweep = bv3_sweep(config, np.linspace(-300.0, 300.0, 31))
        curves = {s: list(curve) for s, curve in zip(sweep.secrets(), sweep.curves)}
        assert any(v is None for curve in curves.values() for v in curve)
        assert sweep.min_pairwise_separation == triple_loop_min_separation(curves)

    def test_all_undefined_is_nan(self):
        values = np.full((8, 4), math.nan)
        assert math.isnan(triple_loop_min_separation(as_curves(values)))
        assert math.isnan(_min_separation(values))

    def test_only_one_curve_defined_is_nan(self):
        values = np.full((8, 4), math.nan)
        values[2] = 1.0
        assert math.isnan(_min_separation(values))

    def test_only_infinite_gaps_is_nan(self):
        values = np.full((8, 4), math.nan)
        values[2], values[3] = 1.0, math.inf
        assert math.isnan(triple_loop_min_separation(as_curves(values)))
        assert math.isnan(_min_separation(values))
