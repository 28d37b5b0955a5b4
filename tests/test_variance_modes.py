"""Variance-reduced forest sampling: the variance_mode contract.

Pins down the three claims behind the mode knob:

- **measured reduction.** The empirical-variance harness
  (:func:`repro.forests.statistics.empirical_variance_ratio`) shows
  stratified banks at least halving the bank-mean variance of i.i.d.
  improved banks at equal forest count — the ≥1.5× gain that
  ``VARIANCE_GAIN`` encodes and ``recommended_size`` discounts by.
- **unbiasedness.** Coupling changes variance only: every mode's
  estimates still converge to the exact PPR vector.
- **plumbing.** The mode flows from ``PPRConfig`` / solver kwargs down
  to the samplers and estimators, is recorded on indexes and in stats,
  and the ``strata`` work counter is credited.
"""

import json

import numpy as np
import pytest

from repro.core.api import single_source
from repro.core.config import VARIANCE_GAIN, VARIANCE_MODES, PPRConfig
from repro.exceptions import ConfigError
from repro.forests.statistics import empirical_variance_ratio
from repro.graph.generators import chung_lu
from repro.linalg.exact import ExactSolver
from repro.montecarlo.forest_index import ForestIndex

ALPHA = 0.25


@pytest.fixture(scope="module")
def graph():
    degrees = 2.0 + 8.0 * (np.arange(400) % 23) / 22.0
    return chung_lu(degrees, rng=7)


class TestEmpiricalVarianceHarness:
    """The acceptance measurement behind VARIANCE_GAIN."""

    def test_stratified_halves_the_improved_variance(self, graph):
        residual = np.zeros(graph.num_nodes)
        residual[0] = 1.0
        ratio = empirical_variance_ratio(
            graph, ALPHA, residual, num_forests=16, repetitions=60,
            mode="stratified", baseline_mode="improved", rng=7)
        assert ratio >= 1.5

    def test_gain_constants_are_conservative(self):
        # the table promises no more than what the harness measures
        assert VARIANCE_GAIN["improved"] == 1.0
        assert 1.0 < VARIANCE_GAIN["stratified"] <= 1.5

    def test_harness_validation(self, graph):
        residual = np.zeros(graph.num_nodes)
        residual[0] = 1.0
        with pytest.raises(ConfigError, match="repetitions"):
            empirical_variance_ratio(graph, ALPHA, residual,
                                     repetitions=1)
        with pytest.raises(ConfigError, match="unknown variance mode"):
            empirical_variance_ratio(graph, ALPHA, residual,
                                     mode="antithetic")


class TestUnbiasedness:
    def test_stratified_bank_mean_matches_exact(self, graph):
        exact = ExactSolver(graph, ALPHA).single_source(0)
        residual = np.zeros(graph.num_nodes)
        residual[0] = 1.0
        index = ForestIndex.build(graph, ALPHA, 64, rng=5,
                                  variance_mode="stratified")
        estimate = index.estimate_source_many(residual)[0]
        assert estimate.sum() == pytest.approx(1.0)
        # a pure forest fold (no push stage) at F=64 is a loose
        # estimate; this is a bias sanity check, the variance claims
        # live in TestEmpiricalVarianceHarness
        assert np.abs(estimate - exact).sum() < 0.6

class TestBuildModes:
    def test_stratified_build_records_mode_and_strata(self, graph):
        index = ForestIndex.build(graph, ALPHA, 8, rng=3,
                                  variance_mode="stratified")
        assert index.variance_mode == "stratified"
        assert index.build_counters.strata > 0
        # the mode rides into the serialized bank meta
        _, meta = index.bank_arrays()
        assert meta["variance_mode"] == "stratified"

    def test_default_build_mode_is_improved(self, graph):
        index = ForestIndex.build(graph, ALPHA, 2, rng=3)
        assert index.variance_mode == "improved"
        assert index.build_counters.strata == 0

    def test_unknown_mode_rejected(self, graph):
        with pytest.raises(ConfigError, match="variance_mode"):
            ForestIndex.build(graph, ALPHA, 2, rng=3,
                              variance_mode="antithetic")

    @pytest.mark.parametrize("mode", ["control_variate", "bogus"])
    def test_bank_with_unknown_mode_rejected(self, graph, tmp_path, mode):
        index = ForestIndex.build(graph, ALPHA, 2, rng=3)
        index.save_bank(tmp_path / "bank")
        manifest_path = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["variance_mode"] = mode
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError) as excinfo:
            ForestIndex.load_bank(tmp_path / "bank", graph)
        message = str(excinfo.value)
        assert repr(mode) in message
        assert "'improved'" in message and "'stratified'" in message


class TestRecommendedSize:
    def test_stratified_discount_shrinks_the_bank(self, graph):
        improved = ForestIndex.recommended_size(graph, 0.25)
        stratified = ForestIndex.recommended_size(
            graph, 0.25, variance_mode="stratified")
        assert stratified < improved
        gain = VARIANCE_GAIN["stratified"]
        base = ForestIndex.recommended_size(graph)
        assert stratified == max(base,
                                 int(np.ceil(base / (0.25 * gain))))

    def test_log_floor_is_never_discounted(self, graph):
        base = ForestIndex.recommended_size(graph)
        assert ForestIndex.recommended_size(
            graph, 1e9, variance_mode="stratified") == base

    def test_validation(self, graph):
        with pytest.raises(ConfigError, match="variance_mode"):
            ForestIndex.recommended_size(graph, 0.25,
                                         variance_mode="antithetic")
        with pytest.raises(ConfigError, match="epsilon"):
            ForestIndex.recommended_size(graph, -0.5)


class TestConfigPlumbing:
    def test_modes_table_is_closed(self):
        assert VARIANCE_MODES == ("improved", "stratified")
        assert set(VARIANCE_GAIN) == set(VARIANCE_MODES)

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="variance_mode"):
            PPRConfig(variance_mode="antithetic")

    def test_solver_override_reaches_the_stats(self, graph):
        result = single_source(graph, 0, method="speedlv", alpha=ALPHA,
                               epsilon=0.5, seed=9,
                               variance_mode="stratified")
        assert result.stats["variance_mode"] == "stratified"
        assert result.estimates.sum() == pytest.approx(1.0, abs=1e-6)

    def test_stratified_and_improved_agree_statistically(self, graph):
        # same seed, different coupling: answers differ but both are
        # valid distributions over the same support
        improved = single_source(graph, 0, method="speedlv", alpha=ALPHA,
                                 epsilon=0.5, seed=9)
        stratified = single_source(graph, 0, method="speedlv",
                                   alpha=ALPHA, epsilon=0.5, seed=9,
                                   variance_mode="stratified")
        assert np.abs(improved.estimates
                      - stratified.estimates).sum() < 0.5


class TestDynamicGuard:
    def test_dynamic_build_rejects_coupled_modes(self, graph):
        from repro.montecarlo.dynamic_index import DynamicForestIndex

        with pytest.raises(ConfigError, match="variance_mode"):
            DynamicForestIndex.build(graph, ALPHA, 2, rng=3,
                                     variance_mode="stratified")
