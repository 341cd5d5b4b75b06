"""Unit tests for the adaptation controllers and the rollback manager."""

from __future__ import annotations

import pytest

from repro.core.adaptive import (
    AutomaticController,
    FrequencyBounds,
    HintBasedController,
    OnDemandController,
)
from repro.core.config import IdeaConfig, MetricWeights
from repro.core.rollback import RollbackManager
from repro.store.replica import Replica


def config(**kwargs):
    kwargs.setdefault("hint_level", 0.9)
    kwargs.setdefault("hint_delta", 0.02)
    return IdeaConfig(**kwargs)


class TestOnDemandController:
    def test_no_resolution_without_demand_or_threshold(self):
        controller = OnDemandController(config(hint_level=0.0))
        assert not controller.should_resolve(0.5)
        assert not controller.may_resolve()

    def test_explicit_demand_triggers_once(self):
        controller = OnDemandController(config(hint_level=0.0))
        controller.demand_resolution()
        assert controller.may_resolve()
        assert controller.should_resolve(1.0)
        assert controller.consume_demand()
        assert not controller.consume_demand()
        assert not controller.may_resolve()

    def test_complaint_learns_new_threshold(self):
        controller = OnDemandController(config(hint_level=0.0, hint_delta=0.05))
        record = controller.complain(time=10.0, level=0.8)
        assert record.new_threshold == pytest.approx(0.85)
        assert controller.should_resolve(0.84)
        assert not controller.should_resolve(0.86) or controller.consume_demand()
        controller.consume_demand()
        assert controller.may_resolve()  # the learned threshold stays

    def test_complaint_never_lowers_threshold(self):
        controller = OnDemandController(config(hint_level=0.9))
        controller.complain(time=1.0, level=0.2)
        assert controller.learned_threshold >= 0.9

    def test_complaint_with_reweighting(self):
        controller = OnDemandController(config(hint_level=0.0))
        new_weights = MetricWeights(0.6, 0.2, 0.2)
        record = controller.complain(time=1.0, level=0.7, new_weights=new_weights)
        assert record.reweighted
        assert controller.weights is new_weights

    def test_threshold_capped_at_one(self):
        controller = OnDemandController(config(hint_level=0.0, hint_delta=0.5))
        controller.complain(time=1.0, level=0.9)
        assert controller.learned_threshold <= 1.0


class TestHintBasedController:
    def test_resolve_below_hint_only(self):
        controller = HintBasedController(config(hint_level=0.9))
        assert controller.should_resolve(0.85)
        assert not controller.should_resolve(0.95)

    def test_zero_hint_disables(self):
        controller = HintBasedController(config(hint_level=0.0))
        assert not controller.should_resolve(0.01)
        assert not controller.may_resolve()
        controller.set_hint(1.0, 0.5)
        assert controller.may_resolve()

    def test_set_hint_at_runtime(self):
        controller = HintBasedController(config(hint_level=0.95))
        controller.set_hint(100.0, 0.90)
        assert controller.hint_level == 0.90
        assert controller.hint_history[-1] == (100.0, 0.90)

    def test_invalid_hint_rejected(self):
        controller = HintBasedController(config(hint_level=0.9))
        with pytest.raises(ValueError):
            controller.set_hint(1.0, 1.5)

    def test_complaint_raises_hint_by_delta(self):
        """L1 + Δ becomes the new desired level (paper Section 2)."""
        controller = HintBasedController(config(hint_level=0.90, hint_delta=0.02))
        record = controller.complain(time=5.0, level=0.89)
        assert controller.hint_level == pytest.approx(0.92)
        assert record.new_threshold == pytest.approx(0.92)

    def test_repeated_complaints_keep_raising(self):
        controller = HintBasedController(config(hint_level=0.90, hint_delta=0.05))
        controller.complain(1.0, 0.89)
        controller.complain(2.0, 0.90)
        assert controller.hint_level == pytest.approx(1.0)


class TestAutomaticController:
    def test_requires_positive_period(self):
        with pytest.raises(ValueError):
            AutomaticController(config(background_period=None))

    def test_never_resolves_on_level(self):
        controller = AutomaticController(config(background_period=20.0))
        assert not controller.should_resolve(0.0)
        assert not controller.may_resolve()

    def test_optimal_period_follows_formula_4(self):
        controller = AutomaticController(config(background_period=20.0,
                                                bandwidth_cap_fraction=0.2))
        # budget = 1 Mbps * 20% = 200 kbps; round cost = 100 kbit -> 2 rounds/s
        period = controller.optimal_period(1_000_000, 100_000)
        assert period == pytest.approx(1.0, abs=1e-6) or period >= 1.0

    def test_adapt_to_load_records_adjustment(self):
        controller = AutomaticController(config(background_period=20.0))
        controller.adapt_to_load(5.0, 1_000_000, 10_000_000)
        assert controller.adjustments
        assert controller.adjustments[-1][2] == "bandwidth"

    def test_overselling_speeds_up_and_learns_bound(self):
        controller = AutomaticController(config(background_period=40.0))
        new_period = controller.report_overselling(10.0)
        assert new_period < 40.0
        assert controller.bounds.max_period == 40.0

    def test_underselling_slows_down_and_learns_bound(self):
        controller = AutomaticController(config(background_period=10.0))
        new_period = controller.report_underselling(10.0)
        assert new_period > 10.0
        assert controller.bounds.min_period == 10.0

    def test_learned_bounds_clamp_future_adjustments(self):
        controller = AutomaticController(config(background_period=40.0))
        controller.report_overselling(1.0)     # max_period = 40
        period = controller.optimal_period(1_000, 1_000_000_000)   # wants huge period
        assert period <= 40.0

    def test_invalid_inputs_rejected(self):
        controller = AutomaticController(config(background_period=20.0))
        with pytest.raises(ValueError):
            controller.optimal_period(0, 1)
        with pytest.raises(ValueError):
            controller.optimal_period(1, 0)


class TestFrequencyBounds:
    def test_clamp(self):
        bounds = FrequencyBounds(min_period=10.0, max_period=40.0)
        assert bounds.clamp(5.0) == 10.0
        assert bounds.clamp(100.0) == 40.0
        assert bounds.clamp(20.0) == 20.0


class TestRollbackManager:
    def make_replica_with_history(self):
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0, payload="before", applied_at=1.0)
        replica.local_write("n0", 12.0, payload="after", applied_at=12.0)
        return replica

    def test_close_results_stay_silent(self):
        manager = RollbackManager(IdeaConfig(rollback_tolerance=0.05))
        replica = self.make_replica_with_history()
        pending = manager.register_estimate(object_id="obj", node_id="n0",
                                            reported_at=10.0, top_layer_level=0.80,
                                            user_threshold=0.75)
        decision = manager.verify(pending, bottom_layer_level=0.78, replica=replica,
                                  now=20.0)
        assert not decision.alert_user
        assert not decision.rolled_back

    def test_large_discrepancy_alerts(self):
        alerts = []
        manager = RollbackManager(IdeaConfig(rollback_tolerance=0.05),
                                  on_alert=alerts.append)
        replica = self.make_replica_with_history()
        pending = manager.register_estimate(object_id="obj", node_id="n0",
                                            reported_at=10.0, top_layer_level=0.95,
                                            user_threshold=0.0)
        decision = manager.verify(pending, bottom_layer_level=0.60, replica=replica,
                                  now=20.0)
        assert decision.alert_user
        assert not decision.rolled_back          # still acceptable: no threshold
        assert alerts

    def test_unacceptable_corrected_level_rolls_back(self):
        manager = RollbackManager(IdeaConfig(rollback_tolerance=0.05))
        replica = self.make_replica_with_history()
        pending = manager.register_estimate(object_id="obj", node_id="n0",
                                            reported_at=10.0, top_layer_level=0.95,
                                            user_threshold=0.90)
        decision = manager.verify(pending, bottom_layer_level=0.70, replica=replica,
                                  now=20.0)
        assert decision.rolled_back
        assert [r.payload for r in decision.rolled_back_updates] == ["after"]
        assert replica.content() == ["before"]
        assert manager.rollback_count() == 1
        assert manager.alert_count() == 1

    def test_pending_list_tracks_registrations(self):
        manager = RollbackManager(IdeaConfig())
        manager.register_estimate(object_id="obj", node_id="n0", reported_at=1.0,
                                  top_layer_level=0.9, user_threshold=0.8)
        assert len(manager.pending("obj")) == 1
        assert manager.pending("other") == []
