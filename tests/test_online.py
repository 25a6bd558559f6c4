"""Tests for runtime (online) reconfiguration and network retuning."""

import pytest

from repro.control import ControlConfig, ControlLoop
from repro.control.loop import Phase
from repro.core import RFIOverlay, baseline
from repro.core.reconfig import ReconfigurationController
from repro.noc import (
    Message, MeshTopology, Network, RoutingTables, Shortcut,
)
from repro.noc.simulator import Simulator
from repro.params import ArchitectureParams, MeshParams, SimulationParams
from repro.traffic import (
    PhasedSource, ProbabilisticTraffic, all_patterns, hotspot_at,
)

PARAMS = ArchitectureParams()


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshParams())


class TestApplyShortcuts:
    def test_retune_idle_network(self, topo):
        first = RoutingTables(topo, [Shortcut(11, 88)])
        net = Network(topo, PARAMS, first)
        net.inject(Message(src=11, dst=88, size_bytes=39))
        assert net.drain(300)
        second = RoutingTables(topo, [Shortcut(22, 77)])
        net.apply_shortcuts(second)
        # Old RF port gone, new one present and usable end to end.
        assert 5 not in net.routers[11].out_links
        assert 5 in net.routers[22].out_links
        pkt = net.inject(Message(src=22, dst=77, size_bytes=39))
        assert net.drain(300)
        assert pkt.rf_hops == 1

    def test_refuses_with_packets_in_flight(self, topo):
        net = Network(topo, PARAMS, RoutingTables(topo, [Shortcut(11, 88)]))
        net.inject(Message(src=0, dst=99, size_bytes=39))
        net.step()
        with pytest.raises(RuntimeError):
            net.apply_shortcuts(RoutingTables(topo, []))

    def test_retune_to_empty(self, topo):
        net = Network(topo, PARAMS, RoutingTables(topo, [Shortcut(11, 88)]))
        net.apply_shortcuts(RoutingTables(topo, []))
        net.inject(Message(src=11, dst=88, size_bytes=39))
        assert net.drain(500)
        assert net.stats.rf_hop_sum == 0


class TestPhasedSource:
    def test_cycles_through_phases(self, topo):
        pats = all_patterns(topo)
        a = ProbabilisticTraffic(topo, pats["uniform"], 0.05, seed=1)
        b = ProbabilisticTraffic(topo, pats["1Hotspot"], 0.05, seed=2)
        phased = PhasedSource([a, b], phase_cycles=10)
        assert phased.current(0) is a
        assert phased.current(10) is b
        assert phased.current(20) is a

    def test_requires_sources(self):
        with pytest.raises(ValueError):
            PhasedSource([], phase_cycles=10)


class TestOnlineReconfigurator:
    """The runtime reconfiguration state machine, as :class:`ControlLoop`
    runs it: measure -> drain (bounded by a deadline) -> pause -> measure."""

    def make(self, topo, source=None, **config):
        overlay = RFIOverlay(topo, topo.rf_enabled_routers(50), adaptive=True)
        controller = ReconfigurationController(topo, overlay)
        if source is None:
            pattern = hotspot_at(topo, [(7, 0)], strength=16)
            source = ProbabilisticTraffic(topo, pattern, 0.02, seed=3)
        config.setdefault("epoch_cycles", 800)
        config.setdefault("hysteresis", 0.0)
        net = baseline(16, PARAMS, topo).new_network()
        return net, ControlLoop(source, controller, ControlConfig(**config))

    def test_reconfigures_on_schedule(self, topo):
        net, loop = self.make(topo)
        sim = SimulationParams(warmup_cycles=100, measure_cycles=2_500,
                               drain_cycles=6_000)
        stats = Simulator(net, [loop], sim).run()
        assert loop.applied >= 1
        assert [r.epoch for r in loop.journal] == list(
            range(1, len(loop.journal) + 1))
        assert stats.delivered_packets > 0
        # The adapted network actually uses its shortcuts.
        assert stats.rf_hop_sum > 0

    def test_overhead_charged(self, topo):
        net, loop = self.make(topo)
        for _ in range(2_500):
            loop.tick(net)
            net.step()
        applied = [r for r in loop.journal if r.action == "applied"]
        assert applied
        for record in applied:
            # 99-cycle table update + tuning, plus a non-negative drain.
            assert record.overhead_cycles >= 99
            assert record.drain_cycles >= 0
            assert record.shortcuts == 16

    def test_postpones_without_evidence(self, topo):
        class Silent:
            def sample_messages(self, cycle):
                return []

        net, loop = self.make(topo, source=Silent(), epoch_cycles=50)
        for _ in range(500):
            loop.tick(net)
            net.step()
        assert loop.applied == 0
        assert len(loop.journal) >= 9
        assert {(r.action, r.reason) for r in loop.journal} == {
            ("skipped", "insufficient-traffic")}

    def test_decay_validated(self, topo):
        with pytest.raises(ValueError):
            self.make(topo, decay=1.5)

    def test_drain_deadline_validated(self, topo):
        with pytest.raises(ValueError):
            self.make(topo, drain_deadline_cycles=0)

    def _drain_busy(self, net, loop, cycles):
        """Force a drain, keeping the network busy so it never quiesces."""
        loop.phase = Phase.DRAIN
        loop._drain_started = net.cycle
        for _ in range(cycles):
            # A fresh wormhole every cycle: in_flight never reaches zero.
            net.inject(Message(src=0, dst=99, size_bytes=39))
            loop.tick(net)
            net.step()

    def test_drain_deadline_breaks_livelock(self, topo):
        """A network that never quiesces costs a skipped epoch, not a hang."""
        net, loop = self.make(topo, drain_deadline_cycles=5)
        self._drain_busy(net, loop, 10)
        [record] = loop.journal
        assert (record.action, record.reason) == ("skipped", "drain-deadline")
        assert record.drain_cycles == 5
        assert loop.phase is Phase.MEASURE
        assert loop.applied == 0
        # The next attempt is a full epoch later, not retried hot.
        assert loop.next_epoch_at == record.cycle + loop.config.epoch_cycles

    def test_keeps_draining_until_deadline(self, topo):
        net, loop = self.make(topo, drain_deadline_cycles=400)
        self._drain_busy(net, loop, 10)
        assert len(loop.journal) == 0
        assert loop.phase is Phase.DRAIN


class TestMulticastReconfigure:
    def test_multicast_reserves_band_and_transmitter(self, topo):
        import numpy as np

        overlay = RFIOverlay(topo, topo.rf_enabled_routers(50), adaptive=True)
        controller = ReconfigurationController(topo, overlay)
        frequency = np.random.default_rng(0).random(
            (topo.num_routers, topo.num_routers))
        transmitter = next(iter(overlay.access_points))
        plan = controller.reconfigure(
            frequency, multicast=True, multicast_transmitter=transmitter)
        # One band is the broadcast channel: budget - 1 shortcuts placed.
        assert len(plan.shortcuts) == controller.budget - 1
        # The transmitter's Tx mixer is taken by the multicast channel.
        assert all(s.src != transmitter for s in plan.shortcuts)
        # Every access-point Rx not claimed by a shortcut listens on the
        # broadcast channel (the transmitter's own free Rx included).
        assert plan.multicast_receivers
        claimed = {s.dst for s in plan.shortcuts}
        assert claimed.isdisjoint(plan.multicast_receivers)

    def test_multicast_requires_transmitter(self, topo):
        import numpy as np

        overlay = RFIOverlay(topo, topo.rf_enabled_routers(50), adaptive=True)
        controller = ReconfigurationController(topo, overlay)
        frequency = np.ones((topo.num_routers, topo.num_routers))
        with pytest.raises(ValueError):
            controller.reconfigure(frequency, multicast=True)

    def test_selection_config_not_mutated(self, topo):
        """The controller passes exclusions at construction, value-like."""
        overlay = RFIOverlay(topo, topo.rf_enabled_routers(50), adaptive=True)
        controller = ReconfigurationController(topo, overlay)
        config = controller._selection_config(4, frozenset({11}))
        assert config.budget == 4
        assert config.extra_forbidden == {11}
        # A fresh config without exclusions starts empty.
        assert controller._selection_config(4).extra_forbidden == set()


class TestVisualize:
    def test_heatmap_and_links(self, topo):
        from repro.noc.visualize import (
            hottest_links, render_link_report, render_traffic_heatmap,
            render_shortcuts,
        )

        net = Network(topo, PARAMS, RoutingTables(topo, [Shortcut(11, 88)]))
        source = ProbabilisticTraffic(
            topo, all_patterns(topo)["1Hotspot"], 0.03, seed=4
        )
        sim = SimulationParams(warmup_cycles=100, measure_cycles=600,
                               drain_cycles=4_000)
        stats = Simulator(net, [source], sim).run()
        heat = render_traffic_heatmap(stats, topo)
        assert len(heat.splitlines()) == 10
        links = hottest_links(stats, topo, count=5)
        assert len(links) == 5
        assert links[0][1] >= links[-1][1]
        report = render_link_report(stats, topo)
        assert "flits/cycle" in report
        drawing = render_shortcuts(topo, [Shortcut(11, 88)])
        assert drawing.count("s") == 1
        assert drawing.count("d") == 1

    def test_link_utilization_accessor(self, topo):
        net = Network(topo, PARAMS)
        net.stats.measure_start = 0
        net.inject(Message(src=0, dst=9, size_bytes=39))
        net.drain(300)
        net.stats.activity.cycles = net.cycle
        assert net.stats.link_utilization(0, 1) > 0
        assert net.stats.link_utilization(9, 8) == 0
