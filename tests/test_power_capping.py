"""Priority-aware capping against every breaker of the delivery tree."""

import pytest

from repro.cluster import Host, VMInstance, VMSpec, cap_to_delivery_limits
from repro.errors import ConfigurationError, PowerBudgetExceeded
from repro.power import DeliveryLevel, DeliveryNode, PowerDeliveryHierarchy
from repro.silicon import OC1
from repro.thermal import TWO_PHASE_IMMERSION


def loaded_host(host_id: str) -> Host:
    """An overclocked, fully packed host: 283 W at full load."""
    host = Host(host_id, cooling=TWO_PHASE_IMMERSION)
    host.set_config(OC1)
    for index in range(7):
        host.place(VMInstance(f"{host_id}-vm{index}", VMSpec(4, 8.0)))
    return host


def two_rack_row(row_watts, rack_watts=(450.0, 450.0), priorities=(0, 10)):
    """One row over two racks of one host each; host ``r{k}-h0`` under
    ``rack-{k}`` gets ``priorities[k]`` (lower sheds first)."""
    nodes = [DeliveryNode("row", DeliveryLevel.ROW, row_watts)]
    hosts = {}
    for rack, (watts, priority) in enumerate(zip(rack_watts, priorities)):
        name = f"r{rack}-h0"
        nodes.append(DeliveryNode(f"rack-{rack}", DeliveryLevel.RACK_PDU, watts, parent="row"))
        nodes.append(DeliveryNode(name, DeliveryLevel.HOST, watts, parent=f"rack-{rack}"))
        hosts[name] = (loaded_host(name), priority)
    return PowerDeliveryHierarchy(nodes), hosts


def breaches(hierarchy, hosts):
    draws = hierarchy.rollup({name: host.power_watts(1.0) for name, (host, _) in hosts.items()})
    return [name for name, draw in draws.items() if draw > hierarchy.nodes[name].rated_watts]


class TestCapToDeliveryLimits:
    def test_no_capping_when_sized_generously(self):
        hierarchy, hosts = two_rack_row(row_watts=1000.0)
        assert breaches(hierarchy, hosts) == []
        assert cap_to_delivery_limits(hierarchy, hosts) == []

    def test_low_priority_hosts_shed_first(self):
        hierarchy, hosts = two_rack_row(row_watts=450.0)
        assert breaches(hierarchy, hosts) == ["row"]
        results = cap_to_delivery_limits(hierarchy, hosts)
        assert breaches(hierarchy, hosts) == []
        capped = {result.host_id: result.capped for result in results}
        assert capped == {"r0-h0": True, "r1-h0": False}

    def test_children_capped_before_parents(self):
        # The high-priority host's own rack is breached as well as the
        # row. Capping it inside its rack also clears the row, so the
        # low-priority host in the healthy rack keeps its clock; a
        # parents-first walk would have shed that host at the row.
        hierarchy, hosts = two_rack_row(
            row_watts=560.0, rack_watts=(260.0, 450.0), priorities=(10, 0)
        )
        assert set(breaches(hierarchy, hosts)) == {"row", "rack-0", "r0-h0"}
        results = cap_to_delivery_limits(hierarchy, hosts)
        assert [result.host_id for result in results] == ["r0-h0"]
        assert results[0].capped
        assert hosts["r1-h0"][0].config is OC1
        assert breaches(hierarchy, hosts) == []

    def test_unresolvable_breach_raises(self):
        hierarchy, hosts = two_rack_row(row_watts=50.0, rack_watts=(50.0, 50.0))
        with pytest.raises(PowerBudgetExceeded):
            cap_to_delivery_limits(hierarchy, hosts)

    def test_host_map_must_cover_every_host_node(self):
        hierarchy, hosts = two_rack_row(row_watts=1000.0)
        del hosts["r1-h0"]
        with pytest.raises(ConfigurationError):
            cap_to_delivery_limits(hierarchy, hosts)
