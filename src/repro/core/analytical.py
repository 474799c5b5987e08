"""Analytical wormhole-network performance model.

The methodology's purpose is feeding *analytical* ICN models with
realistic workloads ("these distributions can be used in the analysis
of ICNs for developing realistic performance models" -- and the paper
cites Adve & Vernon's and Kim & Das's analytical models as consumers).
This module closes that loop: it takes a fitted
:class:`~repro.core.attributes.CommunicationCharacterization` and a
network configuration and predicts mean latency, contention, channel
utilizations and the saturation load with an open queueing
approximation:

* per-channel arrival rates come from the characterized per-source
  rates and spatial fractions pushed through the deterministic routes;
* each channel is an M/G/1-style server whose occupancy per message is
  the wormhole service time (body flits plus per-hop overhead);
* a message's contention is the sum of the queueing delays of the
  channels it crosses; latency adds the zero-load pipeline time.

Experiment E16 validates these predictions against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.attributes import CommunicationCharacterization
from repro.mesh.config import MeshConfig


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Model outputs at one load point.

    Attributes
    ----------
    mean_latency:
        Predicted mean end-to-end message latency.
    mean_contention:
        Predicted mean per-message queueing delay.
    max_channel_utilization:
        Peak channel load (saturation indicator; >= 1 means the model
        predicts an unstable channel).
    mean_channel_utilization:
        Average over used channels.
    saturated:
        Whether any channel is at or beyond unit utilization.
    """

    mean_latency: float
    mean_contention: float
    max_channel_utilization: float
    mean_channel_utilization: float
    saturated: bool


class WormholeLatencyModel:
    """Queueing-theoretic latency predictor for characterized traffic.

    Parameters
    ----------
    characterization:
        Fitted workload (rates, spatial fractions, length modes).
    mesh_config:
        Network geometry and timing (any supported topology).
    """

    def __init__(
        self,
        characterization: CommunicationCharacterization,
        mesh_config: Optional[MeshConfig] = None,
    ) -> None:
        self.characterization = characterization
        self.config = mesh_config or MeshConfig()
        if self.config.num_nodes != characterization.num_nodes:
            raise ValueError(
                f"characterization is for {characterization.num_nodes} nodes, "
                f"network has {self.config.num_nodes}"
            )
        self.topology = self.config.make_topology()
        self._build_traffic_matrix()

    def _build_traffic_matrix(self) -> None:
        """Per-pair message rates from the characterized attributes."""
        c = self.characterization
        n = c.num_nodes
        total_rate = c.temporal.rate
        counts = c.volume.per_source_messages
        total_messages = sum(counts.values()) or 1
        self._pair_rates = np.zeros((n, n))
        for src in range(n):
            source_share = counts.get(src, 0) / total_messages
            source_rate = total_rate * source_share
            fractions = c.spatial.fraction_matrix[src]
            self._pair_rates[src] = source_rate * fractions

    def mean_message_flits(self) -> float:
        """Expected flit count from the characterized length modes."""
        modes = self.characterization.volume.length_fractions
        return sum(
            fraction * self.config.flits_for(size) for size, fraction in modes.items()
        )

    def channel_service_time(self) -> float:
        """Mean time a message occupies one channel (wormhole hold)."""
        flits = self.mean_message_flits()
        return self.config.routing_time + flits * self.config.channel_time

    def _channel_rates(self, rate_scale: float) -> Dict[Tuple[int, int], float]:
        rates: Dict[Tuple[int, int], float] = {}
        routes = self.topology.routes
        n = self.characterization.num_nodes
        for src in range(n):
            for dst in range(n):
                rate = self._pair_rates[src, dst] * rate_scale
                if rate <= 0 or src == dst:
                    continue
                for hop in routes.get(src, dst):
                    key = (hop.src, hop.dst)
                    rates[key] = rates.get(key, 0.0) + rate
        return rates

    def predict(self, rate_scale: float = 1.0) -> AnalyticalEstimate:
        """Model outputs at ``rate_scale`` times the characterized load."""
        if rate_scale <= 0:
            raise ValueError(f"rate_scale must be > 0, got {rate_scale}")
        service = self.channel_service_time()
        # Virtual channels share physical bandwidth in the simulator's
        # optimistic lane model; mirror that by splitting channel load.
        lanes = max(self.config.virtual_channels, 1)
        channel_rates = self._channel_rates(rate_scale)
        utilizations = {
            key: rate * service / lanes for key, rate in channel_rates.items()
        }
        waits = {}
        for key, rho in utilizations.items():
            if rho >= 1.0:
                waits[key] = float("inf")
            else:
                # M/M/1-style queueing delay per traversal.
                waits[key] = rho * service / (1.0 - rho)

        # Aggregate over pairs, weighted by pair rate.
        routes = self.topology.routes
        n = self.characterization.num_nodes
        total_rate = 0.0
        weighted_latency = 0.0
        weighted_contention = 0.0
        mean_flits = self.mean_message_flits()
        mean_bytes = max(
            int(round((mean_flits - self.config.header_flits) * self.config.flit_bytes)),
            0,
        )
        for src in range(n):
            for dst in range(n):
                rate = self._pair_rates[src, dst] * rate_scale
                if rate <= 0 or src == dst:
                    continue
                route = routes.get(src, dst)
                base = self.config.zero_load_latency(len(route), mean_bytes)
                queueing = sum(waits[(h.src, h.dst)] for h in route)
                total_rate += rate
                weighted_latency += rate * (base + queueing)
                weighted_contention += rate * queueing
        if total_rate <= 0:
            raise ValueError("characterized workload has no traffic to model")

        util_values = list(utilizations.values())
        return AnalyticalEstimate(
            mean_latency=weighted_latency / total_rate,
            mean_contention=weighted_contention / total_rate,
            max_channel_utilization=max(util_values) if util_values else 0.0,
            mean_channel_utilization=(
                sum(util_values) / len(util_values) if util_values else 0.0
            ),
            saturated=any(u >= 1.0 for u in util_values),
        )

    def saturation_scale(self, tolerance: float = 1e-3) -> float:
        """Load multiplier at which the hottest channel saturates.

        Channel utilization is linear in ``rate_scale``, so this is the
        reciprocal of the unit-load peak utilization.
        """
        base = self.predict(1.0)
        if base.max_channel_utilization <= 0:
            return float("inf")
        return 1.0 / base.max_channel_utilization
