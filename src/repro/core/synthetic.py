"""Synthetic traffic generation from a fitted characterization.

This is what the methodology is *for*: "these distributions can be used
in the analysis of ICNs for developing realistic performance models."
A :class:`SyntheticTrafficGenerator` drives a mesh with closed-loop
per-source processes whose inter-arrival gaps, destinations and message
lengths are drawn from the characterization's fitted models -- no
application execution needed.  Each source waits for its message's
delivery before drawing the next gap, so network latency also
throttles the offered load.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

from repro.core.attributes import CommunicationCharacterization
from repro.core.bursts import BurstModel, estimate_bursts
from repro.core.options import RunOptions
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.simkernel import Simulator, hold
from repro.stats.spatial_models import SpatialPattern, UniformPattern, choice_sampler


class SyntheticTrafficGenerator:
    """Closed-loop traffic generator parameterized by a characterization.

    Parameters
    ----------
    characterization:
        A fitted :class:`CommunicationCharacterization`; its temporal
        fit paces injections, its per-source spatial patterns choose
        destinations, and its discrete length modes size the messages.
    mesh_config:
        Geometry/timing of the mesh to drive.
    seed:
        RNG seed (one independent stream per source).
    rate_scale:
        Multiplier on the characterized injection rate (>1 = heavier
        load), for load sweeps.
    options:
        Optional :class:`~repro.core.options.RunOptions` selecting the
        kernel's run-safety knobs for each ``generate``.
    """

    def __init__(
        self,
        characterization: CommunicationCharacterization,
        mesh_config: Optional[MeshConfig] = None,
        seed: int = 1234,
        rate_scale: float = 1.0,
        options: Optional[RunOptions] = None,
    ) -> None:
        if rate_scale <= 0:
            raise ValueError(f"rate_scale must be > 0, got {rate_scale}")
        self.characterization = characterization
        self.mesh_config = mesh_config or MeshConfig()
        if self.mesh_config.num_nodes != characterization.num_nodes:
            raise ValueError(
                f"characterization is for {characterization.num_nodes} nodes, "
                f"mesh has {self.mesh_config.num_nodes}"
            )
        self.seed = seed
        self.rate_scale = rate_scale
        self.options = options or RunOptions()
        #: Windowed live-telemetry series of the most recent
        #: :meth:`generate` (None unless the options request sampling).
        self.live_series = None
        sizes = list(characterization.volume.length_fractions.items())
        self._length_values = np.array([s for s, _ in sizes], dtype=int)
        self._length_probs = np.array([p for _, p in sizes], dtype=float)
        self._length_probs /= self._length_probs.sum()

    def _pattern_for(self, src: int) -> SpatialPattern:
        fit = self.characterization.spatial.per_source.get(src)
        if fit is None:
            return UniformPattern()
        return fit.pattern

    def _interarrival_sampler(self, src: int):
        temporal = self.characterization.temporal
        fit = temporal.per_source_fits.get(src, temporal.fit)
        distribution = fit.distribution
        # Shape from the fitted distribution, rate from the measured
        # mean: density regression on heavy-tailed series nails the
        # shape (cv, modality) better than the mean, and the validation
        # criterion cares about matching the measured generation rate.
        # Per-source fits rescale to their own processor's measured
        # mean; the aggregate fit rescales to the network-wide mean.
        target_mean = temporal.per_source_means.get(
            src, temporal.mean_interarrival
        )
        dist_mean = distribution.mean()
        rate_correction = target_mean / dist_mean if dist_mean > 0 else 1.0

        def sample(rng: np.random.Generator) -> float:
            return max(distribution.sample(rng) * rate_correction, 0.0)

        return sample

    def source_entries(self, messages_per_source: int = 200) -> Dict[int, Iterator]:
        """Each fitted source's ``messages_per_source`` ``(gap, dst,
        length_bytes, None, "synthetic")`` entries for
        :meth:`MeshNetwork.start_sources`, drawn lazily."""
        if messages_per_source < 1:
            raise ValueError(
                f"messages_per_source must be >= 1, got {messages_per_source}"
            )
        num_nodes = self.mesh_config.num_nodes
        sources = sorted(self.characterization.spatial.per_source)
        n_sources = max(len(sources), 1)
        # One independent child stream per node: SeedSequence spawning
        # guarantees no collisions across nearby sweep seeds, unlike
        # ``seed + 1000 * src`` arithmetic where (seed=1000, src=0) and
        # (seed=0, src=1) would share a stream.
        streams = np.random.SeedSequence(self.seed).spawn(num_nodes)
        draw_length = choice_sampler(self._length_values, self._length_probs)

        def entries(draw_dst, sampler, rng, scale):
            # Drawn lazily, gap then destination then length.
            for _ in range(messages_per_source):
                gap = sampler(rng) * scale / self.rate_scale
                yield gap, draw_dst(rng), draw_length(rng), None, "synthetic"

        per_source = {}
        for src in sources:
            use_aggregate = src not in self.characterization.temporal.per_source_fits
            per_source[src] = entries(
                self._pattern_for(src).destination_sampler(src, num_nodes),
                self._interarrival_sampler(src),
                np.random.default_rng(streams[src]),
                n_sources if use_aggregate else 1.0,
            )
        return per_source

    def generate(self, messages_per_source: int = 200) -> NetworkLog:
        """Drive a fresh mesh with :meth:`source_entries`; returns its
        activity log."""
        per_source = self.source_entries(messages_per_source)
        network = MeshNetwork(
            Simulator(), self.mesh_config, log=self.options.make_netlog("synthetic")
        )
        network.start_sources(per_source, "synthetic")
        log = network.run(self.options, label="drive")
        self.live_series = network.live_series
        return log


class PhaseCoupledTrafficGenerator:
    """Burst-correlated traffic generator (cross-source coupling).

    :class:`SyntheticTrafficGenerator` treats sources as independent,
    which reproduces marginals but not the barrier-synchronized bursts
    of real applications -- so synthetic contention underestimates the
    original's (see :mod:`repro.core.validation`).  This generator
    replays whole *bursts* instead: a fitted
    :class:`~repro.core.bursts.BurstModel` alternates dense injection
    phases (messages from many sources packed at within-burst gaps)
    with silent inter-burst intervals, recovering the clustered channel
    pressure.

    Parameters
    ----------
    characterization:
        The fitted three-attribute model (spatial patterns and length
        modes are reused unchanged).
    burst_model:
        Burst structure; fitted from ``source_log`` if omitted.
    source_log:
        The original activity log to estimate bursts from (required
        when ``burst_model`` is None).
    mesh_config, seed, rate_scale, options:
        As for :class:`SyntheticTrafficGenerator`.
    """

    def __init__(
        self,
        characterization: CommunicationCharacterization,
        burst_model: Optional[BurstModel] = None,
        source_log: Optional[NetworkLog] = None,
        mesh_config: Optional[MeshConfig] = None,
        seed: int = 1234,
        rate_scale: float = 1.0,
        options: Optional[RunOptions] = None,
    ) -> None:
        if rate_scale <= 0:
            raise ValueError(f"rate_scale must be > 0, got {rate_scale}")
        self.options = options or RunOptions()
        if burst_model is None:
            if source_log is None:
                raise ValueError("need either burst_model or source_log")
            burst_model = estimate_bursts(source_log.interarrival_times())
        self.characterization = characterization
        self.burst_model = burst_model
        self.mesh_config = mesh_config or MeshConfig()
        if self.mesh_config.num_nodes != characterization.num_nodes:
            raise ValueError(
                f"characterization is for {characterization.num_nodes} nodes, "
                f"mesh has {self.mesh_config.num_nodes}"
            )
        self.seed = seed
        self.rate_scale = rate_scale
        #: Windowed live-telemetry series of the most recent
        #: :meth:`generate` (None unless the options request sampling).
        self.live_series = None
        sizes = list(characterization.volume.length_fractions.items())
        self._length_values = np.array([s for s, _ in sizes], dtype=int)
        self._length_probs = np.array([p for _, p in sizes], dtype=float)
        self._length_probs /= self._length_probs.sum()
        counts = characterization.volume.per_source_messages
        sources = sorted(characterization.spatial.per_source)
        weights = np.array([counts.get(s, 1) for s in sources], dtype=float)
        self._sources = sources
        self._source_probs = weights / weights.sum()

    def _pattern_for(self, src: int) -> SpatialPattern:
        fit = self.characterization.spatial.per_source.get(src)
        return fit.pattern if fit is not None else UniformPattern()

    def generate(self, total_messages: int = 1000) -> NetworkLog:
        """Drive a fresh mesh with ``total_messages`` burst-clustered
        messages; returns the activity log."""
        if total_messages < 1:
            raise ValueError(f"total_messages must be >= 1, got {total_messages}")
        network = MeshNetwork(
            Simulator(), self.mesh_config, log=self.options.make_netlog("synthetic")
        )
        rng = np.random.default_rng(self.seed)
        model = self.burst_model
        num_nodes = self.mesh_config.num_nodes
        burst_p = 1.0 / max(model.mean_burst_size, 1.0)
        draw_source = choice_sampler(self._sources, self._source_probs)
        draw_dst = {
            src: self._pattern_for(src).destination_sampler(src, num_nodes)
            for src in self._sources
        }
        draw_length = choice_sampler(self._length_values, self._length_probs)

        def driver():
            sent = 0
            while sent < total_messages:
                burst_size = min(int(rng.geometric(burst_p)), total_messages - sent)
                for _ in range(burst_size):
                    src = draw_source(rng)
                    dst = draw_dst[src](rng)
                    length = draw_length(rng)
                    network.inject(
                        NetworkMessage(src=src, dst=dst, length_bytes=length, kind="burst")
                    )
                    gap = rng.exponential(max(model.mean_within_gap, 1e-9))
                    yield hold(gap / self.rate_scale)
                    sent += 1
                    if sent >= total_messages:
                        break
                lull = rng.exponential(model.mean_between_gap)
                yield hold(lull / self.rate_scale)

        network.simulator.process(driver(), name="burst-driver")
        log = network.run(self.options, label="drive")
        self.live_series = network.live_series
        return log
