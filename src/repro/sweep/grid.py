"""Declarative experiment grids and their expansion into cells.

The paper's methodology is a grid — applications x processor counts x
strategies x network configurations — and every scaling or ablation
study on top of it is too.  A :class:`GridSpec` declares the axes
(app, mesh/topology, coherence protocol, injection rate scale, seed);
:meth:`GridSpec.expand` turns it into a deterministic list of
:class:`CellSpec` cells, each one an independent unit of work the
runner (:mod:`repro.sweep.runner`) can execute, retry, cache and
aggregate.

Everything here is JSON-serializable both ways: a cell's
:meth:`CellSpec.canonical_json` is the content-address the result
cache keys on, and a grid can be written to / loaded from a grid file
for repeatable studies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps import MESSAGE_PASSING_APPS, SHARED_MEMORY_APPS
from repro.core.options import RunOptions
from repro.mesh.config import MeshConfig
from repro.mesh.patterns import pattern_for_config, registered_patterns

#: Default (laptop-scale) problem sizes per application, used when a
#: grid does not override them.  Deliberately smaller than the
#: benchmark sizes: a sweep multiplies every cell by the whole grid.
DEFAULT_APP_PARAMS: Dict[str, Dict[str, object]] = {
    "1d-fft": {"n": 64},
    "is": {"n": 512, "buckets": 32},
    "cholesky": {"n": 24, "density": 0.2},
    "nbody": {"n": 32, "steps": 2},
    "maxflow": {"n": 16, "extra_edges": 24},
    "3d-fft": {"n": 8},
    "mg": {"n": 16, "cycles": 1},
}

#: Protocol axis value used for message-passing cells, where the
#: coherence protocol does not apply (the static strategy has none).
NO_PROTOCOL = "n/a"

_KNOWN_PROTOCOLS = ("invalidate", "update")


def _freeze_params(params: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class CellSpec:
    """One fully-specified experiment cell (hashable, picklable).

    A cell characterizes ``app`` (with ``params``) on ``mesh``, then
    drives the mesh with synthetic traffic at ``rate_scale`` times the
    characterized injection rate, ``messages_per_source`` messages per
    source, seeded from ``seed``.  ``protocol`` selects the coherence
    protocol for shared-memory apps (:data:`NO_PROTOCOL` otherwise).

    A *pattern* cell sets ``pattern`` to a registered synthetic traffic
    pattern name instead: the cell then drives ``mesh`` directly with
    that pattern (tornado, transpose, hotspot, ...) at a load scaled by
    ``rate_scale`` -- no application characterization involved.  For
    these cells ``app`` equals the pattern name (so comparison tables
    label rows uniformly) and ``protocol`` is :data:`NO_PROTOCOL`.
    ``pattern`` is omitted from the serialized form when ``None``,
    keeping every pre-existing cache key stable.

    ``options`` (a frozen, hashable
    :class:`~repro.core.options.RunOptions`) configures the kernel for
    both runs.  It is part of the cell's identity: a non-default
    bundle enters ``canonical_json`` and therefore the cache key (so a
    watchdog-armed replication never aliases an unarmed one), while
    the default ``None`` is omitted, keeping every pre-existing cache
    key stable.
    """

    app: str
    params: Tuple[Tuple[str, object], ...]
    mesh: str
    protocol: str
    rate_scale: float
    seed: int
    messages_per_source: int
    options: Optional[RunOptions] = None
    pattern: Optional[str] = None

    @property
    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def mesh_config(self) -> MeshConfig:
        return MeshConfig.parse(self.mesh)

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "app": self.app,
            "params": self.params_dict,
            "mesh": self.mesh,
            "protocol": self.protocol,
            "rate_scale": self.rate_scale,
            "seed": self.seed,
            "messages_per_source": self.messages_per_source,
        }
        if self.options is not None:
            doc["options"] = self.options.as_dict()
        if self.pattern is not None:
            doc["pattern"] = self.pattern
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "CellSpec":
        options_doc = doc.get("options")
        pattern_doc = doc.get("pattern")
        return cls(
            app=str(doc["app"]),
            params=_freeze_params(doc.get("params", {})),  # type: ignore[arg-type]
            mesh=str(doc["mesh"]),
            protocol=str(doc.get("protocol", NO_PROTOCOL)),
            rate_scale=float(doc["rate_scale"]),  # type: ignore[arg-type]
            seed=int(doc["seed"]),  # type: ignore[arg-type]
            messages_per_source=int(doc["messages_per_source"]),  # type: ignore[arg-type]
            options=(
                RunOptions.from_dict(options_doc)  # type: ignore[arg-type]
                if options_doc is not None
                else None
            ),
            pattern=str(pattern_doc) if pattern_doc is not None else None,
        )

    def canonical_json(self) -> str:
        """Stable serialization: the cache's content-address input."""
        return canonical_json(self.as_dict())

    @property
    def cell_id(self) -> str:
        """Short human-readable cell label for progress/status lines."""
        params = ",".join(f"{k}={v}" for k, v in self.params)
        protocol = "" if self.protocol == NO_PROTOCOL else f" {self.protocol}"
        return (
            f"{self.app}[{params}]@{self.mesh}{protocol} "
            f"x{self.rate_scale:g} s{self.seed}"
        )

    def seed_sequence(self) -> np.random.SeedSequence:
        """Deterministic per-cell seed root.

        Mixes the grid's seed-axis value with a digest of the cell's
        identity, so two cells that share a grid seed but differ in any
        other coordinate still get decorrelated streams — without any
        ad-hoc ``seed + offset`` arithmetic.
        """
        digest = hashlib.sha256(self.canonical_json().encode()).digest()
        entropy = int.from_bytes(digest[:16], "big")
        return np.random.SeedSequence([self.seed, entropy])


def canonical_json(doc: object) -> str:
    """Canonical (sorted, minimal) JSON used for content addressing."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class GridSpec:
    """A declarative experiment grid (build with :func:`make_grid`).

    Attributes
    ----------
    apps:
        Application names from the suite registry.
    app_params:
        Frozen per-app parameter overrides; apps not listed use
        :data:`DEFAULT_APP_PARAMS`.
    meshes:
        Topology specs in the :meth:`TopologySpec.parse
        <repro.mesh.spec.TopologySpec.parse>` grammar (``"4x2"``,
        ``"4x4x2:torus"``, ``"chiplet(4x4,hubs=2)"``).
    protocols:
        Coherence protocols for shared-memory cells; message-passing
        cells collapse this axis to :data:`NO_PROTOCOL` (running the
        same static-strategy cell once per protocol would duplicate
        identical work under different cache keys).
    rate_scales:
        Injection-rate multipliers for the synthetic drive.
    seeds:
        Seed-axis values (one cell per seed: replications).
    messages_per_source:
        Messages each source injects in the synthetic drive.
    options:
        Kernel/run knobs applied to every cell (no-progress watchdog,
        stall/leak checks); None leaves the cells on the defaults and
        their cache keys unchanged.
    patterns:
        Registered synthetic traffic pattern names (tornado, transpose,
        hotspot, ...): each adds pattern cells over the mesh x
        rate-scale x seed axes, alongside (or instead of) the app
        cells, so one sweep emits topology x pattern x load comparison
        tables.
    """

    apps: Tuple[str, ...]
    app_params: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]
    meshes: Tuple[str, ...]
    protocols: Tuple[str, ...]
    rate_scales: Tuple[float, ...]
    seeds: Tuple[int, ...]
    messages_per_source: int
    options: Optional[RunOptions] = None
    patterns: Tuple[str, ...] = ()

    def params_for(self, app: str) -> Dict[str, object]:
        for name, params in self.app_params:
            if name == app:
                return dict(params)
        return dict(DEFAULT_APP_PARAMS.get(app, {}))

    def expand(self) -> List[CellSpec]:
        """All cells, in a deterministic nested-axis order."""
        cells: List[CellSpec] = []
        for app in self.apps:
            params = _freeze_params(self.params_for(app))
            protocols = self.protocols if app in SHARED_MEMORY_APPS else (NO_PROTOCOL,)
            for mesh in self.meshes:
                for protocol in protocols:
                    for rate_scale in self.rate_scales:
                        for seed in self.seeds:
                            cells.append(
                                CellSpec(
                                    app=app,
                                    params=params,
                                    mesh=mesh,
                                    protocol=protocol,
                                    rate_scale=rate_scale,
                                    seed=seed,
                                    messages_per_source=self.messages_per_source,
                                    options=self.options,
                                )
                            )
        for pattern in self.patterns:
            for mesh in self.meshes:
                for rate_scale in self.rate_scales:
                    for seed in self.seeds:
                        cells.append(
                            CellSpec(
                                app=pattern,
                                params=(),
                                mesh=mesh,
                                protocol=NO_PROTOCOL,
                                rate_scale=rate_scale,
                                seed=seed,
                                messages_per_source=self.messages_per_source,
                                options=self.options,
                                pattern=pattern,
                            )
                        )
        return cells

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "apps": list(self.apps),
            "app_params": {name: dict(params) for name, params in self.app_params},
            "meshes": list(self.meshes),
            "protocols": list(self.protocols),
            "rate_scales": list(self.rate_scales),
            "seeds": list(self.seeds),
            "messages_per_source": self.messages_per_source,
        }
        if self.options is not None:
            doc["options"] = self.options.as_dict()
        if self.patterns:
            doc["patterns"] = list(self.patterns)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "GridSpec":
        options_doc = doc.get("options")
        return make_grid(
            apps=doc.get("apps", ()),  # type: ignore[arg-type]
            app_params=doc.get("app_params"),  # type: ignore[arg-type]
            meshes=doc.get("meshes", ("4x2",)),  # type: ignore[arg-type]
            protocols=doc.get("protocols", ("invalidate",)),  # type: ignore[arg-type]
            rate_scales=doc.get("rate_scales", (1.0,)),  # type: ignore[arg-type]
            seeds=doc.get("seeds", (0,)),  # type: ignore[arg-type]
            messages_per_source=int(doc.get("messages_per_source", 120)),  # type: ignore[arg-type]
            options=(
                RunOptions.from_dict(options_doc)  # type: ignore[arg-type]
                if options_doc is not None
                else None
            ),
            patterns=doc.get("patterns", ()),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json_file(cls, path: str) -> "GridSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def make_grid(
    apps: Sequence[str],
    app_params: Optional[Mapping[str, Mapping[str, object]]] = None,
    meshes: Sequence[str] = ("4x2",),
    protocols: Sequence[str] = ("invalidate",),
    rate_scales: Sequence[float] = (1.0,),
    seeds: Sequence[int] = (0,),
    messages_per_source: int = 120,
    options: Optional[RunOptions] = None,
    patterns: Sequence[str] = (),
) -> GridSpec:
    """Validate axes and build a :class:`GridSpec`."""
    known_apps = SHARED_MEMORY_APPS + MESSAGE_PASSING_APPS
    apps = tuple(apps)
    patterns = tuple(patterns)
    if not apps and not patterns:
        raise ValueError("grid needs at least one app or pattern")
    for app in apps:
        if app not in known_apps:
            raise ValueError(
                f"unknown application {app!r}; choose from {sorted(known_apps)}"
            )
    meshes = tuple(meshes)
    if not meshes:
        raise ValueError("grid needs at least one mesh")
    for mesh in meshes:
        MeshConfig.parse(mesh)  # validates eagerly, at declaration time
    for name in patterns:
        if name not in registered_patterns():
            raise ValueError(
                f"unknown pattern {name!r}; registered: "
                + ", ".join(registered_patterns())
            )
        for mesh in meshes:
            # Fail at declaration time when a pattern cannot target a
            # mesh (e.g. transpose on non-palindromic dims).
            pattern_for_config(name, MeshConfig.parse(mesh))
    protocols = tuple(protocols)
    if not protocols:
        raise ValueError("grid needs at least one protocol")
    for protocol in protocols:
        if protocol not in _KNOWN_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; choose from {_KNOWN_PROTOCOLS}"
            )
    rate_scales = tuple(float(s) for s in rate_scales)
    if not rate_scales or any(s <= 0 for s in rate_scales):
        raise ValueError(f"rate_scales must be positive, got {rate_scales}")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("grid needs at least one seed")
    if messages_per_source < 1:
        raise ValueError(
            f"messages_per_source must be >= 1, got {messages_per_source}"
        )
    params = app_params or {}
    for name in params:
        if name not in apps:
            raise ValueError(f"app_params given for {name!r}, not in grid apps {apps}")
    frozen_params = tuple(
        sorted((name, _freeze_params(p)) for name, p in params.items())
    )
    if options is not None and not isinstance(options, RunOptions):
        options = RunOptions.from_dict(options)  # type: ignore[arg-type]
    return GridSpec(
        apps=apps,
        app_params=frozen_params,
        meshes=meshes,
        protocols=protocols,
        rate_scales=rate_scales,
        seeds=seeds,
        messages_per_source=messages_per_source,
        options=options,
        patterns=patterns,
    )
