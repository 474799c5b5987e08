"""The communication characterization methodology (the paper's core).

Quantifies the three attributes of a communication workload from a
network activity log:

* **temporal** -- message inter-arrival time distribution, fitted by
  non-linear secant regression against the common-distribution library
  (:mod:`repro.core.temporal`);
* **spatial** -- per-processor destination distributions, classified
  against uniform / bimodal-uniform (favorite processor) / locality
  models (:mod:`repro.core.spatial`);
* **volume** -- message counts and the message-length distribution
  (:mod:`repro.core.volume`).

:mod:`repro.core.run` runs the two strategies end to end
(:func:`run_dynamic` = execution-driven CC-NUMA, :func:`run_static` =
traced SP2 + replay), both ending in
:func:`~repro.core.methodology.characterize_log`;
:mod:`repro.core.synthetic` turns a fitted characterization back into
a traffic generator; :mod:`repro.core.validation` closes the loop by
comparing synthetic traffic's network behaviour with the original's.
"""

from repro.core.attributes import (
    CommunicationCharacterization,
    SpatialCharacterization,
    TemporalCharacterization,
    VolumeCharacterization,
)
from repro.core.loadsweep import (
    LoadMeasurement,
    LoadPoint,
    LoadSweep,
    measure_load_point,
    sweep_load,
)
from repro.core.options import RunOptions
from repro.core.phases import PhaseSegment, phase_table, segment_phases
from repro.core.methodology import CharacterizationRun, characterize_log
from repro.core.run import run_dynamic, run_pattern, run_static
from repro.core.spatial import analyze_spatial
from repro.core.analytical import AnalyticalEstimate, WormholeLatencyModel
from repro.core.bursts import BurstModel, estimate_bursts
from repro.core.synthetic import PhaseCoupledTrafficGenerator, SyntheticTrafficGenerator
from repro.core.temporal import analyze_temporal
from repro.core.validation import ValidationReport, compare_logs
from repro.core.volume import analyze_volume

__all__ = [
    "AnalyticalEstimate",
    "BurstModel",
    "CharacterizationRun",
    "CommunicationCharacterization",
    "LoadMeasurement",
    "LoadPoint",
    "LoadSweep",
    "PhaseCoupledTrafficGenerator",
    "PhaseSegment",
    "RunOptions",
    "SpatialCharacterization",
    "SyntheticTrafficGenerator",
    "TemporalCharacterization",
    "ValidationReport",
    "WormholeLatencyModel",
    "VolumeCharacterization",
    "analyze_spatial",
    "analyze_temporal",
    "analyze_volume",
    "characterize_log",
    "compare_logs",
    "estimate_bursts",
    "measure_load_point",
    "phase_table",
    "run_dynamic",
    "run_pattern",
    "run_static",
    "segment_phases",
    "sweep_load",
]
