"""Validation of synthetic traffic against the original workload.

The methodology's claim is that the fitted distributions are faithful
enough "for developing realistic performance models".  The check:
drive the same mesh with synthetic traffic generated from the fit, and
compare the network-level behaviour (latency, contention, rate,
utilization proxies) with the original log's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.netlog import NetworkLog


def _relative_error(reference: float, candidate: float) -> float:
    if reference == 0.0:
        return 0.0 if candidate == 0.0 else float("inf")
    return abs(candidate - reference) / abs(reference)


@dataclass(frozen=True)
class ValidationReport:
    """Side-by-side network metrics for original vs synthetic traffic.

    Relative errors are with respect to the original.
    """

    original_mean_latency: float
    synthetic_mean_latency: float
    original_mean_contention: float
    synthetic_mean_contention: float
    original_rate: float
    synthetic_rate: float
    original_mean_length: float
    synthetic_mean_length: float

    @property
    def latency_error(self) -> float:
        """Relative error of the synthetic mean latency."""
        return _relative_error(self.original_mean_latency, self.synthetic_mean_latency)

    @property
    def contention_error(self) -> float:
        """Relative error of the synthetic mean contention.

        Reported only: :meth:`acceptable` does not test it.
        """
        return _relative_error(
            self.original_mean_contention, self.synthetic_mean_contention
        )

    @property
    def rate_error(self) -> float:
        """Relative error of the synthetic injection rate."""
        return _relative_error(self.original_rate, self.synthetic_rate)

    @property
    def length_error(self) -> float:
        """Relative error of the synthetic mean message length."""
        return _relative_error(self.original_mean_length, self.synthetic_mean_length)

    def acceptable(self, tolerance: float = 0.5) -> bool:
        """Whether latency, rate and length errors are all within
        ``tolerance`` (the methodology's fidelity criterion).

        The default tolerance is generous because the closed-loop
        synthetic sources are *independent*: they reproduce each
        source's marginal behaviour but not cross-source correlation
        (barrier bursts), so synthetic contention underestimates the
        original -- an inherent limit of distribution-level
        characterization.  Each source also waits for its own delivery,
        so latency throttles its offered rate.
        """
        return (
            self.latency_error <= tolerance
            and self.rate_error <= tolerance
            and self.length_error <= tolerance
        )

    def describe(self) -> str:
        """Human-readable comparison table."""
        rows = [
            ("mean latency", self.original_mean_latency, self.synthetic_mean_latency,
             self.latency_error),
            ("mean contention", self.original_mean_contention,
             self.synthetic_mean_contention, self.contention_error),
            ("injection rate", self.original_rate, self.synthetic_rate, self.rate_error),
            ("mean length", self.original_mean_length, self.synthetic_mean_length,
             self.length_error),
        ]
        lines = [f"{'metric':<16} {'original':>12} {'synthetic':>12} {'rel.err':>8}"]
        for name, orig, synth, err in rows:
            err_text = f"{err:8.1%}" if np.isfinite(err) else "     n/a"
            lines.append(f"{name:<16} {orig:>12.3f} {synth:>12.3f} {err_text}")
        return "\n".join(lines)


def compare_logs(original: NetworkLog, synthetic: NetworkLog) -> ValidationReport:
    """Build a :class:`ValidationReport` from two activity logs."""
    if len(original) == 0 or len(synthetic) == 0:
        raise ValueError("both logs must contain messages to compare")
    return ValidationReport(
        original_mean_latency=original.mean_latency(),
        synthetic_mean_latency=synthetic.mean_latency(),
        original_mean_contention=original.mean_contention(),
        synthetic_mean_contention=synthetic.mean_contention(),
        # Delivered rate over the full span (throughput), not offered
        # rate over the injection window: the tolerance calibration in
        # ``acceptable()`` was established against delivered-per-span
        # numbers, and drain-dominated logs would otherwise compare a
        # different quantity under the same field name.
        original_rate=original.throughput(),
        synthetic_rate=synthetic.throughput(),
        original_mean_length=float(np.mean(original.message_lengths())),
        synthetic_mean_length=float(np.mean(synthetic.message_lengths())),
    )
