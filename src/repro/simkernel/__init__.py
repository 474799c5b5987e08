"""Process-oriented discrete-event simulation kernel.

This package is the repository's substitute for the CSIM simulation
package used by the paper ("This network simulator is process oriented
and has been written using the CSIM simulation package").  It provides
the same conceptual primitives CSIM offers:

* :class:`~repro.simkernel.engine.Simulator` -- the event list and clock.
* :class:`~repro.simkernel.engine.Process` -- a simulated process,
  written as a Python generator that yields *commands* such as
  :func:`~repro.simkernel.engine.hold`.
* :class:`~repro.simkernel.facility.Facility` -- a served resource with
  FIFO queueing and utilization accounting (CSIM ``facility``).
* :class:`~repro.simkernel.mailbox.Mailbox` -- typed message queues with
  blocking receive (CSIM ``mailbox``).
* :class:`~repro.simkernel.events.SimEvent` -- waitable condition
  variables (CSIM ``event``).
* :class:`~repro.simkernel.random_streams.RandomStreams` -- reproducible
  named random-number streams.

Example
-------
>>> from repro.simkernel import Simulator, hold
>>> sim = Simulator()
>>> ticks = []
>>> def clock():
...     while sim.now < 3:
...         yield hold(1.0)
...         ticks.append(sim.now)
>>> _ = sim.process(clock(), name="clock")
>>> sim.run()
>>> ticks
[1.0, 2.0, 3.0]
"""

from repro.simkernel.engine import (
    Hold,
    InvalidDelayError,
    Passivate,
    Process,
    ProcessState,
    SimulationError,
    Simulator,
    Wait,
    hold,
    passivate,
    steady_clock,
    wait,
)
from repro.simkernel.engine_calendar import CalendarScheduler
from repro.simkernel.diagnosis import (
    DeadlockError,
    FacilityLeakError,
    StallDiagnosis,
    StallError,
    check_leaks,
    describe_leaks,
    diagnose_stall,
)
from repro.simkernel.events import SimEvent
from repro.simkernel.facility import Facility, Release, Request, request, release
from repro.simkernel.mailbox import Mailbox, Receive, Send, receive, send
from repro.simkernel.random_streams import RandomStreams

#: Parallel-scheduler symbols served lazily (PEP 562):
#: :mod:`repro.simkernel.engine_parallel` imports :mod:`repro.mesh`,
#: which imports this package, so an eager import here would be
#: circular -- and the serial kernel should not pay the mesh stack's
#: import cost anyway.
_PARALLEL_EXPORTS = (
    "PARALLEL_SCHEDULER",
    "ParallelRunResult",
    "ParallelSimulationError",
    "ScheduleTraffic",
    "SerialRunResult",
    "canonical_order",
    "logs_bit_identical",
    "run_parallel_mesh",
    "run_serial_schedule",
)


def __getattr__(name: str):
    if name in _PARALLEL_EXPORTS:
        from repro.simkernel import engine_parallel

        return getattr(engine_parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CalendarScheduler",
    "DeadlockError",
    "Facility",
    "FacilityLeakError",
    "Hold",
    "InvalidDelayError",
    "Mailbox",
    "PARALLEL_SCHEDULER",
    "ParallelRunResult",
    "ParallelSimulationError",
    "Passivate",
    "Process",
    "ProcessState",
    "RandomStreams",
    "Receive",
    "Release",
    "Request",
    "ScheduleTraffic",
    "Send",
    "SerialRunResult",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "StallDiagnosis",
    "StallError",
    "Wait",
    "canonical_order",
    "check_leaks",
    "describe_leaks",
    "diagnose_stall",
    "hold",
    "logs_bit_identical",
    "passivate",
    "receive",
    "release",
    "request",
    "run_parallel_mesh",
    "run_serial_schedule",
    "send",
    "steady_clock",
    "wait",
]
