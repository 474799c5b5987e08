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
  FIFO queueing (CSIM ``facility``).  It keeps its busy and queue time
  integrals, which give channel utilization; it counts no requests and
  times no waits (a message's contention is timed by the mesh).
* :class:`~repro.simkernel.mailbox.Mailbox` -- unbounded message queues
  with blocking receive (CSIM ``mailbox``).
* :class:`~repro.simkernel.events.SimEvent` -- waitable condition
  variables (CSIM ``event``).

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

__all__ = [
    "DeadlockError",
    "Facility",
    "FacilityLeakError",
    "Hold",
    "InvalidDelayError",
    "Mailbox",
    "Passivate",
    "Process",
    "ProcessState",
    "Receive",
    "Release",
    "Request",
    "Send",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "StallDiagnosis",
    "StallError",
    "Wait",
    "check_leaks",
    "describe_leaks",
    "diagnose_stall",
    "hold",
    "passivate",
    "receive",
    "release",
    "request",
    "send",
    "steady_clock",
    "wait",
]
