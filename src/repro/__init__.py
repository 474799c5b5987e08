"""repro: a communication characterization methodology for parallel applications.

A faithful, self-contained reproduction of the HPCA'97 paper
*"Towards a Communication Characterization Methodology for Parallel
Applications"* (Chodnekar, Srinivasan, Vaidya, Sivasubramaniam, Das):
an execution-driven CC-NUMA simulator and a traced message-passing SP2
substitute both feed a 2-D wormhole mesh simulator, whose activity log
is analyzed with a multivariate-secant regression package to quantify
the **temporal**, **spatial** and **volume** attributes of seven
parallel applications' communication.

Quick start::

    from repro import run_dynamic

    run = run_dynamic("1d-fft", params={"n": 256})
    print(run.characterization.describe())

Package map (bottom-up):

* :mod:`repro.simkernel` -- process-oriented DES kernel (CSIM substitute)
* :mod:`repro.mesh` -- 2-D mesh wormhole network simulator
* :mod:`repro.coherence` + :mod:`repro.exec_driven` -- CC-NUMA machine
  and execution-driven front end (SPASM substitute, dynamic strategy)
* :mod:`repro.mp` + :mod:`repro.trace` -- simulated SP2, MPI-like
  library, tracer and replayer (static strategy)
* :mod:`repro.stats` -- distribution library + secant regression (SAS
  substitute)
* :mod:`repro.apps` -- 1D-FFT, IS, Cholesky, Nbody, Maxflow, 3D-FFT, MG
* :mod:`repro.core` -- the characterization methodology itself
"""

from repro.apps import create_app
from repro.core import (
    CommunicationCharacterization,
    RunOptions,
    SyntheticTrafficGenerator,
    characterize_log,
    compare_logs,
    run_dynamic,
    run_static,
)
from repro.mesh import MeshConfig, MeshNetwork, NetworkLog, NetworkMessage

__version__ = "1.0.0"

__all__ = [
    "CommunicationCharacterization",
    "MeshConfig",
    "MeshNetwork",
    "NetworkLog",
    "NetworkMessage",
    "RunOptions",
    "SyntheticTrafficGenerator",
    "__version__",
    "characterize_log",
    "compare_logs",
    "create_app",
    "run_dynamic",
    "run_static",
]
