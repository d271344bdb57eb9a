"""PP-Stream reproduction: privacy-preserving NN inference via
distributed stream processing (Liu et al., ICDE 2024).

Public API tour:

* ``repro.crypto`` — Paillier PHE, encodings, encrypted tensors.
* ``repro.obfuscation`` — permutation obfuscation + leakage metric.
* ``repro.nn`` — numpy NN engine (layers, training, model zoo).
* ``repro.datasets`` — synthetic Table III dataset stand-ins.
* ``repro.scaling`` — the paper's parameter-scaling procedure.
* ``repro.planner`` — primitive merging, profiling, the allocation ILP.
* ``repro.partitioning`` — the simulator's input/output tensor
  partitioning model (receptive-field counts per planned thread).
* ``repro.protocol`` — the Figure 3 collaborative workflow (roles,
  sessions, transcripts).
* ``repro.stream`` — the real threaded stream-processing runtime, one
  thread per stage.
* ``repro.net`` — the networked twin: framed TCP transport, remote
  stage workers, coordinator with heartbeat failover.
* ``repro.serve`` — the multi-tenant serving gateway: HTTP front
  door, bounded job manager, per-tenant keypairs on a shared fleet.
* ``repro.soak`` — sustained mixed-load harness with leak sentinels.
* ``repro.simulate`` — the calibrated discrete-event simulator.
* ``repro.baselines`` — PlainBase/CipherBase and the EzPC-style 2PC
  engine (secret sharing + garbled circuits).
* ``repro.experiments`` — regenerates every table and figure.

Quickstart::

    from repro.config import RuntimeConfig
    from repro.datasets import load_dataset
    from repro.nn import model_zoo
    from repro.nn.training import SGDTrainer
    from repro.protocol import DataProvider, InferenceSession, \
        ModelProvider

    ds = load_dataset("breast")
    model = model_zoo.build_model("breast")
    SGDTrainer(model).fit(ds.train_x, ds.train_y, epochs=10)

    cfg = RuntimeConfig(key_size=256)
    session = InferenceSession(
        ModelProvider(model, decimals=3, config=cfg),
        DataProvider(value_decimals=3, config=cfg),
    )
    outcome = session.run(ds.test_x[0])
    print(outcome.prediction, outcome.transcript.all_ciphertext())
"""

from .config import DEFAULT_CONFIG, RuntimeConfig
from .costs import CostModel
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "RuntimeConfig",
    "CostModel",
    "ReproError",
    "__version__",
]
