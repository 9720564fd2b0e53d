"""Hybrid quantum-classical indoor localization from RSSI fingerprints.

Exact 3-qubit statevector simulation feeds a trainable variational circuit
whose Pauli-Z expectations drive a small dense regression head; classical
baselines (dense network, KNN, quantum fingerprint matching) and dataset
tooling round out the pipeline.

The package exports only ``__version__``. Every other name is imported from
the module that defines it: ``hqloc.qlayer``, ``hqloc.train_eval``,
``hqloc.classical``, ``hqloc.data`` and so on.
"""

__version__ = "0.1.0"
