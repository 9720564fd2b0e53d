"""Hybrid quantum-classical indoor localization from RSSI fingerprints.

Closed-form 3-qubit expectations of a trainable variational circuit, exact
or shot-sampled, drive a small dense regression head; classical baselines
(dense network, KNN, quantum fingerprint matching) and dataset tooling round
out the pipeline. The gate-level simulator in ``hqloc.reference`` checks it.

The package exports only ``__version__``. Every other name is imported from
the module that defines it: ``hqloc.qlayer``, ``hqloc.train_eval``,
``hqloc.classical``, ``hqloc.data`` and so on.
"""

__version__ = "0.1.0"
