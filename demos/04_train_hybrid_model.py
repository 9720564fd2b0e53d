"""
Training the hybrid model end to end
====================================

The hybrid model chains the 3-qubit quantum layer (6 trainable angles)
into a small dense head (3 -> 32 -> 2), 200 parameters in total. Both
halves train jointly with Adam on mean squared position error: the head by
ordinary backpropagation, the quantum layer by the parameter-shift rule.
This script trains one model on a synthetic scenario and inspects what
comes out.
"""

import tempfile
from pathlib import Path

import numpy as np

from hqloc.data import fit_scaler, gen_scenario_standin, transform_samples
from hqloc.model_io import load_model, save_model
from hqloc.train_eval import (
    TrainConfig,
    _sampled_predictor,
    evaluate_rmse,
    hqnn_forward,
    hqnn_forward_batch,
    init_hybrid_model,
    train,
)

##############################################################################
# Data
# ~~~~
#
# A synthetic stand-in for one survey: training fingerprints on the room's
# survey grid, test readings at uniform random positions, both from the
# log-distance path-loss channel with shadowing noise.

meta, train_samples, test_samples = gen_scenario_standin("Sc-1", "WiFi", seed=0)
print(f"room {meta.room[0]} x {meta.room[1]} m, "
      f"{len(train_samples)} train / {len(test_samples)} test samples")

scaler = fit_scaler(train_samples)
X_train, Z_train = transform_samples(scaler, train_samples)
X_test, Z_test = transform_samples(scaler, test_samples)

##############################################################################
# Training
# ~~~~~~~~
#
# ``train`` records the pre-update MSE once per epoch. 300 epochs of
# full-batch Adam at lr 0.001 is the reference protocol.

model = init_hybrid_model(seed=1)
print(f"\nmodel has {model.n_params} parameters "
      f"({model.qlayer.phi.size} quantum + {model.n_params - model.qlayer.phi.size} classical)")

report = train(model, X_train, Z_train, TrainConfig(epochs=300, eta=0.001, seed=1))

print(f"\ntrained {report.epochs_run} epochs in {report.wall_time_s:.2f} s")
print("loss milestones (train MSE, m^2):")
for epoch in (0, 50, 100, 200, 299):
    print(f"  epoch {epoch:>3}: {report.loss_per_epoch[epoch]:.4f}")
print(f"  final    : {report.final_train_mse:.4f}")

##############################################################################
# Evaluation
# ~~~~~~~~~~
#
# RMSE of the predicted (x, y) against the true test positions, in meters.
# ``evaluate_rmse`` takes a batch predictor: one call maps the whole test
# matrix to coordinates, so the quantum layer runs once over every row.
# Evaluating the same trained model with sampled expectations shows what a
# finite shot budget would add on hardware. Each (row, qubit) estimate is one
# binomial draw of the 1-outcome count, seeded from the evaluation seed, the
# qubit and the encoded row, so it does not depend on the other test rows.

exact_rmse = evaluate_rmse(lambda X: hqnn_forward_batch(model, X), X_test, Z_test)
print(f"\ntest RMSE (exact expectations):  {exact_rmse:.3f} m")
for shots in (128, 4096, 100_000):
    sampled = evaluate_rmse(_sampled_predictor(model, shots=shots, seed=1), X_test, Z_test)
    print(f"test RMSE ({shots:>6} shots):       {sampled:.3f} m")

##############################################################################
# Persistence
# ~~~~~~~~~~~
#
# Models and their scaler round-trip through a plain text format with full
# float precision, so a reloaded model predicts bit-identically.

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.params"
    save_model(path, model, scaler)
    reloaded, reloaded_scaler = load_model(path)
    probe = X_test[0]
    print("\nsaved and reloaded; prediction drift:",
          float(np.max(np.abs(hqnn_forward(model, probe) - hqnn_forward(reloaded, probe)))))
