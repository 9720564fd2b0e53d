"""
Gradients through quantum circuits with the parameter-shift rule
================================================================

Backpropagation cannot run through a quantum circuit, but for gates of the
form exp(-i * theta * G / 2) the derivative of any expectation value is
itself a difference of two expectation values:

    dE/dtheta = ( E(theta + pi/2) - E(theta - pi/2) ) / 2

That identity is exact, not a finite-difference approximation. This script
checks it on a single rotation and then on the full quantum layer.
"""

import numpy as np

from hqloc.qlayer import (
    QuantumLayer,
    encode_batch,
    pauli_features,
    q_forward_batch,
    q_gradient_batch,
)
from hqloc.circuits import ry
from hqloc.reference import apply_gate, expect_z, zero_state

##############################################################################
# Single rotation
# ~~~~~~~~~~~~~~~
#
# For RY(theta) on |0>, <Z> = cos(theta), so the derivative is -sin(theta).
# The shifted-circuit formula lands on it to machine precision.

print("theta      shift rule    -sin(theta)")
for theta in np.linspace(0.0, 2.0 * np.pi, 7):
    plus = expect_z(apply_gate(zero_state(1), ry(theta + np.pi / 2, 0)), 0)
    minus = expect_z(apply_gate(zero_state(1), ry(theta - np.pi / 2, 0)), 0)
    grad = 0.5 * (plus - minus)
    print(f"{theta:6.3f}    {grad:+.8f}   {-np.sin(theta):+.8f}")

##############################################################################
# The full quantum layer
# ~~~~~~~~~~~~~~~~~~~~~~
#
# The layer encodes a scaled RSSI vector, runs the 6-angle ansatz, and
# reports <Z> on each qubit. The kernel's input is each encoded row's 20
# Pauli features F_P = Re(v^dagger P v): ``pauli_features`` computes them once
# per batch, and ``q_gradient_batch`` returns one (3, 6) Jacobian
# d<Z_j>/dphi_k per row, here a batch of one.

rng = np.random.default_rng(3)
layer = QuantumLayer(phi=rng.uniform(-np.pi, np.pi, size=6))
x = rng.uniform(0.0, 1.0, size=3)
features = pauli_features(encode_batch(x[None]))

outputs = q_forward_batch(layer, features)[0]
jacobian = q_gradient_batch(layer, features)[0]
print("\nlayer outputs:", np.round(outputs, 6))
print("Jacobian d<Z_j>/dphi_k:")
print(np.round(jacobian, 6))

##############################################################################
# The shift rule, run literally: 12 forward passes at phi +- pi/2 e_k, two per
# angle. The simulator gets the same numbers without them. Each Z_j, carried
# back through the ansatz, is a sum of Pauli strings whose coefficients are
# products of cos(phi_k) and sin(phi_k), one factor per angle at most. The
# half difference at phi +- pi/2 e_k turns that factor's cos into -sin and its
# sin into cos, which is its exact derivative: ``q_gradient_batch`` multiplies
# the row's Pauli features by those derivatives and runs no shifted circuit.

columns = []
for k in range(layer.phi.size):
    step = np.zeros(layer.phi.size)
    step[k] = np.pi / 2
    plus = q_forward_batch(QuantumLayer(phi=layer.phi + step), features)[0]
    minus = q_forward_batch(QuantumLayer(phi=layer.phi - step), features)[0]
    columns.append(0.5 * (plus - minus))
shifted = np.stack(columns, axis=1)
print("\nmax |12 shifted forwards - q_gradient_batch| =",
      np.abs(shifted - jacobian).max())

##############################################################################
# Cross-check against central finite differences. The shift rule is exact,
# so the only disagreement is the O(h^2) truncation error of the numeric
# estimate itself.

h = 1e-6
numeric = np.empty_like(jacobian)
for k in range(layer.phi.size):
    up = QuantumLayer(phi=layer.phi.copy())
    down = QuantumLayer(phi=layer.phi.copy())
    up.phi[k] += h
    down.phi[k] -= h
    numeric[:, k] = (q_forward_batch(up, features)[0] - q_forward_batch(down, features)[0]) / (2 * h)

print("\nmax |shift rule - finite differences| =", np.abs(jacobian - numeric).max())

##############################################################################
# Training needs the Jacobian of every row of the training set. A training
# run computes its rows' features once and hands them to every forward and
# Jacobian; each row's matrix is what that row gives as a batch of one.

X = rng.uniform(0.0, 1.0, size=(5, 3))
batch = q_gradient_batch(layer, pauli_features(encode_batch(X)))
single = [q_gradient_batch(layer, pauli_features(encode_batch(x[None])))[0] for x in X]
print("\nbatched Jacobians:", batch.shape,
      "max |batch row - single| =", max(np.abs(b - j).max() for b, j in zip(batch, single)))

##############################################################################
# Cost model: on hardware every angle needs two extra circuit runs per
# gradient, 12 shifted circuits for this ansatz, and the rule stays exact on
# sampled hardware as well, which is the reason the hybrid model trains with
# it instead of numeric differentiation. The simulator knows the circuit
# itself, so it compiles the same differences once per angle vector: one set
# of Pauli coefficients and their derivatives serves the forward pass and
# the Jacobian.
