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
    q_forward,
    q_forward_batch,
    q_gradient,
    q_gradient_batch,
)
from hqloc.statevector import apply_gate, expect_z, ry, zero_state

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
# reports <Z> on each qubit. ``q_gradient`` returns the (3, 6) Jacobian
# d<Z_j>/dphi_k.

rng = np.random.default_rng(3)
layer = QuantumLayer(phi=rng.uniform(-np.pi, np.pi, size=6))
x = rng.uniform(0.0, 1.0, size=3)

outputs = q_forward(layer, x)
jacobian = q_gradient(layer, x)
print("\nlayer outputs:", np.round(outputs, 6))
print("Jacobian d<Z_j>/dphi_k:")
print(np.round(jacobian, 6))

##############################################################################
# The shift rule, run literally: 12 forward passes at phi +- pi/2 e_k, two per
# angle. The simulator gets the same numbers without them. Angle k enters the
# ansatz U through one RY, and RY(theta +- pi/2) = RY(theta) (I +- A) / sqrt(2)
# with A = RY(pi), a signed permutation of the basis. So each half difference
# is an overlap <psi| Z_j |t_k> with the forward state psi = U v, where the
# tangent t_k is U A_q v for a first-layer angle on qubit q and A_q psi for a
# second-layer one: ``q_gradient_batch`` builds no shifted matrix.

rows = encode_batch(x[None])
columns = []
for k in range(layer.phi.size):
    step = np.zeros(layer.phi.size)
    step[k] = np.pi / 2
    plus = q_forward_batch(QuantumLayer(phi=layer.phi + step), rows)[0]
    minus = q_forward_batch(QuantumLayer(phi=layer.phi - step), rows)[0]
    columns.append(0.5 * (plus - minus))
shifted = np.stack(columns, axis=1)
print("\nmax |12 shifted forwards - q_gradient_batch| =",
      np.abs(shifted - q_gradient_batch(layer, rows)[0]).max())

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
    numeric[:, k] = (q_forward(up, x) - q_forward(down, x)) / (2 * h)

print("\nmax |shift rule - finite differences| =", np.abs(jacobian - numeric).max())

##############################################################################
# Training needs the Jacobian of every row of the training set.
# ``q_gradient_batch`` takes the encoded rows and returns one (3, 6) matrix
# per row; ``q_gradient`` above is its batch of one.

X = rng.uniform(0.0, 1.0, size=(5, 3))
batch = q_gradient_batch(layer, encode_batch(X))
print("\nbatched Jacobians:", batch.shape,
      "max |batch row - single| =",
      max(np.abs(batch[i] - q_gradient(layer, x)).max() for i, x in enumerate(X)))

##############################################################################
# Cost model: on hardware every angle needs two extra circuit runs per
# gradient, 12 shifted circuits for this ansatz, and the rule stays exact on
# sampled hardware as well, which is the reason the hybrid model trains with
# it instead of numeric differentiation. The simulator holds the state
# itself, so it reads the same differences off the forward state: one ansatz
# matrix serves the forward pass and the Jacobian.
