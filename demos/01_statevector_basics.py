"""
Statevector simulation basics
=============================

The reference simulator in ``hqloc.reference`` keeps the full complex
amplitude vector of an n-qubit register and applies gates to it directly,
so every expectation value it reports is exact. The runtime never runs it;
tests and these demos use it to check the closed forms. This script walks
through the core objects: states, gates, measurement statistics.
"""

import numpy as np

from hqloc.circuits import cx, ry
from hqloc.reference import apply_gate, apply_gates, expect_z, h, zero_state
from hqloc.statevector import sample_expect_z

##############################################################################
# States
# ~~~~~~
#
# ``zero_state(n)`` builds |00...0> as a vector of 2**n amplitudes with
# qubit 0 stored in the least significant bit of the basis index.

state = zero_state(2)
print("two-qubit |00> amplitudes:", state.amplitudes)
print("norm:", state.norm())

##############################################################################
# Gates
# ~~~~~
#
# Gates are small frozen records built by constructor helpers; applying one
# returns a new state and never mutates the input. A Hadamard on qubit 0
# produces an equal superposition of |00> and |01>.

plus = apply_gate(state, h(0))
print("\nafter H on qubit 0:", np.round(plus.amplitudes, 6))

##############################################################################
# Chaining H with a controlled-NOT entangles the register into the Bell
# state (|00> + |11>) / sqrt(2): only the first and last amplitudes remain.

bell = apply_gates(state, [h(0), cx(0, 1)])
print("\nBell state amplitudes:", np.round(bell.amplitudes, 6))

##############################################################################
# Expectation values
# ~~~~~~~~~~~~~~~~~~
#
# ``expect_z`` reads <Z> for one qubit straight off the amplitudes. For the
# Bell state both qubits are maximally mixed, so both expectations vanish,
# while a rotation RY(theta) on |0> gives <Z> = cos(theta).

print("\nBell state <Z_0> =", expect_z(bell, 0), " <Z_1> =", expect_z(bell, 1))

theta = 1.1
rotated = apply_gate(zero_state(1), ry(theta, 0))
print(f"RY({theta}) gives <Z> = {expect_z(rotated, 0):+.6f}"
      f"  (cos {theta} = {np.cos(theta):+.6f})")

##############################################################################
# Sampled expectations
# ~~~~~~~~~~~~~~~~~~~~
#
# Hardware estimates <Z> from repeated measurements. ``sample_expect_z``
# reproduces that from the exact value: a qubit with <Z> = E reads 1 with
# probability (1 - E) / 2, so the number of 1 outcomes among ``shots``
# measurements is one binomial draw with that probability, taken from the
# generator passed as ``rng``. A generator seeded the same way always gives
# the same estimate. (An evaluation keys one shared generator once per row,
# from its seed and the row's scaled features, and draws the row's qubits
# from it in order.) The estimate converges at the usual 1/sqrt(shots) rate
# toward the exact value.

exact = expect_z(rotated, 0)
print("\nshots     estimate     |error|")
for shots in (10, 100, 1_000, 10_000, 100_000):
    estimate = sample_expect_z(exact, shots=shots, rng=np.random.default_rng(7))
    print(f"{shots:>6}   {estimate:+.6f}   {abs(estimate - exact):.6f}")
