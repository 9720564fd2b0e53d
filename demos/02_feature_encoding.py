"""
Encoding RSSI readings into quantum states
==========================================

A 3-anchor RSSI reading becomes a 3-qubit state in two steps: scale each
signal strength to [0, 1], then run the entangling feature map. The map is
the workhorse behind both the hybrid model and the quantum-fingerprint
baseline, so this script looks at what it actually produces.
"""

import numpy as np

from hqloc.baselines import build_fingerprint_db, fingerprint_fidelities, fingerprint_predict
from hqloc.circuits import N_ANSATZ_PARAMS, feature_state, real_amplitudes, zz_feature_map
from hqloc.data import RssiSample, fit_scaler, transform
from hqloc.reference import Statevector, apply_gates, fidelity, swap_test_fidelity, zero_state

##############################################################################
# Scaling
# ~~~~~~~
#
# Raw RSSI lives around -40..-90 dBm. The scaler maps each anchor's
# training range onto [0, 1] and clips anything outside it.

train = [
    RssiSample(rssi=(-52.0, -61.0, -48.0), position=(1.0, 1.0)),
    RssiSample(rssi=(-44.0, -70.0, -55.0), position=(4.5, 1.0)),
    RssiSample(rssi=(-58.0, -49.0, -62.0), position=(1.0, 4.0)),
    RssiSample(rssi=(-63.0, -55.0, -41.0), position=(4.5, 4.0)),
]
scaler = fit_scaler(train)
x = transform(scaler, (-50.0, -60.0, -50.0))
print("scaled features:", np.round(x, 4))

##############################################################################
# The feature map circuit
# ~~~~~~~~~~~~~~~~~~~~~~~
#
# The encoding is: H on every qubit, a phase proportional to each feature,
# then for every neighbouring qubit pair a CX / phase / CX sandwich whose
# angle mixes the two features: 12 concrete gates on 3 qubits.

print("\nfeature map gates:")
for gate in zz_feature_map(x):
    angle = "" if gate.angle is None else f"  angle={gate.angle:+.4f}"
    control = "" if gate.control is None else f"  control={gate.control}"
    print(f"  {gate.kind:<2} target={gate.target}{control}{angle}")

##############################################################################
# After the H layer every gate is diagonal, so the encoded state has a closed
# form: each amplitude is a pure phase of modulus 1/sqrt(8). That is how
# ``feature_state`` computes it; the gate-by-gate reference simulation agrees.


def encoded(features):
    """The encoded reading as a state of the reference simulator."""
    return Statevector(3, feature_state(features))


state = encoded(x)
print("\nencoded amplitudes (moduli):", np.round(np.abs(state.amplitudes), 4))
by_gates = apply_gates(zero_state(3), zz_feature_map(x))
print("closed form vs gate by gate:", np.abs(state.amplitudes - by_gates.amplitudes).max())

##############################################################################
# The trainable ansatz that follows the encoding in the hybrid model is a
# RY layer, a CX chain, and a second RY layer: 8 gates, 6 angles, and only
# real amplitudes, which keeps the model's outputs smooth in its parameters.
# For fixed angles the whole ansatz is one real 8 x 8 matrix; its column k
# is the gate-by-gate image of basis state k.

phi = np.linspace(-1.0, 1.0, N_ANSATZ_PARAMS)
ansatz = real_amplitudes(3, phi)
print("\nansatz:", len(ansatz), "gates,", N_ANSATZ_PARAMS, "trainable angles")
columns = [apply_gates(Statevector(3, basis.astype(complex)), ansatz) for basis in np.eye(8)]
unitary = np.column_stack([column.amplitudes for column in columns])
print("ansatz matrix is real and orthogonal:",
      np.allclose(unitary.imag, 0.0) and np.allclose(unitary.real @ unitary.real.T, np.eye(8)))

##############################################################################
# Fidelity as reading similarity
# ~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~
#
# The squared overlap |<a|b>|^2 of two encoded readings acts as a kernel:
# it is 1 for identical readings and falls off as they separate.

nearby = transform(scaler, (-50.5, -60.5, -50.5))
far = transform(scaler, (-60.0, -50.0, -60.0))
print("\nfidelity with itself:        ", fidelity(state, encoded(x)))
print("fidelity with nearby reading:", round(fidelity(state, encoded(nearby)), 6))
print("fidelity with far reading:   ", round(fidelity(state, encoded(far)), 6))

##############################################################################
# The swap test estimates the same overlap the way a quantum device would,
# with an ancilla qubit and controlled swaps instead of direct access to
# the amplitudes. Exact simulation confirms both routes agree.

a, b = encoded(x), encoded(far)
print("\ndirect overlap:   ", fidelity(a, b))
print("swap-test overlap:", swap_test_fidelity(a, b))

##############################################################################
# Fingerprint matching
# ~~~~~~~~~~~~~~~~~~~~
#
# The quantum-fingerprint baseline stores one encoded state per surveyed
# position and answers a query with the position of the highest-fidelity
# entry. No training involved; it is pure nearest-neighbour in state space.

features = np.array([transform(scaler, s.rssi) for s in train])
coords = np.array([s.position for s in train])
db = build_fingerprint_db(features, coords)
print("\nfidelities against the four stored fingerprints:",
      np.round(fingerprint_fidelities(db, x), 4))
print("predicted position:", fingerprint_predict(db, x))
