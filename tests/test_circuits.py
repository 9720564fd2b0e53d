"""Feature map and ansatz structure, input checks, and the closed-form kernel.

The plain gate lists run on the gate-level simulator and the dense-matrix
oracle as references; ``encode_batch`` must match them to 1e-12. It must
also equal the per-gate accumulation of ``oracles.encode_reference`` bit for
bit, so a row encodes to the same bytes alone or in any batch.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqloc.circuits import (
    MAX_ENCODED_FEATURES,
    N_ANSATZ_PARAMS,
    N_FEATURES,
    encode_batch,
    feature_state,
    real_amplitudes,
)
from hqloc.reference import MAX_QUBITS, apply_gates, zero_state, zz_feature_map

from oracles import circuit_matrix, encode_reference


class TestFeatureMapStructure:
    def test_gate_count_three_qubits(self):
        # 3 H + 3 single phases + 2 pairs x (CX, P, CX)
        assert len(zz_feature_map(np.zeros(3))) == 12

    def test_layout_and_angles(self):
        x = np.array([0.2, 0.5, 0.8])
        gates = zz_feature_map(x)
        kinds = [g.kind for g in gates]
        assert kinds == ["H", "H", "H", "P", "P", "P", "CX", "P", "CX", "CX", "P", "CX"]
        np.testing.assert_allclose([g.angle for g in gates[3:6]], 2.0 * x)
        np.testing.assert_allclose(
            gates[7].angle, 2.0 * (math.pi - x[0]) * (math.pi - x[1])
        )
        np.testing.assert_allclose(
            gates[10].angle, 2.0 * (math.pi - x[1]) * (math.pi - x[2])
        )
        # entanglers run down the line: (0,1) then (1,2), phase on the pair's target
        assert (gates[6].control, gates[6].target) == (0, 1)
        assert (gates[9].control, gates[9].target) == (1, 2)
        assert gates[7].target == 1 and gates[10].target == 2

    def test_zero_features_pair_phase(self):
        gates = zz_feature_map(np.zeros(3))
        np.testing.assert_allclose(gates[7].angle, 2.0 * math.pi**2)

    def test_pi_features_zero_out_pair_phase(self):
        gates = zz_feature_map(np.full(3, math.pi))
        np.testing.assert_allclose([gates[3].angle, gates[7].angle], [2 * math.pi, 0.0])

    def test_uniform_probabilities_from_phase_only_encoding(self):
        # all gates after the H layer are diagonal or permutations of the
        # uniform superposition, so every amplitude keeps magnitude 1/sqrt(8)
        rng = np.random.default_rng(0)
        for trial in range(20):
            state = feature_state(rng.uniform(0, 1, size=3))
            np.testing.assert_allclose(np.abs(state), np.full(8, 1 / math.sqrt(8)), atol=1e-12)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            x = rng.uniform(0, 1, size=3)
            expected = circuit_matrix(zz_feature_map(x), 3)[:, 0]  # applied to |000>
            np.testing.assert_allclose(feature_state(x), expected, atol=1e-12)


class TestAnsatzStructure:
    def test_gate_count_and_param_count(self):
        assert N_ANSATZ_PARAMS == 6
        assert len(real_amplitudes(3, np.zeros(N_ANSATZ_PARAMS))) == 8

    def test_layout(self):
        phi = np.arange(6, dtype=float)
        gates = real_amplitudes(3, phi)
        kinds = [g.kind for g in gates]
        assert kinds == ["RY", "RY", "RY", "CX", "CX", "RY", "RY", "RY"]
        np.testing.assert_allclose([g.angle for g in gates[:3]], phi[:3])
        np.testing.assert_allclose([g.angle for g in gates[5:]], phi[3:])
        assert (gates[3].control, gates[3].target) == (0, 1)
        assert (gates[4].control, gates[4].target) == (1, 2)

    def test_pi_rotation_on_qubit_zero_propagates_down_the_chain(self):
        # RY(pi) flips q0; CX(0,1) then flips q1, and CX(1,2) flips q2,
        # leaving |111> = index 7
        phi = np.array([math.pi, 0, 0, 0, 0, 0])
        state = apply_gates(zero_state(3), real_amplitudes(3, phi))
        probs = np.abs(state.amplitudes) ** 2
        np.testing.assert_allclose(probs[7], 1.0, atol=1e-12)

    def test_amplitudes_stay_real(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            phi = rng.uniform(-np.pi, np.pi, size=6)
            state = apply_gates(zero_state(3), real_amplitudes(3, phi))
            np.testing.assert_allclose(state.amplitudes.imag, 0.0, atol=1e-12)

    def test_zero_parameters_is_identity(self):
        state = apply_gates(zero_state(3), real_amplitudes(3, np.zeros(6)))
        np.testing.assert_allclose(np.abs(state.amplitudes[0]), 1.0, atol=1e-15)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            phi = rng.uniform(-np.pi, np.pi, size=6)
            expected = circuit_matrix(real_amplitudes(3, phi), 3)[:, 0]
            state = apply_gates(zero_state(3), real_amplitudes(3, phi))
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


class TestBinding:
    """Binding concrete feature and angle vectors into gate lists and states."""

    def test_bind_requires_expected_vectors(self):
        with pytest.raises(ValueError):
            zz_feature_map(np.zeros(0))
        with pytest.raises(ValueError):
            real_amplitudes(3, np.zeros(0))
        with pytest.raises(ValueError):
            encode_batch(np.zeros((2, 0)))

    def test_bind_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            zz_feature_map(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            real_amplitudes(3, np.zeros(5))
        with pytest.raises(ValueError):
            real_amplitudes(0, np.zeros(0))
        with pytest.raises(ValueError):
            feature_state(np.zeros((1, 3)))

    def test_feature_state_dimension_follows_input(self):
        assert feature_state(np.array([0.3])).shape == (2,)
        assert feature_state(np.array([0.3, 0.4])).shape == (4,)
        assert feature_state(np.zeros(N_FEATURES)).shape == (8,)
        assert encode_batch(np.zeros((5, 2))).shape == (5, 4)

    def test_encoding_is_deterministic(self):
        x = np.array([0.1, 0.9, 0.4])
        np.testing.assert_array_equal(feature_state(x), feature_state(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused(self, bad):
        # exp(1j * nan) would encode them into NaN amplitudes without a warning.
        with pytest.raises(ValueError, match="features must be finite.* first row 0"):
            feature_state(np.array([bad, 0.2, 0.3]))
        X = np.full((4, 3), 0.5)
        X[[1, 2], 2] = bad
        with pytest.raises(ValueError, match=r"NaN or inf in 2 row\(s\), first row 1"):
            encode_batch(X)


unit = st.floats(0.0, 1.0)
# Scaled features lie in [0, 1]; the margin covers readings past a scaler's range.
feature = st.floats(-0.5, 1.5)


class TestClosedFormKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: arrays(float, (4, n), elements=unit)))
    def test_encode_batch_matches_gate_reference(self, X):
        n = X.shape[1]
        rows = encode_batch(X)
        assert rows.shape == (4, 2**n)
        for row, x in zip(rows, X):
            gates = zz_feature_map(x)
            np.testing.assert_allclose(
                row, apply_gates(zero_state(n), gates).amplitudes, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(row, circuit_matrix(gates, n)[:, 0], rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.integers(0, 50).flatmap(lambda m: arrays(float, (m, n), elements=feature))
    ))
    def test_encode_batch_equals_per_gate_accumulation_bit_for_bit(self, X):
        # Width 1 has no pair term; 0 rows give an empty batch.
        rows = encode_batch(X)
        assert rows.shape == (len(X), 2 ** X.shape[1])
        assert rows.tobytes() == encode_reference(X).tobytes()

    def test_the_widest_encoding_is_nine_features(self):
        # Nine features are the widest state the swap test compares: 2 * 9 + 1 qubits.
        assert MAX_ENCODED_FEATURES == 9 == (MAX_QUBITS - 1) // 2
        X = np.random.default_rng(5).uniform(-0.5, 1.5, size=(3, 9))
        assert encode_batch(X).tobytes() == encode_reference(X).tobytes()
        assert feature_state(X[0]).shape == (2**9,)

    @pytest.mark.parametrize("width", [10, 20, 21])
    def test_wider_rows_are_refused(self, width):
        message = rf"1 to 9 features per row, got shape \(2, {width}\)"
        with pytest.raises(ValueError, match=message):
            encode_batch(np.full((2, width), 0.5))
        with pytest.raises(ValueError, match=rf"1 to 9 features per row, got shape \(1, {width}\)"):
            feature_state(np.full(width, 0.5))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_a_row_encodes_to_the_same_bytes_alone_and_in_any_batch(self, data):
        n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 50))
        X = data.draw(arrays(float, (m, n), elements=feature))
        i = data.draw(st.integers(0, m - 1))
        row = encode_batch(X)[i].tobytes()
        assert encode_batch(X[i : i + 1]).tobytes() == row
        assert encode_batch(X[i:])[0].tobytes() == row
        assert feature_state(X[i]).tobytes() == row

    @pytest.mark.parametrize("n_rows", [1, 2000])
    def test_an_encode_peaks_within_twice_the_per_gate_loop(self, n_rows):
        X = np.random.default_rng(4).uniform(0.0, 1.0, size=(n_rows, N_FEATURES))
        peaks = []
        for encode in (encode_batch, encode_reference):
            encode(X)  # fill the caches outside the traced call
            tracemalloc.start()
            try:
                encode(X)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * peaks[1], peaks
