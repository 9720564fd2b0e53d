"""Baseline method tests: KNN vs brute force, fingerprint matching, swap test."""

import re

import numpy as np
import pytest

from hqloc.baselines import (
    _toffoli_gates,
    build_fingerprint_db,
    fidelity,
    fingerprint_fidelities,
    fingerprint_predict,
    fit_knn,
    knn_predict,
    swap_test_fidelity,
)
from hqloc.circuits import feature_state
from hqloc.statevector import Statevector, apply_gates

from oracles import fidelity_oracle, knn_oracle


def random_state(rng, n_qubits):
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return Statevector(n_qubits, amps / np.linalg.norm(amps))


class TestKnn:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = rng.integers(3, 30)
            feats = rng.uniform(-1.0, 1.0, size=(n, 3))
            targs = rng.uniform(0.0, 6.0, size=(n, 2))
            k = int(rng.integers(1, n + 1))
            x = rng.uniform(-1.0, 1.0, size=3)
            model = fit_knn(feats, targs, k=k)
            np.testing.assert_allclose(
                knn_predict(model, x), knn_oracle(feats, targs, x, k), rtol=0, atol=1e-12
            )

    def test_k1_returns_nearest_target(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        targs = np.array([[5.0, 5.0], [1.0, 1.0], [2.0, 2.0]])
        model = fit_knn(feats, targs, k=1)
        np.testing.assert_array_equal(knn_predict(model, [0.9, 0.1]), [1.0, 1.0])

    def test_k_equals_n_returns_global_mean(self):
        feats = np.arange(8.0).reshape(4, 2)
        targs = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [2.0, 4.0]])
        model = fit_knn(feats, targs, k=4)
        np.testing.assert_allclose(
            knn_predict(model, [0.0, 0.0]), [1.0, 2.0], rtol=0, atol=1e-15
        )

    def test_distance_ties_break_on_lower_index(self):
        # Rows 0 and 1 are equidistant from the query; k=1 must pick row 0.
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        targs = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        model = fit_knn(feats, targs, k=1)
        np.testing.assert_array_equal(knn_predict(model, [0.0, 0.0]), [10.0, 0.0])

    def test_batch_equals_one_query_at_a_time(self):
        rng = np.random.default_rng(10)
        feats = rng.integers(0, 3, size=(12, 3)).astype(float)  # many distance ties
        targs = rng.uniform(0.0, 6.0, size=(12, 2))
        queries = rng.integers(0, 3, size=(40, 3)).astype(float)
        for k in (1, 3, 12):
            model = fit_knn(feats, targs, k=k)
            batch = knn_predict(model, queries)
            assert batch.shape == (40, 2)
            np.testing.assert_array_equal(batch, [knn_predict(model, q) for q in queries])
            np.testing.assert_array_equal(batch, [knn_oracle(feats, targs, q, k) for q in queries])

    @pytest.mark.parametrize("query", [[0.5], [[0.5, 0.2]], np.zeros((2, 2, 3)), 0.5])
    def test_refuses_queries_of_the_wrong_shape(self, query):
        model = fit_knn(np.zeros((4, 3)), np.zeros((4, 2)), k=1)
        with pytest.raises(ValueError, match="expected queries of 3 features, got shape"):
            knn_predict(model, query)

    def test_validation(self):
        feats = np.zeros((4, 3))
        targs = np.zeros((4, 2))
        with pytest.raises(ValueError):
            fit_knn(feats, targs, k=0)
        with pytest.raises(ValueError):
            fit_knn(feats, targs, k=5)
        with pytest.raises(ValueError):
            fit_knn(feats, np.zeros((3, 2)), k=1)
        with pytest.raises(ValueError):
            fit_knn(np.zeros((0, 3)), np.zeros((0, 2)), k=1)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2.0), True, "2"])
    def test_non_integer_k_rejected(self, k):
        # 2.5 passes the range check, then fails inside knn_predict's slicing.
        feats, targs = np.zeros((4, 3)), np.zeros((4, 2))
        with pytest.raises(ValueError, match=f"k must be an integer, got {re.escape(repr(k))}"):
            fit_knn(feats, targs, k=k)
        assert fit_knn(feats, targs, k=np.int64(2)).k == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_refused(self, bad):
        feats, targs = np.full((4, 3), 0.5), np.zeros((4, 2))
        bad_feats, bad_targs = feats.copy(), targs.copy()
        bad_feats[2, 1] = bad
        bad_targs[3, 0] = bad
        with pytest.raises(ValueError, match="features must be finite.* first row 2"):
            fit_knn(bad_feats, targs, k=1)
        with pytest.raises(ValueError, match="targets must be finite.* first row 3"):
            fit_knn(feats, bad_targs, k=1)
        model = fit_knn(feats, targs, k=1)
        with pytest.raises(ValueError, match="features must be finite.* first row 0"):
            knn_predict(model, [bad, 0.2, 0.3])
        with pytest.raises(ValueError, match="features must be finite.* first row 2"):
            knn_predict(model, bad_feats)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            state = random_state(rng, 3)
            np.testing.assert_allclose(fidelity(state, state), 1.0, rtol=0, atol=1e-12)

    def test_orthogonal_states(self):
        a = Statevector(1, np.array([1.0, 0.0], dtype=complex))
        b = Statevector(1, np.array([0.0, 1.0], dtype=complex))
        assert fidelity(a, b) == 0.0

    def test_symmetric_and_matches_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            a = random_state(rng, 3)
            b = random_state(rng, 3)
            f = fidelity(a, b)
            np.testing.assert_allclose(f, fidelity(b, a), rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                f, fidelity_oracle(a.amplitudes, b.amplitudes), rtol=0, atol=1e-12
            )
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_qubit_count_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            fidelity(random_state(rng, 2), random_state(rng, 3))


class TestToffoliDecomposition:
    @pytest.mark.parametrize("c1,c2,target", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_truth_table(self, c1, c2, target):
        # The target bit flips exactly when both control bits are set, with
        # no residual phase on any basis state.
        gates = _toffoli_gates(c1, c2, target)
        for j in range(8):
            amps = np.zeros(8, dtype=complex)
            amps[j] = 1.0
            out = apply_gates(Statevector(3, amps), gates)
            expected = j ^ (1 << target) if (j >> c1) & 1 and (j >> c2) & 1 else j
            want = np.zeros(8, dtype=complex)
            want[expected] = 1.0
            np.testing.assert_allclose(out.amplitudes, want, rtol=0, atol=1e-12)


class TestSwapTest:
    def test_matches_direct_fidelity(self):
        rng = np.random.default_rng(4)
        for n_qubits in (1, 2, 3):
            for trial in range(5):
                a = random_state(rng, n_qubits)
                b = random_state(rng, n_qubits)
                np.testing.assert_allclose(
                    swap_test_fidelity(a, b), fidelity(a, b), rtol=0, atol=1e-10
                )

    def test_identical_and_orthogonal_states(self):
        a = Statevector(1, np.array([1.0, 0.0], dtype=complex))
        b = Statevector(1, np.array([0.0, 1.0], dtype=complex))
        np.testing.assert_allclose(swap_test_fidelity(a, a), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(swap_test_fidelity(a, b), 0.0, rtol=0, atol=1e-12)

    def test_encoded_features(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            a = feature_state(rng.uniform(0.0, 1.0, size=3))
            b = feature_state(rng.uniform(0.0, 1.0, size=3))
            np.testing.assert_allclose(
                swap_test_fidelity(a, b), fidelity(a, b), rtol=0, atol=1e-10
            )

    def test_qubit_count_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            swap_test_fidelity(random_state(rng, 1), random_state(rng, 2))


class TestFingerprint:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused(self, bad):
        feats = np.full((4, 3), 0.5)
        feats[2, 0] = bad
        with pytest.raises(ValueError, match="features must be finite.* first row 2"):
            build_fingerprint_db(feats, np.zeros((4, 2)))

    def test_fidelities_in_unit_interval(self):
        rng = np.random.default_rng(7)
        feats = rng.uniform(0.0, 1.0, size=(20, 3))
        coords = rng.uniform(0.0, 5.0, size=(20, 2))
        db = build_fingerprint_db(feats, coords)
        for trial in range(10):
            fids = fingerprint_fidelities(db, rng.uniform(0.0, 1.0, size=3))
            assert fids.shape == (20,)
            assert np.all(fids >= -1e-12)
            assert np.all(fids <= 1.0 + 1e-12)

    def test_stored_feature_matches_itself(self):
        rng = np.random.default_rng(8)
        feats = rng.uniform(0.0, 1.0, size=(10, 3))
        coords = rng.uniform(0.0, 5.0, size=(10, 2))
        db = build_fingerprint_db(feats, coords)
        for i in range(10):
            fids = fingerprint_fidelities(db, feats[i])
            np.testing.assert_allclose(fids[i], 1.0, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(fingerprint_predict(db, feats[i]), coords[i])

    def test_argmax_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(2, 15))
            feats = rng.uniform(0.0, 1.0, size=(n, 3))
            coords = rng.uniform(0.0, 6.0, size=(n, 2))
            db = build_fingerprint_db(feats, coords)
            x = rng.uniform(0.0, 1.0, size=3)
            psi = feature_state(x)
            fids = [
                fidelity_oracle(feature_state(f).amplitudes, psi.amplitudes)
                for f in feats
            ]
            best = max(range(n), key=lambda i: fids[i])
            np.testing.assert_array_equal(fingerprint_predict(db, x), coords[best])
            np.testing.assert_allclose(
                fingerprint_fidelities(db, x), fids, rtol=0, atol=1e-12
            )

    def test_batch_equals_one_query_at_a_time(self):
        rng = np.random.default_rng(11)
        feats = rng.uniform(0.0, 1.0, size=(15, 3))
        feats[7] = feats[2]  # a fidelity tie goes to the lower index
        coords = rng.uniform(0.0, 6.0, size=(15, 2))
        db = build_fingerprint_db(feats, coords)
        queries = np.vstack([rng.uniform(0.0, 1.0, size=(30, 3)), feats[2]])
        fids = fingerprint_fidelities(db, queries)
        assert fids.shape == (31, 15)
        # The per-query loop, one statevector at a time, is the reference.
        loop = [np.abs(db.states.conj() @ feature_state(q).amplitudes) ** 2 for q in queries]
        np.testing.assert_array_equal(fids, loop)
        np.testing.assert_array_equal(fids, [fingerprint_fidelities(db, q) for q in queries])
        batch = fingerprint_predict(db, queries)
        np.testing.assert_array_equal(batch, [fingerprint_predict(db, q) for q in queries])
        np.testing.assert_array_equal(batch[-1], coords[2])

    @pytest.mark.parametrize("query", [[0.5, 0.2], [[0.5, 0.2]], np.zeros((2, 2, 3)), 0.5])
    def test_refuses_queries_of_the_wrong_shape(self, query):
        db = build_fingerprint_db(np.zeros((4, 3)), np.zeros((4, 2)))
        for predict in (fingerprint_fidelities, fingerprint_predict):
            with pytest.raises(ValueError, match="expected queries of 3 features, got shape"):
                predict(db, query)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_fingerprint_db(np.zeros((0, 3)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            build_fingerprint_db(np.zeros((3, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            build_fingerprint_db(np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coords_refused(self, bad):
        coords = np.zeros((4, 2))
        coords[1, 1] = bad
        with pytest.raises(ValueError, match="coords must be finite.* first row 1"):
            build_fingerprint_db(np.full((4, 3), 0.5), coords)
