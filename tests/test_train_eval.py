"""Hybrid training tests: joint gradient, the loop's contracts, comparison records."""

import math

import numpy as np
import pytest

from hqloc.classical import forward as dense_forward
from hqloc.classical import baseline_net, mse_loss
from hqloc.data import fit_scaler, gen_scenario_standin, scenario_meta, gen_synthetic, transform_samples
from hqloc.train_eval import (
    CompareConfig,
    HybridModel,
    TrainConfig,
    compare_all,
    config_digest,
    dense_grad,
    evaluate_rmse,
    format_comparison,
    hqnn_forward,
    hqnn_grad,
    init_hybrid_model,
    model_param_vector,
    records_to_csv_rows,
    set_model_params,
    train,
)

from oracles import fd_gradient


def small_problem(seed=0, n=6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 3))
    Z = rng.uniform(0.0, 5.0, size=(n, 2))
    return X, Z


def batch_mse(model, X, Z):
    preds = np.array([hqnn_forward(model, x) for x in X])
    return mse_loss(preds, Z)


class TestHybridModel:
    def test_parameter_count_is_200(self):
        # 6 ansatz angles + (3*32+32) + (32*2+2) head parameters.
        assert init_hybrid_model(seed=0).params.size == 200

    def test_init_is_seeded(self):
        a = init_hybrid_model(seed=5)
        b = init_hybrid_model(seed=5)
        c = init_hybrid_model(seed=6)
        np.testing.assert_array_equal(model_param_vector(a), model_param_vector(b))
        assert not np.array_equal(model_param_vector(a), model_param_vector(c))

    def test_angles_in_pi_range(self):
        for seed in range(10):
            phi = init_hybrid_model(seed=seed).qlayer.phi
            assert phi.shape == (6,)
            assert np.all(np.abs(phi) <= np.pi)

    def test_param_vector_round_trip(self):
        model = init_hybrid_model(seed=1)
        vec = model_param_vector(model)
        assert vec.shape == (200,)
        other = init_hybrid_model(seed=2)
        set_model_params(other, vec)
        np.testing.assert_array_equal(model_param_vector(other), vec)
        x = np.array([0.2, 0.5, 0.8])
        np.testing.assert_allclose(
            hqnn_forward(other, x), hqnn_forward(model, x), rtol=0, atol=1e-12
        )

    def test_wrong_param_length_rejected(self):
        with pytest.raises(ValueError):
            set_model_params(init_hybrid_model(), np.zeros(199))

    def test_forward_returns_coordinates(self):
        model = init_hybrid_model(seed=3)
        out = hqnn_forward(model, np.array([0.1, 0.9, 0.4]))
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))


class TestHybridGradient:
    def test_matches_finite_differences(self):
        # The acceptance bar is 1e-4 at h=1e-4; a tighter h gives margin here.
        rng = np.random.default_rng(0)
        for trial in range(5):
            model = init_hybrid_model(seed=int(rng.integers(1000)))
            X, Z = small_problem(seed=trial, n=4)

            def loss(vec):
                probe = init_hybrid_model(seed=0)
                set_model_params(probe, vec)
                return batch_mse(probe, X, Z)

            analytic = hqnn_grad(model, X, Z)
            numeric = fd_gradient(loss, model_param_vector(model), h=1e-5)
            np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)

    def test_precomputed_encodings_change_nothing(self):
        from hqloc.qlayer import encode_batch

        model = init_hybrid_model(seed=4)
        X, Z = small_problem(seed=4)
        plain = hqnn_grad(model, X, Z)
        cached = hqnn_grad(model, X, Z, encoded=encode_batch(X))
        np.testing.assert_array_equal(plain, cached)

    def test_batch_validation(self):
        model = init_hybrid_model(seed=0)
        with pytest.raises(ValueError):
            hqnn_grad(model, np.zeros((0, 3)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            hqnn_grad(model, np.zeros((3, 3)), np.zeros((2, 2)))

    def test_dense_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        net = baseline_net(7)
        X = rng.uniform(0.0, 1.0, size=(5, 3))
        Z = rng.uniform(0.0, 5.0, size=(5, 2))

        def loss(vec):
            probe = baseline_net(0)
            probe.params[:] = vec
            preds = np.array([dense_forward(probe, x) for x in X])
            return mse_loss(preds, Z)

        analytic = dense_grad(net, X, Z)
        numeric = fd_gradient(loss, net.params.copy(), h=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.optimizer == "adam"
        assert config.eta == 0.001
        assert config.epochs == 300
        assert config.shots_eval is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adagrad")
        with pytest.raises(ValueError):
            TrainConfig(eta=-0.1)
        for eta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="learning rate must be finite"):
                TrainConfig(eta=eta)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestCompareConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"eta": math.nan}, "learning rate must be finite"),
            ({"eta": -1.0}, "learning rate must be finite"),
            ({"epochs": 0}, "epochs must be >= 1"),
            ({"optimizer": "adagrad"}, "optimizer must be one of"),
            ({"seeds": ()}, "seeds must not be empty"),
        ],
    )
    def test_invalid_config_raises_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            CompareConfig(**kwargs)

    def test_defaults_are_valid(self):
        assert CompareConfig().seeds == (1, 2, 3)


@pytest.mark.parametrize("shots, message", [(0, "shots must be >= 1"),
                                            (2**63, r"shots must be <= 2\*\*63 - 1")])
def test_configs_refuse_shot_budgets_outside_int64(shots, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(shots_eval=shots)
    with pytest.raises(ValueError, match=message):
        CompareConfig(shots=shots)
    assert TrainConfig(shots_eval=2**63 - 1).shots_eval == CompareConfig(shots=2**63 - 1).shots


@pytest.mark.parametrize("seed", [-1, 2**63])
def test_configs_refuse_seeds_outside_the_seed_range(seed):
    message = r"seed must be an integer in \[0, 2\*\*63 - 1\]"
    with pytest.raises(ValueError, match=message):
        TrainConfig(seed=seed)
    with pytest.raises(ValueError, match=message):
        CompareConfig(seeds=(1, seed))
    assert TrainConfig(seed=2**63 - 1).seed == CompareConfig(seeds=(0, 2**63 - 1)).seeds[1]


class TestTrainingLoop:
    def test_loss_trace_length_equals_epochs(self):
        model = init_hybrid_model(seed=0)
        X, Z = small_problem()
        report = train(model, X, Z, TrainConfig(epochs=12))
        assert report.loss_per_epoch.shape == (12,)

    def test_loss_decreases_on_trainable_problem(self):
        model = init_hybrid_model(seed=1)
        X, Z = small_problem(seed=1, n=10)
        report = train(model, X, Z, TrainConfig(epochs=60, eta=0.01))
        assert report.final_train_mse < report.loss_per_epoch[0]
        assert report.loss_per_epoch[-1] < report.loss_per_epoch[0]

    def test_zero_eta_keeps_loss_constant(self):
        model = init_hybrid_model(seed=2)
        X, Z = small_problem(seed=2)
        report = train(model, X, Z, TrainConfig(epochs=5, eta=0.0, optimizer="sgd"))
        np.testing.assert_allclose(
            report.loss_per_epoch, report.loss_per_epoch[0], rtol=0, atol=1e-12
        )

    def test_sgd_and_adam_both_step(self):
        X, Z = small_problem(seed=3)
        for optimizer in ("adam", "sgd"):
            model = init_hybrid_model(seed=3)
            before = model_param_vector(model)
            train(model, X, Z, TrainConfig(epochs=3, eta=0.01, optimizer=optimizer))
            assert not np.array_equal(model_param_vector(model), before)

    def test_first_trace_entry_is_initialization_loss(self):
        model = init_hybrid_model(seed=4)
        X, Z = small_problem(seed=4)
        init_loss = batch_mse(model, X, Z)
        report = train(model, X, Z, TrainConfig(epochs=2))
        np.testing.assert_allclose(report.loss_per_epoch[0], init_loss, rtol=0, atol=1e-12)

    def test_training_is_deterministic(self):
        X, Z = small_problem(seed=5)
        traces = []
        for _ in range(2):
            model = init_hybrid_model(seed=5)
            traces.append(train(model, X, Z, TrainConfig(epochs=8)).loss_per_epoch)
        np.testing.assert_array_equal(traces[0], traces[1])

    def test_divergence_raises_runtime_error(self):
        model = init_hybrid_model(seed=6)
        X, Z = small_problem(seed=6)
        # The loss is meant to overflow here; keep numpy quiet about it.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="learning rate"):
                train(model, X, Z, TrainConfig(epochs=400, eta=1e6, optimizer="sgd"))

    def test_test_split_reports_rmse(self):
        model = init_hybrid_model(seed=8)
        X, Z = small_problem(seed=8, n=8)
        report = train(model, X, Z, TrainConfig(epochs=3), test=(X[:4], Z[:4]))
        direct = evaluate_rmse(
            lambda X: np.array([hqnn_forward(model, x) for x in X]), X[:4], Z[:4]
        )
        np.testing.assert_allclose(report.final_test_rmse, direct, rtol=0, atol=1e-12)

    def test_shots_eval_changes_test_rmse_reproducibly(self):
        X, Z = small_problem(seed=9, n=8)
        rmses = []
        for _ in range(2):
            model = init_hybrid_model(seed=9)
            config = TrainConfig(epochs=3, shots_eval=256, seed=11)
            report = train(model, X, Z, config, test=(X[:4], Z[:4]))
            rmses.append(report.final_test_rmse)
        assert rmses[0] == rmses[1]
        model = init_hybrid_model(seed=9)
        exact = train(model, X, Z, TrainConfig(epochs=3), test=(X[:4], Z[:4]))
        assert rmses[0] != exact.final_test_rmse

    def test_trains_plain_dense_net(self):
        net = baseline_net(1)
        X, Z = small_problem(seed=10, n=10)
        report = train(net, X, Z, TrainConfig(epochs=40, eta=0.01))
        assert report.final_train_mse < report.loss_per_epoch[0]

    def test_rejects_unknown_model_type(self):
        with pytest.raises(TypeError):
            train(object(), *small_problem(), TrainConfig(epochs=1))

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            train(init_hybrid_model(), np.zeros((0, 3)), np.zeros((0, 2)), TrainConfig())
        with pytest.raises(ValueError, match="training set is empty"):
            train(init_hybrid_model(), [], [], TrainConfig())

    @pytest.mark.parametrize("make_model", [init_hybrid_model, baseline_net])
    def test_rejects_target_count_mismatch(self, make_model):
        X, Z = small_problem(n=6)
        with pytest.raises(ValueError, match="training set mismatch: 6 inputs vs 4 targets"):
            train(make_model(0), X, Z[:4], TrainConfig(epochs=1))


class TestEvaluateRmse:
    def test_hand_value(self):
        # Predictions off by (3, 4) on one point and exact on another:
        # sqrt((25 + 0) / 2).
        preds = {(0.0, 0.0, 0.0): np.array([3.0, 4.0]), (1.0, 1.0, 1.0): np.array([1.0, 1.0])}
        X = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        Z = np.array([[0.0, 0.0], [1.0, 1.0]])
        rmse = evaluate_rmse(lambda X: np.array([preds[tuple(x)] for x in X]), X, Z)
        np.testing.assert_allclose(rmse, np.sqrt(12.5), rtol=0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_rmse(lambda x: x, np.zeros((0, 3)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            evaluate_rmse(lambda x: x, np.zeros((2, 3)), np.zeros((3, 2)))


@pytest.fixture(scope="module")
def records():
    meta, train_s, test_s = gen_scenario_standin("Sc-2", "WiFi", seed=0)
    config = CompareConfig(seeds=(1, 2), epochs=8, shots=128, knn_ks=(1, 3))
    return compare_all(meta, train_s, test_s, config)


class TestCompareAll:
    def test_every_method_present(self, records):
        methods = {r["method"] for r in records}
        assert methods == {
            "classical_nn",
            "knn",
            "quantum_fingerprint",
            "hqnn_exact",
            "hqnn_shots",
        }

    def test_record_schema(self, records):
        keys = {
            "scenario",
            "technology",
            "method",
            "seed",
            "rmse_m",
            "note",
            "config_digest",
        }
        for r in records:
            assert set(r) == keys
            assert r["scenario"] == "Sc-2"
            assert r["technology"] == "WiFi"
            assert r["rmse_m"] is None or r["rmse_m"] > 0.0

    def test_seeded_methods_get_per_seed_and_mean_rows(self, records):
        for method in ("classical_nn", "hqnn_exact", "hqnn_shots"):
            seeds = [r["seed"] for r in records if r["method"] == method]
            assert seeds == [1, 2, "mean"]
            per_seed = [r["rmse_m"] for r in records if r["method"] == method][:2]
            mean_row = [r for r in records if r["method"] == method][-1]
            np.testing.assert_allclose(mean_row["rmse_m"], np.mean(per_seed), rtol=0, atol=1e-12)

    def test_unseeded_methods_get_single_rows(self, records):
        for method in ("knn", "quantum_fingerprint"):
            rows = [r for r in records if r["method"] == method]
            assert len(rows) == 1
            assert rows[0]["seed"] is None

    def test_knn_note_records_chosen_k(self, records):
        note = [r for r in records if r["method"] == "knn"][0]["note"]
        assert note in ("k=1", "k=3")

    def test_is_deterministic(self):
        meta, train_s, test_s = gen_scenario_standin("Sc-1", "Zigbee", seed=1)
        config = CompareConfig(seeds=(1,), epochs=4, shots=64, knn_ks=(1,))
        a = compare_all(meta, train_s, test_s, config)
        b = compare_all(meta, train_s, test_s, config)
        assert a == b

    def test_digest_tracks_config_and_meta(self):
        meta = scenario_meta("Sc-1", "WiFi")
        a = config_digest(meta, CompareConfig())
        b = config_digest(meta, CompareConfig(epochs=301))
        c = config_digest(scenario_meta("Sc-1", "Bluetooth"), CompareConfig())
        assert a != b and a != c
        assert a == config_digest(scenario_meta("Sc-1", "WiFi"), CompareConfig())

    def test_formatting_and_csv_rows(self, records):
        text = format_comparison(records)
        lines = text.splitlines()
        assert len(lines) == len(records) + 2
        assert lines[0].split() == ["scenario", "technology", "method", "seed", "rmse_m", "note"]
        rows = records_to_csv_rows(records)
        assert len(rows) == len(records) + 1
        # Full precision: the stringified RMSE parses back to the exact float.
        for row, r in zip(rows[1:], records):
            if r["rmse_m"] is not None:
                assert float(row[4]) == r["rmse_m"]

    def test_failed_hybrid_training_runs_once_per_seed(self, monkeypatch):
        # The exact and sampled rows share one training per seed, also when it fails.
        import hqloc.train_eval as train_eval

        hybrid_seeds = []
        real_train = train_eval.train

        def probe_train(model, X, Z, config, test=None):
            if isinstance(model, HybridModel):
                hybrid_seeds.append(config.seed)
                if config.seed == 2:
                    raise RuntimeError("probe failure")
            return real_train(model, X, Z, config, test)

        monkeypatch.setattr(train_eval, "train", probe_train)
        meta, train_s, test_s = gen_scenario_standin("Sc-2", "WiFi", seed=0)
        config = CompareConfig(seeds=(1, 2), epochs=2, shots=32, knn_ks=(1,))
        records = compare_all(meta, train_s, test_s, config)
        assert hybrid_seeds == [1, 2]
        for method in ("hqnn_exact", "hqnn_shots"):
            rows = {r["seed"]: r for r in records if r["method"] == method}
            assert rows[1]["rmse_m"] is not None
            assert rows[2]["rmse_m"] is None
            assert rows[2]["note"] == "failed: probe failure"
            assert rows["mean"]["rmse_m"] == rows[1]["rmse_m"]

    def test_failed_method_recorded_not_raised(self):
        # A k sweep larger than the training set leaves KNN without a result.
        meta, train_s, test_s = gen_scenario_standin("Sc-2", "WiFi", seed=0)
        config = CompareConfig(seeds=(1,), epochs=2, shots=32, knn_ks=(99,))
        records = compare_all(meta, train_s, test_s, config)
        knn_rows = [r for r in records if r["method"] == "knn"]
        assert len(knn_rows) == 1
        assert knn_rows[0]["rmse_m"] is None
