"""Hybrid training tests: joint gradient, the loop's contracts, comparison records."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqloc import classical, optim
from hqloc.classical import forward as dense_forward
from hqloc.classical import baseline_net, mse_loss
from hqloc.data import fit_scaler, gen_scenario_standin, scenario_meta, gen_synthetic, transform_samples
from hqloc.qlayer import encode_batch, pauli_features, q_forward_batch
from hqloc.train_eval import (
    CompareConfig,
    HybridModel,
    TrainConfig,
    compare_all,
    config_digest,
    evaluate_rmse,
    format_comparison,
    hqnn_forward,
    hqnn_forward_batch,
    hqnn_grad,
    init_hybrid_model,
    records_to_csv_rows,
    train,
    train_stack,
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
        np.testing.assert_array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)

    def test_angles_in_pi_range(self):
        for seed in range(10):
            phi = init_hybrid_model(seed=seed).qlayer.phi
            assert phi.shape == (6,)
            assert np.all(np.abs(phi) <= np.pi)

    def test_param_vector_round_trip(self):
        model = init_hybrid_model(seed=1)
        vec = model.params.copy()
        assert vec.shape == (200,)
        other = init_hybrid_model(seed=2)
        other.params[:] = vec
        np.testing.assert_array_equal(other.params, vec)
        x = np.array([0.2, 0.5, 0.8])
        np.testing.assert_allclose(
            hqnn_forward(other, x), hqnn_forward(model, x), rtol=0, atol=1e-12
        )

    def test_forward_returns_coordinates(self):
        model = init_hybrid_model(seed=3)
        out = hqnn_forward(model, np.array([0.1, 0.9, 0.4]))
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))

    def test_a_fix_agrees_with_its_batch_row_to_1e_15_of_its_size(self):
        # Not bit for bit: the row encodes to the same bytes, but a one-row
        # matrix product takes another BLAS path than a batch's.
        model = init_hybrid_model(seed=0)
        X = np.random.default_rng(6).uniform(0.0, 1.0, size=(300, 3))
        batch = hqnn_forward_batch(model, X)
        fixes = np.array([hqnn_forward(model, x) for x in X])
        np.testing.assert_allclose(fixes, batch, rtol=0, atol=1e-15 * np.abs(batch).max())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_one_fix_on_a_stack_gives_each_models_fix(self, S, seed):
        # A stack's single fix is (S, 2), and row s is bit for bit the fix
        # model s gives alone, as the stacked batch's rows are.
        import hqloc.train_eval as train_eval

        rng = np.random.default_rng(seed)
        models = [init_hybrid_model(int(s)) for s in rng.integers(0, 2**32, size=S)]
        stack = train_eval._stack(models)
        for x in rng.uniform(0.0, 1.0, size=(3, 3)):
            fix = hqnn_forward(stack, x)
            assert fix.shape == (S, 2)
            for s, model in enumerate(models):
                np.testing.assert_array_equal(fix[s], hqnn_forward(model, x))

    @pytest.mark.parametrize("shots", [None, 4096])
    def test_an_evaluation_batch_leaves_nothing_behind(self, shots):
        # The batch's encoded rows and Pauli features are the call's own:
        # once it returns, nothing of 2000 rows (288 B each) stays cached.
        import tracemalloc

        model = init_hybrid_model(seed=1)
        X = np.random.default_rng(9).uniform(0.0, 1.0, size=(2000, 3))
        hqnn_forward_batch(model, X[:5], shots, 1)  # compiles phi, fills lazy tables
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = hqnn_forward_batch(model, X, shots, 1)
            retained = tracemalloc.get_traced_memory()[0] - before - out.nbytes
        finally:
            tracemalloc.stop()
        assert retained < 16 * 1024, f"{retained / 1024:.1f} KiB retained"

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_wrong_feature_width_names_the_three_features(self, width):
        model = init_hybrid_model(seed=3)
        with pytest.raises(ValueError, match=rf"3 features, got shape \({width},\)"):
            hqnn_forward(model, np.full(width, 0.5))
        with pytest.raises(ValueError, match=rf"3 features, got shape \(4, {width}\)"):
            hqnn_forward_batch(model, np.zeros((4, width)))
        with pytest.raises(ValueError, match=rf"3 features, got shape \(4, {width}\)"):
            hqnn_forward_batch(model, np.zeros((4, width)), shots=8, seed=1)
        X, Z = np.full((4, width), 0.5), np.zeros((4, 2))
        with pytest.raises(ValueError, match=rf"3 features, got shape \(4, {width}\)"):
            hqnn_grad(model, X, Z)
        with pytest.raises(ValueError, match=rf"3 features, got shape \(4, {width}\)"):
            train(model, X, Z, TrainConfig(epochs=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_refused(self, bad):
        model = init_hybrid_model(seed=3)
        with pytest.raises(ValueError, match="features must be finite"):
            hqnn_forward(model, [bad, 0.2, 0.3])
        X = np.full((5, 3), 0.5)
        X[3, 1] = bad
        with pytest.raises(ValueError, match="features must be finite.* first row 3"):
            hqnn_forward_batch(model, X)
        with pytest.raises(ValueError, match="features must be finite"):
            hqnn_forward_batch(model, X, shots=8, seed=1)


@pytest.mark.parametrize("scenario, epochs", [("Sc-1", 50), ("Sc-3", 2000)])
def test_a_rows_exact_prediction_moves_a_few_ulp_of_the_outputs_with_its_batch_size(
    scenario, epochs
):
    # hqnn_forward_batch's contract: BLAS takes other paths for other batch
    # sizes, so a row's prediction may move in its last bits with the batch
    # it is in, by at most 1e-15 of the outputs' size, and every rerun gives
    # the same bits. The Sc-3 room is 10.8 m wide; its model's predictions
    # reach past 8 m, where one ulp is already 1.78e-15.
    _, samples, _ = gen_scenario_standin(scenario, "WiFi", seed=1)
    X_train, Z_train = transform_samples(fit_scaler(samples), samples)
    model = init_hybrid_model(seed=1)
    train(model, X_train, Z_train, TrainConfig(epochs=epochs))
    X = np.random.default_rng(41).uniform(0.0, 1.0, size=(4099, 3))
    whole = hqnn_forward_batch(model, X)
    size_of_outputs = np.abs(whole).max()
    assert size_of_outputs >= (8.0 if scenario == "Sc-3" else 0.5)
    assert hqnn_forward_batch(model, X).tobytes() == whole.tobytes()
    for size in (1, 2, 8, 64, 4096):
        chunked = np.concatenate([hqnn_forward_batch(model, X[i : i + size])
                                  for i in range(0, len(X), size)])
        assert np.abs(chunked - whole).max() <= 1e-15 * size_of_outputs, size
        rerun = np.concatenate([hqnn_forward_batch(model, X[i : i + size])
                                for i in range(0, len(X), size)])
        assert rerun.tobytes() == chunked.tobytes(), size


class TestHybridGradient:
    def test_matches_finite_differences(self):
        # The acceptance bar is 1e-4 at h=1e-4; a tighter h gives margin here.
        rng = np.random.default_rng(0)
        for trial in range(5):
            model = init_hybrid_model(seed=int(rng.integers(1000)))
            X, Z = small_problem(seed=trial, n=4)

            def loss(vec):
                probe = init_hybrid_model(seed=0)
                probe.params[:] = vec
                return batch_mse(probe, X, Z)

            analytic = hqnn_grad(model, X, Z)
            numeric = fd_gradient(loss, model.params.copy(), h=1e-5)
            np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(S=st.integers(1, 4), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_a_stacks_phi_gradient_is_each_models_solo_contraction(self, S, n, seed):
        # phi's gradient is one contraction over the stack; row s must equal
        # model s's own einsum bit for bit, whatever the other rows hold.
        import hqloc.train_eval as train_eval

        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-6, 7, size=(S, n, 1))  # sums that round
        input_grads = rng.standard_normal((S, n, 3)) * scale
        shift_matrices = rng.standard_normal((S, n, 3, 6))
        j, k = np.nonzero(~np.eye(3, dtype=bool))
        shift_matrices[:, :, j, 3 + k] = 0.0  # angle 3 + k turns qubit k only
        lead = (S,) if S > 1 else ()  # a stack of one is the model, no seed axis
        model = train_eval._stack([init_hybrid_model(s) for s in range(S)])
        X, Z = small_problem(seed=seed % 1000, n=n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(train_eval, "q_gradient_batch",
                          lambda layer, rows: shift_matrices.reshape(*lead, n, 3, 6))
            patch.setattr(classical, "loss_and_grad", lambda head, U, Z, work: (
                None, np.zeros((*lead, 0)), input_grads.reshape(*lead, n, 3)))
            phi_grad = hqnn_grad(model, X, Z)[..., :6].reshape(S, 6)
        for s in range(S):
            solo = np.einsum("nj,njk->k", input_grads[s], shift_matrices[s])
            np.testing.assert_array_equal(phi_grad[s], solo)

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

        analytic = classical.loss_and_grad(net, X, Z, classical.workspace(net, len(X)))[1]
        numeric = fd_gradient(loss, net.params.copy(), h=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.optimizer == "adam"
        assert config.eta == 0.001
        assert config.epochs == 300
        assert config.seed == 0
        # Training has no test set, so no evaluation settings either.
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "optimizer", "eta", "epochs", "seed"
        ]

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

    @pytest.mark.parametrize("epochs", [2.5, 3.0, np.float64(3.0), True, "3"])
    def test_non_integer_epochs_rejected(self, epochs):
        # 2.5 would otherwise pass and fail later inside train's np.empty.
        message = f"epochs must be an integer, got {re.escape(repr(epochs))}"
        with pytest.raises(ValueError, match=message):
            TrainConfig(epochs=epochs)
        assert TrainConfig(epochs=np.int64(3)).epochs == 3


class TestCompareConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"eta": math.nan}, "learning rate must be finite"),
            ({"eta": -1.0}, "learning rate must be finite"),
            ({"epochs": 0}, "epochs must be >= 1"),
            ({"optimizer": "adagrad"}, "optimizer must be one of"),
            ({"seeds": ()}, "seeds must not be empty"),
            # compare_all could only misreport these: a false failure note, a
            # failed KNN row although k=3 is valid, a "mean" over one model.
            ({"knn_ks": ()}, r"knn_ks must be one or more k >= 1, got \[\]"),
            ({"knn_ks": (-1, 3)}, r"knn_ks must be one or more k >= 1, got \[-1, 3\]"),
            ({"seeds": (1, 1)}, r"seeds must be distinct, got \[1, 1\]"),
            # Non-integers would fail late: a KNN row lost to k=2.5 although k=3
            # is valid, numpy's raw SeedSequence error, a budget of 64.7 shots.
            ({"knn_ks": (2.5, 3)}, "each k in knn_ks must be an integer, got 2.5"),
            ({"knn_ks": (True,)}, "each k in knn_ks must be an integer, got True"),
            ({"knn_ks": ("3",)}, "each k in knn_ks must be an integer, got '3'"),
            ({"seeds": (1.5,)}, "seed must be an integer, got 1.5"),
            ({"shots": 64.7}, "shots must be an integer, got 64.7"),
            ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
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
        CompareConfig(shots=shots)
    assert CompareConfig(shots=2**63 - 1).shots == 2**63 - 1


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
            before = model.params.copy()
            train(model, X, Z, TrainConfig(epochs=3, eta=0.01, optimizer=optimizer))
            assert not np.array_equal(model.params, before)

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

    @pytest.mark.parametrize("make_model", [init_hybrid_model, baseline_net])
    @pytest.mark.parametrize("width", [1, 3])
    def test_rejects_targets_of_another_width(self, make_model, width):
        # The hybrid's loss forward leaves the targets' shape to its head's pass.
        X, _ = small_problem(n=6)
        with pytest.raises(ValueError, match=rf"targets of shape \(6, 2\), got \(6, {width}\)"):
            train(make_model(0), X, np.zeros((6, width)), TrainConfig(epochs=1))

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("seeds", [(4,), (4, 5, 6)])
    def test_each_recorded_loss_is_the_models_mse_bit_for_bit(self, optimizer, seeds):
        # The loop takes its losses without mse_loss's checks; each must still
        # be mse_loss of the model as it stood before that epoch's step, and
        # the final loss that of the trained model.
        X, Z = small_problem(seed=7, n=9)
        features, epochs = pauli_features(encode_batch(X)), 5

        def trained(n_epochs):
            models = [init_hybrid_model(s) for s in seeds]
            reports = train_stack(models, X, Z, TrainConfig(optimizer, 0.05, n_epochs))
            return models, reports

        _, reports = trained(epochs)
        for epoch in (0, 1, epochs - 1, epochs):
            models = trained(epoch)[0] if epoch else [init_hybrid_model(s) for s in seeds]
            for model, report in zip(models, reports):
                U = q_forward_batch(model.qlayer, features)
                expected = mse_loss(classical.forward_batch(model.head, U), Z)
                loss = report.final_train_mse if epoch == epochs else report.loss_per_epoch[epoch]
                assert loss == expected, (epoch, loss, expected)

    @pytest.mark.parametrize("make_model", [init_hybrid_model, baseline_net])
    @pytest.mark.parametrize("seeds", [(1,), (1, 2, 3)])
    def test_a_run_builds_adam_state_once_and_sgd_none(self, monkeypatch, make_model, seeds):
        # The step is chosen once per run: an Adam run builds one state whatever
        # its epoch count or stack size, and an SGD run builds no moments at all.
        X, Z = small_problem(seed=8, n=7)
        built, steps = [], []

        def counted(calls, real):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(optim, "init_adam", counted(built, optim.init_adam))
        monkeypatch.setattr(optim, "sgd_step", counted(steps, optim.sgd_step))
        for optimizer, n_states, n_steps in (("adam", 1, 0), ("sgd", 0, 4)):
            built.clear(), steps.clear()
            models = [make_model(s) for s in seeds]
            results = train_stack(models, X, Z, TrainConfig(optimizer, 0.01, 4))
            assert not any(isinstance(r, Exception) for r in results)
            assert len(built) == n_states and len(steps) == n_steps


class TestCircuitCounts:
    """The circuit work per epoch and per fix that the benchmark's traced runs pin."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("epochs", [1, 4])
    def test_each_epoch_runs_two_forwards_and_one_gradient(self, monkeypatch, optimizer, epochs):
        # One forward for the loss and one inside the gradient pass, each
        # epoch, and one for the final loss. The benchmark's tracer counts a
        # Jacobian as the 2 * 6 shifted circuits the shift rule runs on
        # hardware: 1 + 1 + 12 make its 14 sweeps per epoch.
        import hqloc.train_eval as train_eval

        def layer_shapes(name):
            real, shapes = getattr(train_eval, name), []

            def counted(layer, *args):
                shapes.append(layer.phi.shape)
                return real(layer, *args)

            monkeypatch.setattr(train_eval, name, counted)
            return shapes

        forwards, gradients = layer_shapes("q_forward_batch"), layer_shapes("q_gradient_batch")
        X, Z = small_problem(seed=2, n=7)
        train(init_hybrid_model(2), X, Z, TrainConfig(optimizer=optimizer, epochs=epochs))
        assert forwards == [(6,)] * (2 * epochs + 1)
        assert gradients == [(6,)] * epochs

    @staticmethod
    def count_builds(monkeypatch):
        """Angle vectors of each compile of phi the quantum layer makes, from an empty cache."""
        import hqloc.qlayer as qlayer

        real, builds = qlayer._compile, []

        def counted(phi):
            builds.append(len(np.atleast_2d(phi)))
            return real(phi)

        monkeypatch.setattr(qlayer, "_compile", counted)
        monkeypatch.setattr(qlayer, "_last_compile", None)
        return builds

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("epochs", [1, 4])
    def test_an_epoch_builds_phi_once_and_builds_no_shifted_angle(
        self, monkeypatch, optimizer, epochs
    ):
        # The loss forward compiles phi, and the gradient's forward and the
        # Jacobian reuse it; the final loss compiles the trained phi's: E + 1
        # compiles, none of a shifted angle.
        builds = self.count_builds(monkeypatch)
        X, Z = small_problem(seed=2, n=7)
        train(init_hybrid_model(2), X, Z, TrainConfig(optimizer=optimizer, epochs=epochs))
        assert builds == [1] * epochs + [1]

    def test_fixes_on_one_model_build_its_ansatz_once(self, monkeypatch):
        # One compile of phi serves every fix and the batch after them.
        builds = self.count_builds(monkeypatch)
        model = init_hybrid_model(3)
        X, _ = small_problem(seed=3, n=5)
        for x in X:
            hqnn_forward(model, x)
            assert builds == [1]
        hqnn_forward_batch(model, X)
        assert builds == [1]

    def test_a_training_run_computes_its_rows_features_once(self, monkeypatch):
        # The run computes its rows' features once, from its n rows, and
        # passes that one array to every forward and Jacobian, solo or stacked.
        import hqloc.train_eval as train_eval

        real, featurized, seen = train_eval.pauli_features, [], []

        def counted(rows):
            featurized.append(len(rows))
            return real(rows)

        def recorded(kernel):
            def call(layer, features):
                seen.append(features)
                return kernel(layer, features)

            return call

        monkeypatch.setattr(train_eval, "pauli_features", counted)
        for name in ("q_forward_batch", "q_gradient_batch"):
            monkeypatch.setattr(train_eval, name, recorded(getattr(train_eval, name)))
        X, Z = small_problem(seed=2, n=7)
        for seeds in ((2,), (2, 3, 4)):
            del featurized[:], seen[:]
            train_stack([init_hybrid_model(s) for s in seeds], X, Z, TrainConfig(epochs=4))
            assert featurized == [7]
            assert len(seen) == 3 * 4 + 1 and all(f is seen[0] for f in seen)
            assert seen[0].shape == (7, 20)

    def test_a_fix_encodes_its_features_once(self, monkeypatch):
        import hqloc.qlayer as qlayer

        real_state, states = qlayer.feature_state, []

        def counted(x):
            states.append(1)
            return real_state(x)

        monkeypatch.setattr(qlayer, "feature_state", counted)
        model = init_hybrid_model(3)
        X, _ = small_problem(seed=3, n=5)
        for n_fixes, x in enumerate(X, start=1):
            hqnn_forward(model, x)
            assert len(states) == n_fixes


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

    def test_a_table_gives_the_records_of_its_samples(self):
        meta, train_s, test_s = gen_scenario_standin("Sc-3", "Bluetooth", seed=2)
        config = CompareConfig(seeds=(1, 2), epochs=2, shots=64)
        tables = [np.asarray(samples, dtype=float) for samples in (train_s, test_s)]
        assert compare_all(meta, *tables, config) == compare_all(meta, train_s, test_s, config)

    def test_digest_tracks_config_and_meta(self):
        meta = scenario_meta("Sc-1", "WiFi")
        a = config_digest(meta, CompareConfig())
        b = config_digest(meta, CompareConfig(epochs=301))
        c = config_digest(scenario_meta("Sc-1", "Bluetooth"), CompareConfig())
        assert a != b and a != c
        assert a == config_digest(scenario_meta("Sc-1", "WiFi"), CompareConfig())

    def test_digest_takes_numpy_integer_settings_as_ints(self):
        meta = scenario_meta("Sc-1", "WiFi")
        as_numpy = CompareConfig(seeds=tuple(np.arange(1, 4)), epochs=np.int64(300),
                                 shots=np.int32(4096), knn_ks=(np.int64(1), 3, 5))
        assert config_digest(meta, as_numpy) == config_digest(meta, CompareConfig())

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
        # The exact and sampled rows share one training per seed, also when it
        # fails: seed 2 starts from a NaN angle and leaves its stack with the
        # error of its solo run, while seed 1 trains as it does alone.
        import hqloc.train_eval as train_eval

        real_init = train_eval.init_hybrid_model

        def init_with_nan_angle(seed):
            model = real_init(seed)
            if seed == 2:
                model.qlayer.phi[0] = np.nan
            return model

        meta, train_s, test_s = gen_scenario_standin("Sc-2", "WiFi", seed=0)
        config = CompareConfig(seeds=(1, 2), epochs=2, shots=32, knn_ks=(1,))
        alone = compare_all(meta, train_s, test_s, dataclasses.replace(config, seeds=(1,)))
        monkeypatch.setattr(train_eval, "init_hybrid_model", init_with_nan_angle)
        records = compare_all(meta, train_s, test_s, config)

        X, Z = transform_samples(fit_scaler(train_s), train_s)
        with pytest.raises(RuntimeError) as solo:
            train(init_with_nan_angle(2), X, Z, TrainConfig(epochs=2, seed=2))
        assert "non-finite training loss at epoch 0" in str(solo.value)
        for method in ("classical_nn", "hqnn_exact", "hqnn_shots"):
            rows = {r["seed"]: r for r in records if r["method"] == method}
            (seed_1_alone,) = [r for r in alone if r["method"] == method]
            assert (rows[1]["rmse_m"], rows[1]["note"]) == (
                seed_1_alone["rmse_m"], seed_1_alone["note"]
            )
            if method == "classical_nn":
                continue
            assert rows[2]["rmse_m"] is None
            assert rows[2]["note"] == f"failed: {solo.value}"
            assert rows["mean"]["rmse_m"] == rows[1]["rmse_m"]

    @pytest.mark.parametrize("ks, skipped", [
        ((1, 100), "skipped k=100 (exceeds the 16 training rows)"),
        ((1, 50, 3, 100), "skipped k=50, k=100 (exceed the 16 training rows)"),
    ])
    def test_knn_note_names_skipped_ks(self, ks, skipped):
        meta, train_s, test_s = gen_scenario_standin("Sc-2", "WiFi", seed=0)

        def knn_row(knn_ks):
            config = CompareConfig(seeds=(1,), epochs=1, shots=32, knn_ks=knn_ks)
            (row,) = [r for r in compare_all(meta, train_s, test_s, config) if r["method"] == "knn"]
            return row

        fitting = knn_row(tuple(k for k in ks if k <= 16))
        row = knn_row(ks)
        assert row["rmse_m"] == fitting["rmse_m"]
        assert row["note"] == f"{fitting['note']}; {skipped}"

    def test_failed_method_recorded_not_raised(self):
        # A k sweep larger than the training set leaves KNN without a result.
        meta, train_s, test_s = gen_scenario_standin("Sc-2", "WiFi", seed=0)
        config = CompareConfig(seeds=(1,), epochs=2, shots=32, knn_ks=(99,))
        records = compare_all(meta, train_s, test_s, config)
        knn_rows = [r for r in records if r["method"] == "knn"]
        assert len(knn_rows) == 1
        assert knn_rows[0]["rmse_m"] is None
        assert knn_rows[0]["note"] == "failed: every k in [99] exceeds the 16 training rows"


def solo_outcome(model, X, Z, config):
    """What ``train`` gives one model: (report, params) or the exception it raises."""
    try:
        return train(model, X, Z, config), model.params.copy()
    except (RuntimeError, ValueError) as exc:
        return exc, model.params.copy()


def assert_same_outcome(result, model, solo):
    expected, params = solo
    np.testing.assert_array_equal(model.params, params)
    if isinstance(expected, Exception):
        assert type(result) is type(expected) and str(result) == str(expected)
        return
    np.testing.assert_array_equal(result.loss_per_epoch, expected.loss_per_epoch)
    assert result.final_train_mse == expected.final_train_mse


class TestTrainStack:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["hybrid", "dense"]),
        optimizer=st.sampled_from(["adam", "sgd"]),
        eta=st.sampled_from([0.01, 1e8]),  # 1e8 makes some dense seeds diverge
        epochs=st.integers(1, 6),
        n=st.integers(1, 12),
        data=st.data(),
    )
    def test_each_model_trains_as_it_would_alone(self, kind, optimizer, eta, epochs, n, data):
        make = init_hybrid_model if kind == "hybrid" else baseline_net
        seeds = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True))
        X, Z = small_problem(seed=n, n=n)
        config = TrainConfig(optimizer=optimizer, eta=eta, epochs=epochs)
        solo = {s: solo_outcome(make(s), X, Z, config) for s in seeds}
        # Which seeds share the stack, and in which order, changes nothing.
        order = data.draw(st.permutations(seeds))
        models = [make(s) for s in order]
        results = train_stack(models, X, Z, config)
        for s, model, result in zip(order, models, results):
            assert_same_outcome(result, model, solo[s])

    def test_a_refused_gradient_fails_only_its_model(self, monkeypatch):
        # A finite loss with a non-finite gradient: Adam refuses it, that model
        # gets the solo run's error and parameters, and the others train as
        # they do alone. The poison follows model 2's own state, so it strikes
        # the same epoch in the stack and in a solo run.
        import hqloc.train_eval as train_eval

        mark = 123.0
        start_phi = init_hybrid_model(2).qlayer.phi.copy()
        real_ops = train_eval._model_ops

        def poisoned_ops(model, X, Z):
            train_mse, real_pass = real_ops(model, X, Z)

            def poisoned_pass(stack):
                losses, grads = real_pass(stack)
                # Model 2 once its phi has left its start value: from epoch 1 on.
                marked = stack.head.layers[0].weight[..., 0, 0] == mark
                moved = (stack.qlayer.phi != start_phi).any(axis=-1)
                grads[marked & moved] = np.nan
                return losses, grads

            return train_mse, poisoned_pass

        def make(seed):
            model = init_hybrid_model(seed)
            if seed == 2:
                # A dead hidden unit never gets a gradient, so its weight keeps the mark.
                model.head.layers[0].bias[0] = -1e3
                model.head.layers[0].weight[0, 0] = mark
            return model

        monkeypatch.setattr(train_eval, "_model_ops", poisoned_ops)
        X, Z = small_problem(seed=7, n=9)
        seeds = (1, 2, 3)
        config = TrainConfig(epochs=5, eta=0.05)
        solo = {s: solo_outcome(make(s), X, Z, config) for s in seeds}
        assert str(solo[2][0]) == "non-finite gradient entries"
        assert not np.array_equal(solo[2][1][:6], start_phi)  # it failed after a step
        models = [make(s) for s in seeds]
        results = train_stack(models, X, Z, config)
        for s, model, result in zip(seeds, models, results):
            assert_same_outcome(result, model, solo[s])

    @pytest.mark.parametrize("poison, steps", [("gradient", 3), ("loss", 2)])
    def test_a_failed_model_stops_the_stack(self, monkeypatch, poison, steps):
        # Model 2 fails at epoch 2. Every step up to there covers all three
        # models (a refused gradient is one more); then the stack is dropped
        # and each model trains alone, to the outcome of its solo run.
        X, Z = small_problem(seed=3, n=8)
        seeds = (1, 2, 3)
        config = TrainConfig(epochs=4, eta=0.01)
        # Model 2's params after two clean steps: the poison strikes the pass
        # that starts from them, in the stack or alone.
        two_steps = baseline_net(2)
        train(two_steps, X, Z, dataclasses.replace(config, epochs=2))
        real_pass, real_adam = classical.loss_and_grad, optim.adam_step
        step_shapes = []

        def failing_pass(net, V, Z, *buffers):
            loss, grad, input_grads = real_pass(net, V, Z, *buffers)
            rows = net.params.reshape(-1, net.params.shape[-1])
            struck = (rows == two_steps.params).all(axis=-1)
            if struck.any():
                if poison == "gradient":
                    grad.reshape(rows.shape)[struck, 0] = np.nan
                elif np.ndim(loss):
                    loss[struck] = np.nan
                else:
                    loss = math.nan
            return loss, grad, input_grads

        def recording_adam(state, params, grads):
            step_shapes.append(np.shape(params))
            return real_adam(state, params, grads)

        monkeypatch.setattr(classical, "loss_and_grad", failing_pass)
        monkeypatch.setattr(optim, "adam_step", recording_adam)
        solo = {s: solo_outcome(baseline_net(s), X, Z, config) for s in seeds}
        assert type(solo[2][0]) is (ValueError if poison == "gradient" else RuntimeError)
        step_shapes.clear()
        models = [baseline_net(s) for s in seeds]
        results = train_stack(models, X, Z, config)
        stacked = (3, models[0].params.size)
        assert step_shapes[:steps] == [stacked] * steps
        assert stacked not in step_shapes[steps:]
        for s, model, result in zip(seeds, models, results):
            assert_same_outcome(result, model, solo[s])

    def test_a_loss_that_fails_after_the_last_step_fails_only_its_model(self):
        # One SGD step at eta=1e30 leaves every loss huge, but only the model
        # that starts 1e5 times larger overflows to a non-finite final loss.
        X, Z = small_problem(seed=5, n=8)
        seeds = (1, 2, 3)
        config = TrainConfig(optimizer="sgd", eta=1e30, epochs=1)

        def make(seed):
            net = baseline_net(seed)
            if seed == 2:
                net.params *= 1e5
            return net

        solo = {s: solo_outcome(make(s), X, Z, config) for s in seeds}
        assert str(solo[2][0]).startswith("non-finite training loss at epoch 1;")
        models = [make(s) for s in seeds]
        results = train_stack(models, X, Z, config)
        assert [isinstance(r, RuntimeError) for r in results] == [False, True, False]
        for s, model, result in zip(seeds, models, results):
            assert_same_outcome(result, model, solo[s])

    def test_an_empty_or_mixed_stack_is_refused(self):
        X, Z = small_problem()
        with pytest.raises(ValueError, match="at least one model"):
            train_stack([], X, Z, TrainConfig())
        with pytest.raises(TypeError, match="models of one kind"):
            train_stack([init_hybrid_model(1), baseline_net(1)], X, Z, TrainConfig())
