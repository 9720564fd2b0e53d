"""Persistence tests: parameter file round trips, loss CSV, manifests."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqloc.classical import (
    ACTIVATIONS,
    DenseLayer,
    DenseNet,
    baseline_net,
    forward_batch,
    glorot_net,
)
from hqloc.data import Scaler, unscalable_spans
from hqloc.model_io import (
    FORMAT_HEADER,
    ModelFormatError,
    file_digest,
    load_model,
    save_model,
    write_csv_rows,
    write_loss_csv,
    write_manifest,
)
from hqloc.qlayer import QuantumLayer
from hqloc.train_eval import HybridModel, hqnn_forward, init_hybrid_model

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def dense_nets(draw, input_dim=None):
    n_layers = draw(st.integers(1, 3))
    sizes = [input_dim or draw(st.integers(1, 5))]
    sizes += [draw(st.integers(1, 5)) for _ in range(n_layers)]
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        activation = "linear" if i == n_layers - 1 else draw(st.sampled_from(ACTIVATIONS))
        weight = draw(arrays(float, (fan_out, fan_in), elements=finite))
        bias = draw(arrays(float, (fan_out,), elements=finite))
        layers.append(DenseLayer(weight, bias, activation))
    return DenseNet(layers)


@st.composite
def models(draw):
    if draw(st.booleans()):
        phi = draw(arrays(float, (6,), elements=finite))
        return HybridModel(qlayer=QuantumLayer(phi=phi), head=draw(dense_nets(input_dim=3)))
    return draw(dense_nets())


@st.composite
def scalers(draw):
    a, b = (draw(arrays(float, (3,), elements=finite)) for _ in range(2))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assume(np.all(a != b) and not unscalable_spans(lo, hi))
    return Scaler(lo=lo, hi=hi)


def stored_arrays(model):
    """Shape and raw bytes (-0.0 differs from 0.0) of each stored array, and the activations."""
    net = model.head if isinstance(model, HybridModel) else model
    out = [model.qlayer.phi] if isinstance(model, HybridModel) else []
    for layer in net.layers:
        out += [layer.weight, layer.bias]
    return [(a.shape, a.tobytes()) for a in out], [layer.activation for layer in net.layers]


class TestModelRoundTrip:
    def test_hybrid_model_bit_exact(self, tmp_path):
        model = init_hybrid_model(seed=3)
        path = tmp_path / "model.params"
        save_model(path, model)
        loaded, scaler = load_model(path)
        assert scaler is None
        assert isinstance(loaded, HybridModel)
        np.testing.assert_array_equal(loaded.params, model.params)
        x = np.array([0.25, 0.5, 0.75])
        np.testing.assert_array_equal(hqnn_forward(loaded, x), hqnn_forward(model, x))

    def test_dense_model_bit_exact(self, tmp_path):
        net = baseline_net(4)
        path = tmp_path / "net.params"
        save_model(path, net)
        loaded, scaler = load_model(path)
        assert scaler is None
        np.testing.assert_array_equal(loaded.params, net.params)
        assert [l.activation for l in loaded.layers] == ["relu", "relu", "linear"]
        X = np.array([[0.1, 0.2, 0.3]])
        np.testing.assert_array_equal(forward_batch(loaded, X), forward_batch(net, X))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(models(), st.none() | scalers())
    def test_random_models_round_trip_bit_for_bit(self, tmp_path, model, scaler):
        path = tmp_path / "model.params"
        save_model(path, model, scaler)
        loaded, loaded_scaler = load_model(path)
        assert type(loaded) is type(model)
        assert stored_arrays(loaded) == stored_arrays(model)
        if scaler is None:
            assert loaded_scaler is None
        else:
            assert loaded_scaler.lo.tobytes() == scaler.lo.tobytes()
            assert loaded_scaler.hi.tobytes() == scaler.hi.tobytes()

    def test_scaler_travels_with_model(self, tmp_path):
        model = init_hybrid_model(seed=5)
        scaler = Scaler(lo=np.array([-90.0, -88.5, -91.25]), hi=np.array([-40.0, -42.0, -38.75]))
        path = tmp_path / "model.params"
        save_model(path, model, scaler=scaler)
        _, back = load_model(path)
        np.testing.assert_array_equal(back.lo, scaler.lo)
        np.testing.assert_array_equal(back.hi, scaler.hi)

    def test_save_is_deterministic(self, tmp_path):
        model = init_hybrid_model(seed=6)
        a, b = tmp_path / "a.params", tmp_path / "b.params"
        save_model(a, model)
        save_model(b, model)
        assert file_digest(a) == file_digest(b)

    def test_file_is_line_oriented_text(self, tmp_path):
        model = init_hybrid_model(seed=0)
        path = tmp_path / "model.params"
        save_model(path, model)
        lines = path.read_text().splitlines()
        assert lines[0] == FORMAT_HEADER
        assert lines[1] == "kind hqnn"
        assert lines[2] == "activations relu,linear"
        assert lines[3] == "array phi 6"

    def test_rejects_unknown_model_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "x.params", object())


class TestFormatErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.params"
        path.write_text(text)
        return path

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "something else\n")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_unknown_kind(self, tmp_path):
        path = self.write(tmp_path, f"{FORMAT_HEADER}\nkind cnn\nactivations linear\n")
        with pytest.raises(ModelFormatError, match="kind"):
            load_model(path)

    def test_an_empty_kind_or_activations_line_names_the_file(self, tmp_path):
        path = self.write(tmp_path, f"{FORMAT_HEADER}\nkind \nactivations linear\n")
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: unknown model kind ''")):
            load_model(path)
        path = self.write(tmp_path, f"{FORMAT_HEADER}\nkind dense\nactivations \n"
                          "array layer0_weight 1 1\n1.0\narray layer0_bias 1\n0.0\n")
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: unknown activation ''")):
            load_model(path)

    def test_truncated_array(self, tmp_path):
        path = self.write(
            tmp_path,
            f"{FORMAT_HEADER}\nkind dense\nactivations linear\narray layer0_weight 2 2\n1.0 2.0\n",
        )
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_wrong_row_length(self, tmp_path):
        path = self.write(
            tmp_path,
            f"{FORMAT_HEADER}\nkind dense\nactivations linear\n"
            "array layer0_weight 1 2\n1.0 2.0 3.0\n"
            "array layer0_bias 1\n0.0\n",
        )
        with pytest.raises(ModelFormatError, match="expected 2 values"):
            load_model(path)

    def test_non_numeric_value(self, tmp_path):
        path = self.write(
            tmp_path,
            f"{FORMAT_HEADER}\nkind dense\nactivations linear\n"
            "array layer0_weight 1 1\nfoo\n",
        )
        with pytest.raises(ModelFormatError, match="non-numeric"):
            load_model(path)

    def test_duplicate_array(self, tmp_path):
        path = self.write(
            tmp_path,
            f"{FORMAT_HEADER}\nkind dense\nactivations linear\n"
            "array layer0_bias 1\n0.0\narray layer0_bias 1\n0.0\n",
        )
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_model(path)

    @pytest.mark.parametrize("body, message", [
        ("array layer0_bias 1\n0.0\narray layer0_bias 1\n0.0\n",
         "line 6: duplicate array 'layer0_bias'"),
        ("weights 1 1\n1.0\n", "line 4: expected an array block, got 'weights 1 1'"),
        ("array layer0_weight 0 1\n", "line 4: bad dimensions in 'array layer0_weight 0 1'"),
        ("array layer0_weight 2 1\n1.0\n", "array 'layer0_weight' is truncated"),
        ("array layer0_weight 1 1\nfoo\n", "line 5: non-numeric value"),
        ("array layer0_weight 1 2\n1.0\n", "line 5: expected 2 values, got 1"),
    ])
    def test_an_array_block_error_names_the_file(self, tmp_path, body, message):
        path = self.write(tmp_path, f"{FORMAT_HEADER}\nkind dense\nactivations linear\n{body}")
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_a_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_bytes(f"{FORMAT_HEADER}\nkind dense\nactivations linear\n".encode()
                         + b"array layer0_weight 1 1\n\xff\n")
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: line 5: byte 0xff")):
            load_model(path)

    def test_missing_layer_arrays(self, tmp_path):
        path = self.write(
            tmp_path,
            f"{FORMAT_HEADER}\nkind dense\nactivations relu,linear\n"
            "array layer0_weight 1 1\n1.0\narray layer0_bias 1\n0.0\n",
        )
        with pytest.raises(ModelFormatError, match="layer 1"):
            load_model(path)

    @pytest.mark.parametrize("activations, body, message", [
        ("tanh", "array layer0_weight 1 1\n1.0\narray layer0_bias 1\n0.0\n",
         "unknown activation 'tanh'"),
        ("relu", "array layer0_weight 1 1\n1.0\narray layer0_bias 1\n0.0\n",
         "output layer must be linear"),
        ("relu,linear", "array layer0_weight 2 1\n1.0\n1.0\narray layer0_bias 2\n0.0 0.0\n"
         "array layer1_weight 1 3\n1.0 1.0 1.0\narray layer1_bias 1\n0.0\n",
         "adjacent layer dimensions do not chain"),
    ], ids=["unknown_activation", "relu_output", "unchained"])
    def test_a_net_that_cannot_be_built_names_the_file(self, tmp_path, activations, body,
                                                        message):
        path = self.write(tmp_path, f"{FORMAT_HEADER}\nkind dense\nactivations {activations}\n"
                          + body)
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_hqnn_requires_phi(self, tmp_path):
        path = self.write(
            tmp_path,
            f"{FORMAT_HEADER}\nkind hqnn\nactivations linear\n"
            "array layer0_weight 1 1\n1.0\narray layer0_bias 1\n0.0\n",
        )
        with pytest.raises(ModelFormatError, match="phi"):
            load_model(path)

    def test_unexpected_extra_array(self, tmp_path):
        path = self.write(
            tmp_path,
            f"{FORMAT_HEADER}\nkind dense\nactivations linear\n"
            "array layer0_weight 1 1\n1.0\narray layer0_bias 1\n0.0\n"
            "array mystery 1\n7.0\n",
        )
        with pytest.raises(ModelFormatError, match="unexpected"):
            load_model(path)

    def test_lone_scaler_bound_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            f"{FORMAT_HEADER}\nkind dense\nactivations linear\n"
            "array scaler_lo 3\n-90.0 -90.0 -90.0\n"
            "array layer0_weight 1 1\n1.0\narray layer0_bias 1\n0.0\n",
        )
        with pytest.raises(ModelFormatError, match="together"):
            load_model(path)

    @pytest.mark.parametrize("kind, body, line", [
        ("dense", ["array layer0_weight 2 3", "0.1 0.2 0.3", "0.4 0.5 0.6",
                   "array layer0_bias -2 1", "0.0", "0.0"], 7),
        ("hqnn", ["array phi -6", "0.1 0.2 0.3 0.4 0.5 0.6"], 4),
        ("dense", ["array layer0_weight 0 3", "array layer0_bias 1", "0.0"], 4),
    ])
    def test_dimensions_below_one_rejected(self, tmp_path, kind, body, line):
        # The header names the bad dimensions; the parser neither walks back
        # over good lines nor builds an empty array.
        text = "\n".join([FORMAT_HEADER, f"kind {kind}", "activations linear", *body])
        path = self.write(tmp_path, text + "\n")
        message = f"line {line}: bad dimensions in {body[line - 4]!r}"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)


class TestHybridModelChecks:
    """A saved hybrid model that the quantum layer cannot run fails at load."""

    def load_edited(self, tmp_path, edit):
        model = init_hybrid_model(seed=1)
        edit(model)
        path = tmp_path / "model.params"
        save_model(path, model)
        with pytest.raises(ModelFormatError, match=re.escape(str(path))) as err:
            load_model(path)
        return str(err.value)

    @pytest.mark.parametrize("n_angles", [5, 7])
    def test_wrong_angle_count(self, tmp_path, n_angles):
        def edit(model):
            model.qlayer.phi = np.linspace(-1.0, 1.0, n_angles)

        assert f"{n_angles} angles" in self.load_edited(tmp_path, edit)

    def test_head_width_must_match_feature_count(self, tmp_path):
        def edit(model):
            model.head = glorot_net((4, 32, 2), 0)

        assert "4 inputs" in self.load_edited(tmp_path, edit)

    def test_non_finite_angle(self, tmp_path):
        def edit(model):
            model.qlayer.phi[2] = np.nan

        assert "phi" in self.load_edited(tmp_path, edit)

    def test_non_finite_head_weight(self, tmp_path):
        def edit(model):
            model.head.layers[1].weight[0, 0] = np.inf

        assert "layer1_weight" in self.load_edited(tmp_path, edit)


class TestScalerChecks:
    """A stored scaler that cannot map three readings into [0, 1] fails at load."""

    def load_with_scaler(self, tmp_path, lo, hi):
        path = tmp_path / "model.params"
        save_model(path, init_hybrid_model(seed=1), scaler=Scaler(np.array(lo), np.array(hi)))
        with pytest.raises(ModelFormatError, match=re.escape(str(path))) as err:
            load_model(path)
        return str(err.value)

    def test_empty_range_rejected(self, tmp_path):
        # hi == lo on the third anchor would turn its feature into NaN.
        message = self.load_with_scaler(
            tmp_path, [-90.0, -90.0, -60.0], [-40.0, -40.0, -60.0]
        )
        assert "feature(s) [2]" in message

    def test_a_span_beyond_float64_is_rejected(self, tmp_path):
        # Finite bounds whose difference is inf would scale every reading to 0 or NaN.
        message = self.load_with_scaler(
            tmp_path, [-90.0, -1e308, -90.0], [-40.0, 1e308, -40.0]
        )
        assert message.endswith("overflows the float64 range for feature(s) [1]")

    def test_two_entry_scaler_rejected(self, tmp_path):
        message = self.load_with_scaler(tmp_path, [-90.0, -90.0], [-40.0, -40.0])
        assert "2 and 2 entries" in message


class TestLossCsv:
    def test_rows_and_final_entry(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [4.0, 2.0, 1.0], final_mse=0.5)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_mse"
        assert lines[1] == "0,4.0"
        assert lines[3] == "2,1.0"
        # The trace holds pre-update losses; the extra final row is the
        # post-training loss at epoch == len(trace).
        assert lines[4] == "3,0.5"
        assert len(lines) == 5

    def test_full_precision_round_trip(self, tmp_path):
        path = tmp_path / "loss.csv"
        trace = [1.0 / 3.0, 2.0 / 7.0]
        write_loss_csv(path, trace, final_mse=1.0 / 9.0)
        lines = path.read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        assert values == trace + [1.0 / 9.0]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [1.0], final_mse=1.0)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestCsvRows:
    def test_writes_exactly_given_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_rows(path, [["a", "b"], ["1", "2"]])
        assert path.read_text() == "a,b\n1,2\n"

    def test_reruns_are_byte_identical(self, tmp_path):
        rows = [["x"], ["0.1"], ["0.2"]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv_rows(a, rows)
        write_csv_rows(b, rows)
        assert a.read_bytes() == b.read_bytes()


class TestManifest:
    def test_payload_survives_and_timestamp_added(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"command": "train", "seed": 3})
        doc = json.loads(path.read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 3
        assert "created_utc" in doc

    def test_keys_are_sorted(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"zeta": 1, "alpha": 2})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"created_utc"') < text.index('"zeta"')

    def test_payload_dict_not_mutated(self, tmp_path):
        payload = {"a": 1}
        write_manifest(tmp_path / "m.json", payload)
        assert payload == {"a": 1}
