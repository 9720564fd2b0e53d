"""Plain-text persistence for trained models, plus run manifests.

Parameter files are line oriented ("hqloc-params v1"): a kind line, an
activations line, then named array blocks. Floats are written with repr so a
save/load round trip is bit exact. Manifests are JSON with sorted keys; the
timestamp lives only here, never in CSV or parameter files, so those stay
byte identical across reruns.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import classical
from .circuits import N_ANSATZ_PARAMS, N_FEATURES
from .data import Scaler, not_utf8, unscalable_spans
from .qlayer import QuantumLayer
from .train_eval import HybridModel

FORMAT_HEADER = "hqloc-params v1"


def _format_array(name: str, arr: np.ndarray) -> list[str]:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"array {name!r} has unsupported ndim {arr.ndim}")
    lines = [" ".join(["array", name, *map(str, arr.shape)])]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(arr))
    return lines


def _model_arrays(model) -> tuple[str, list[str], list[tuple[str, np.ndarray]]]:
    if isinstance(model, HybridModel):
        kind = "hqnn"
        net = model.head
        arrays = [("phi", model.qlayer.phi)]
    elif isinstance(model, classical.DenseNet):
        kind = "dense"
        net = model
        arrays = []
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    activations = [layer.activation for layer in net.layers]
    for i, layer in enumerate(net.layers):
        arrays.append((f"layer{i}_weight", layer.weight))
        arrays.append((f"layer{i}_bias", layer.bias))
    return kind, activations, arrays


def save_model(path, model, scaler: Scaler | None = None) -> None:
    """Write a model (and optionally its feature scaler) to ``path``."""
    kind, activations, arrays = _model_arrays(model)
    lines = [FORMAT_HEADER, f"kind {kind}", "activations " + ",".join(activations)]
    if scaler is not None:
        lines.extend(_format_array("scaler_lo", scaler.lo))
        lines.extend(_format_array("scaler_hi", scaler.hi))
    for name, arr in arrays:
        lines.extend(_format_array(name, arr))
    Path(path).write_text("\n".join(lines) + "\n")


class ModelFormatError(ValueError):
    """Raised when a parameter file does not match the expected layout."""


def _parse_arrays(path, lines: list[str], start: int) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    i = start
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        if parts[0] != "array" or len(parts) not in (3, 4):
            raise ModelFormatError(
                f"{path}: line {i + 1}: expected an array block, got {lines[i]!r}"
            )
        name = parts[1]
        if name in arrays:
            raise ModelFormatError(f"{path}: line {i + 1}: duplicate array {name!r}")
        try:
            dims = [int(d) for d in parts[2:]]
        except ValueError:
            dims = [0]  # refused below with the other bad dimensions
        if min(dims) < 1:
            raise ModelFormatError(f"{path}: line {i + 1}: bad dimensions in {lines[i]!r}")
        *lead, row_len = dims
        n_rows = math.prod(lead)
        rows = []
        for r in range(n_rows):
            j = i + 1 + r
            if j >= len(lines):
                raise ModelFormatError(f"{path}: array {name!r} is truncated")
            try:
                row = [float(v) for v in lines[j].split()]
            except ValueError:
                raise ModelFormatError(f"{path}: line {j + 1}: non-numeric value") from None
            if len(row) != row_len:
                raise ModelFormatError(
                    f"{path}: line {j + 1}: expected {row_len} values, got {len(row)}"
                )
            rows.append(row)
        arrays[name] = np.asarray(rows, dtype=float).reshape(dims)
        i += 1 + n_rows
    return arrays


def load_model(path):
    """Read a parameter file; returns ``(model, scaler_or_None)``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise not_utf8(path, ModelFormatError) from None
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ModelFormatError(f"{path}: missing {FORMAT_HEADER!r} header")
    if len(lines) < 3 or not lines[1].startswith("kind "):
        raise ModelFormatError(f"{path}: missing kind line")
    kind = lines[1].removeprefix("kind ").strip()
    if kind not in ("hqnn", "dense"):
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    if not lines[2].startswith("activations "):
        raise ModelFormatError(f"{path}: missing activations line")
    activations = lines[2].removeprefix("activations ").strip().split(",")
    arrays = _parse_arrays(path, lines, 3)
    non_finite = sorted(name for name, arr in arrays.items() if not np.all(np.isfinite(arr)))
    if non_finite:
        raise ModelFormatError(f"{path}: non-finite values in {non_finite}")

    scaler = None
    if "scaler_lo" in arrays or "scaler_hi" in arrays:
        if not ("scaler_lo" in arrays and "scaler_hi" in arrays):
            raise ModelFormatError(f"{path}: scaler bounds must appear together")
        lo, hi = arrays.pop("scaler_lo"), arrays.pop("scaler_hi")
        if lo.shape != (N_FEATURES,) or hi.shape != (N_FEATURES,):
            raise ModelFormatError(
                f"{path}: scaler bounds have {lo.size} and {hi.size} entries, "
                f"the model takes {N_FEATURES} features"
            )
        if not np.all(hi > lo):
            raise ModelFormatError(
                f"{path}: scaler_hi must exceed scaler_lo, fails for feature(s) "
                f"{np.flatnonzero(~(hi > lo)).tolist()}"
            )
        wide = unscalable_spans(lo, hi)
        if wide:
            raise ModelFormatError(
                f"{path}: scaler_hi - scaler_lo overflows the float64 range for feature(s) {wide}"
            )
        scaler = Scaler(lo=lo, hi=hi)

    layers = []
    for i, activation in enumerate(activations):
        w_name, b_name = f"layer{i}_weight", f"layer{i}_bias"
        if w_name not in arrays or b_name not in arrays:
            raise ModelFormatError(f"{path}: missing arrays for layer {i}")
        layers.append((arrays.pop(w_name), arrays.pop(b_name), activation))
    try:  # an unknown activation, or layers that do not chain
        net = classical.DenseNet(layers=[classical.DenseLayer(*layer) for layer in layers])
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    if kind == "dense":
        if arrays:
            raise ModelFormatError(f"{path}: unexpected arrays {sorted(arrays)}")
        return net, scaler
    if "phi" not in arrays:
        raise ModelFormatError(f"{path}: hqnn file is missing the phi array")
    phi = arrays.pop("phi")
    if arrays:
        raise ModelFormatError(f"{path}: unexpected arrays {sorted(arrays)}")
    if phi.shape != (N_ANSATZ_PARAMS,):
        raise ModelFormatError(
            f"{path}: phi has {phi.size} angles, the ansatz takes {N_ANSATZ_PARAMS}"
        )
    if net.input_dim != N_FEATURES:
        raise ModelFormatError(f"{path}: head takes {net.input_dim} inputs, not {N_FEATURES}")
    return HybridModel(qlayer=QuantumLayer(phi=phi), head=net), scaler


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_csv_rows(path, rows) -> None:
    """Deterministic CSV writer (LF line endings regardless of platform)."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_loss_csv(path, trace, final_mse: float) -> None:
    """Loss trace rows are pre-update MSE; the last row is the post-training MSE."""
    rows = [["epoch", "train_mse"]]
    rows.extend([str(i), repr(float(v))] for i, v in enumerate(trace))
    rows.append([str(len(trace)), repr(float(final_mse))])
    write_csv_rows(path, rows)


def write_manifest(path, payload: dict) -> None:
    """JSON manifest with sorted keys; adds a UTC timestamp."""
    doc = dict(payload)
    doc["created_utc"] = datetime.now(timezone.utc).isoformat()
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
