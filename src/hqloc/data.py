"""RSSI fingerprint datasets: CSV ingestion, scaling, splits, synthetic generation.

Canonical CSV schema: five numeric columns ``rssi_a, rssi_b, rssi_c, x, y``
(RSSI in dBm, position in meters), comma-separated, optional single header
line, UTF-8, LF or CRLF. Other layouts are adapted through a small key-value
mapping file naming the source column (by header name or 0-based index) for
each canonical field.

The synthetic generator draws receiver positions uniformly inside the room
and computes per-transmitter RSSI from the log-distance path-loss model with
Gaussian shadowing: ``pl0 - 10*n_exp*log10(max(d, d0)/d0) + N(0, sigma^2)``
with a 1 m reference distance.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .statevector import check_integer

CANONICAL_FIELDS = ("rssi_a", "rssi_b", "rssi_c", "x", "y")
REFERENCE_DISTANCE_M = 1.0
# A survey grid keeps this far (m) off the walls, as in a physical survey.
GRID_MARGIN_M = 0.5

TECHNOLOGIES = ("WiFi", "Bluetooth", "Zigbee")

# Room size (m), published train/test split sizes, and the survey-grid shape
# whose product equals n_train, per scenario.
SCENARIOS = {
    "Sc-1": {"room": (6.0, 5.5), "n_train": 49, "n_test": 10, "grid": (7, 7)},
    "Sc-2": {"room": (5.8, 5.3), "n_train": 16, "n_test": 6, "grid": (4, 4)},
    "Sc-3": {"room": (10.8, 7.2), "n_train": 40, "n_test": 16, "grid": (8, 5)},
}

# Shadowing sigma (dB) for synthetic stand-ins, one per scenario, following
# the scenarios' interference levels: low, deliberately high, and average.
SYNTHETIC_SIGMA = {"Sc-1": 1.0, "Sc-2": 4.0, "Sc-3": 2.5}

# Per-technology radio profile (pl0 dBm at 1 m, path-loss exponent) used
# only by the synthetic generator defaults. All three run at 2.4 GHz, so the
# exponents sit close together.
SYNTHETIC_RADIO = {
    "WiFi": (-40.0, 2.5),
    "Bluetooth": (-45.0, 2.45),
    "Zigbee": (-43.0, 2.55),
}


class DataFormatError(ValueError):
    """Malformed dataset file or mapping config."""


@dataclass(frozen=True)
class RssiSample:
    """One fingerprint: RSSI triple in dBm plus the (x, y) position in meters."""

    rssi: tuple[float, float, float]
    position: tuple[float, float]


@dataclass(frozen=True)
class ScenarioMeta:
    name: str
    technology: str
    room: tuple[float, float]
    n_train: int
    n_test: int


def scenario_meta(name: str, technology: str) -> ScenarioMeta:
    """Meta record for one (scenario, technology) cell of the study grid."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    if technology not in TECHNOLOGIES:
        raise ValueError(f"unknown technology {technology!r}; expected one of {TECHNOLOGIES}")
    info = SCENARIOS[name]
    return ScenarioMeta(name, technology, info["room"], info["n_train"], info["n_test"])


def load_mapping(path) -> dict[str, int | str]:
    """Parse a ``field = source`` mapping file for non-canonical CSV layouts.

    A source that reads as an ASCII integer, ``-?[0-9]+``, is a 0-based column
    index; any other source is a header name. All five canonical fields must
    be present. A leading UTF-8 byte-order mark is dropped.
    """
    mapping: dict[str, int | str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: line {lineno}: expected 'field = source'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CANONICAL_FIELDS:
            raise DataFormatError(f"{path}: line {lineno}: unknown field {key!r}")
        if key in mapping:
            raise DataFormatError(f"{path}: line {lineno}: duplicate field {key!r}")
        mapping[key] = int(value) if re.fullmatch("-?[0-9]+", value) else value
    missing = [f for f in CANONICAL_FIELDS if f not in mapping]
    if missing:
        raise DataFormatError(f"{path}: missing fields {missing}")
    return mapping


def _resolve_columns(mapping, header, path) -> list[int]:
    columns = []
    for field in CANONICAL_FIELDS:
        source = mapping[field]
        if isinstance(source, int):
            if source < 0:
                raise DataFormatError(f"{path}: column index {source} for {field!r} is negative")
            columns.append(source)
        else:
            if header is None:
                raise DataFormatError(
                    f"{path}: mapping names column {source!r} but the file was "
                    "loaded without a header"
                )
            try:
                columns.append(header.index(source))
            except ValueError:
                raise DataFormatError(
                    f"{path}: column {source!r} for {field!r} not in header {header}"
                ) from None
    return columns


def not_utf8(path, error: type[ValueError] = DataFormatError) -> ValueError:
    """An ``error`` for ``path``, naming the line and value of its first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]  # count line breaks as the csv reader does
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return error(f"{path}: line {line}: byte 0x{raw[exc.start]:02x} is not valid UTF-8")
    return error(f"{path}: not valid UTF-8")  # the file changed since it failed


def _csv_rows(path):
    """(line, row) pairs of a UTF-8 CSV file; a row's line is where it starts in the file."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        line = 1
        try:
            for row in reader:
                yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            # The decoder reads ahead of the rows, so the bad byte is found in the raw file.
            raise not_utf8(path) from None


def load_csv(
    path,
    has_header: bool = False,
    mapping: dict[str, int | str] | None = None,
    aggregate_positions: bool = False,
) -> list[RssiSample]:
    """Parse an RSSI fingerprint CSV into samples, in file order.

    Without a mapping every row must have exactly the five canonical numeric
    fields. ``aggregate_positions`` averages the RSSI triples of rows sharing
    an identical (x, y), keeping first-seen position order. An empty file
    yields an empty list, and a leading UTF-8 byte-order mark is dropped.
    Malformed rows, bytes that are not UTF-8 and fields past the csv module's
    size limit raise :class:`DataFormatError` naming the line.
    """
    samples: list[RssiSample] = []
    header: list[str] | None = None
    columns: list[int] | None = None
    data_started = False
    for lineno, row in _csv_rows(path):
        if not row or all(not cell.strip() for cell in row):
            continue
        row = [cell.strip() for cell in row]
        if has_header and not data_started:
            header = row
            data_started = True
            continue
        data_started = True
        if columns is None:
            if mapping is not None:
                columns = _resolve_columns(mapping, header, path)
            else:
                columns = list(range(len(CANONICAL_FIELDS)))
        if mapping is None and len(row) != len(CANONICAL_FIELDS):
            raise DataFormatError(
                f"{path}: line {lineno}: expected {len(CANONICAL_FIELDS)} "
                f"fields, got {len(row)}"
            )
        if max(columns) >= len(row):
            raise DataFormatError(
                f"{path}: line {lineno}: row has {len(row)} fields, "
                f"mapping needs column {max(columns)}"
            )
        values = []
        for field, col in zip(CANONICAL_FIELDS, columns):
            try:
                value = float(row[col])
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: non-numeric value {row[col]!r} "
                    f"for field {field!r}"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: line {lineno}: non-finite value for field {field!r}"
                )
            values.append(value)
        samples.append(RssiSample(rssi=tuple(values[:3]), position=tuple(values[3:])))
    if aggregate_positions:
        samples = _aggregate_by_position(samples)
    return samples


def _aggregate_by_position(samples: list[RssiSample]) -> list[RssiSample]:
    groups: dict[tuple[float, float], list[tuple[float, float, float]]] = {}
    for s in samples:
        groups.setdefault(s.position, []).append(s.rssi)
    merged = []
    for position, triples in groups.items():
        mean = np.mean(np.asarray(triples, dtype=float), axis=0)
        merged.append(RssiSample(rssi=tuple(mean), position=position))
    return merged


def save_csv(samples, path, header: bool = True) -> None:
    """Write samples in the canonical schema; floats keep full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(CANONICAL_FIELDS)
        for s in samples:
            writer.writerow([repr(float(v)) for v in (*s.rssi, *s.position)])


def features_matrix(samples) -> np.ndarray:
    """RSSI triples as an (n, 3) matrix, (0, 3) for no samples."""
    return np.array([s.rssi for s in samples], dtype=float).reshape(len(samples), 3)


def targets_matrix(samples) -> np.ndarray:
    return np.array([s.position for s in samples], dtype=float)


@dataclass(frozen=True)
class Scaler:
    """Per-feature min-max map, fitted on the training split only."""

    lo: np.ndarray
    hi: np.ndarray


def fit_scaler(train_samples) -> Scaler:
    """Learn per-feature dBm ranges; rejects non-finite readings and constant columns."""
    feats = features_matrix(train_samples)
    if len(feats) == 0:
        raise ValueError("cannot fit a scaler on an empty training set")
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=0))
    if bad.size:
        raise ValueError(f"NaN or inf readings in feature column(s) {bad.tolist()}: cannot scale")
    lo = feats.min(axis=0)
    hi = feats.max(axis=0)
    flat = np.flatnonzero(hi <= lo)
    if flat.size:
        raise ValueError(f"constant feature column(s) {flat.tolist()}: cannot scale")
    return Scaler(lo, hi)


def transform(scaler: Scaler, rssi) -> np.ndarray:
    """Map finite RSSI triples (one, or one per row) into [0, 1]^3, clamping out-of-range values."""
    rssi = np.asarray(rssi, dtype=float)
    if rssi.shape[-1:] != scaler.lo.shape:
        raise ValueError(f"a scaler maps {scaler.lo.size} RSSI features, got shape {rssi.shape}")
    if not np.isfinite(rssi).all():
        raise ValueError("RSSI readings must be finite, got NaN or inf")
    scaled = (rssi - scaler.lo) / (scaler.hi - scaler.lo)
    # Clip in place with two ufuncs: np.clip's wrapper costs more than a fix's
    # arithmetic. Each bound goes first because np.maximum returns its second
    # operand of two equal zeros, so a -0.0 stays -0.0, as np.clip keeps it.
    np.maximum(0.0, scaled, out=scaled)
    return np.minimum(1.0, scaled, out=scaled)


def transform_samples(scaler: Scaler, samples) -> tuple[np.ndarray, np.ndarray]:
    """Scaled feature matrix plus target coordinates for a sample list."""
    return transform(scaler, features_matrix(samples)), targets_matrix(samples)


def default_tx_positions(room: tuple[float, float]) -> tuple[tuple[float, float], ...]:
    """Three transmitters 0.5 m inside a W x H room: (0.5, 0.5), (W - 0.5, 0.5), (W / 2, H - 0.5)."""
    w, h_ = room
    return ((0.5, 0.5), (w - 0.5, 0.5), (w / 2.0, h_ - 0.5))


def grid_positions(room: tuple[float, float], shape: tuple[int, int]) -> list[tuple[float, float]]:
    """Regular survey grid ``GRID_MARGIN_M`` off the walls, row-major from the origin."""
    w, h_ = room
    nx, ny = shape
    check_integer("grid shape", nx)
    check_integer("grid shape", ny)
    if nx < 1 or ny < 1:
        raise ValueError(f"grid shape must be positive, got {shape}")
    if not (math.isfinite(w) and math.isfinite(h_)):
        raise ValueError(f"room sides must be finite, got {room}")
    m = GRID_MARGIN_M
    if 2 * m >= min(w, h_):
        raise ValueError(f"margin {m} leaves no room in a {w}x{h_} room")
    xs = np.linspace(m, w - m, nx) if nx > 1 else np.array([w / 2.0])
    ys = np.linspace(m, h_ - m, ny) if ny > 1 else np.array([h_ / 2.0])
    return [(float(x), float(y)) for y in ys for x in xs]


def gen_synthetic(
    meta: ScenarioMeta,
    tx_positions=None,
    pl0: float = -40.0,
    n_exp: float = 2.5,
    sigma: float = 1.0,
    rng_seed=0,
    n_points: int | None = None,
    positions=None,
) -> list[RssiSample]:
    """Log-distance path-loss samples at given or seeded-uniform room positions.

    ``sigma`` is the shadowing standard deviation in dB; 0 gives noiseless
    data. Distances are floored at the 1 m reference distance. When
    ``positions`` is omitted, ``n_points`` positions (default: the scenario's
    train+test count) are drawn uniformly inside the room. A NaN or infinite
    parameter, room side or position raises ValueError.
    """
    w, h_ = meta.room
    for name, value in (
        ("pl0", pl0), ("n_exp", n_exp), ("sigma", sigma), ("room width", w), ("room height", h_)
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if tx_positions is None:
        tx_positions = default_tx_positions(meta.room)
    tx = np.asarray(tx_positions, dtype=float)
    if tx.shape != (3, 2):
        raise ValueError(f"expected 3 transmitter positions, got shape {tx.shape}")
    # Written so that a NaN coordinate fails too.
    if not ((tx >= 0).all() and (tx[:, 0] <= w).all() and (tx[:, 1] <= h_).all()):
        raise ValueError(f"transmitter positions must lie inside the {w}x{h_} room")
    rng = np.random.default_rng(rng_seed)
    if positions is None:
        n = meta.n_train + meta.n_test if n_points is None else n_points
        check_integer("n_points", n)
        if n < 1:
            raise ValueError(f"need at least one point, got {n}")
        positions = rng.uniform((0.0, 0.0), (w, h_), size=(n, 2))
    else:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got shape {positions.shape}")
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite, got NaN or inf")
    # One pass over all positions: row i is what a loop over positions makes
    # for position i, and one (n, 3) normal draw is the stream of n draws of 3.
    dists = np.maximum(np.linalg.norm(tx - positions[:, None], axis=-1), REFERENCE_DISTANCE_M)
    rssi = pl0 - 10.0 * n_exp * np.log10(dists / REFERENCE_DISTANCE_M)
    rssi = rssi + rng.normal(0.0, sigma, size=(len(positions), 3))
    return [RssiSample(rssi=tuple(r), position=tuple(pos)) for r, pos in zip(rssi, positions)]


def train_test_split(samples, n_train: int, n_test: int, seed: int = 0):
    """Seeded shuffle, then the first ``n_train`` / next ``n_test`` samples."""
    for name, count in (("n_train", n_train), ("n_test", n_test)):
        check_integer(name, count)
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if n_train + n_test > len(samples):
        raise ValueError(
            f"split {n_train}+{n_test} exceeds the {len(samples)} available samples"
        )
    order = np.random.default_rng(seed).permutation(len(samples))
    train = [samples[i] for i in order[:n_train]]
    test = [samples[i] for i in order[n_train : n_train + n_test]]
    return train, test


def gen_scenario_standin(name: str, technology: str, seed: int = 0, n_test: int | None = None):
    """Self-contained stand-in for one public dataset cell.

    Returns (meta, train_samples, test_samples). Training samples sit on the
    scenario's survey grid, test samples at uniform random positions, both
    with the scenario's interference level and the technology's radio
    profile. Each (scenario, technology, seed) cell gets its own decorrelated
    noise stream. ``n_test`` overrides the published test-set size when a
    lower-variance RMSE estimate is wanted.
    """
    meta = scenario_meta(name, technology)
    pl0, n_exp = SYNTHETIC_RADIO[technology]
    sigma = SYNTHETIC_SIGMA[name]
    cell = (seed, list(SCENARIOS).index(name), TECHNOLOGIES.index(technology))
    anchors = grid_positions(meta.room, SCENARIOS[name]["grid"])
    train = gen_synthetic(
        meta, pl0=pl0, n_exp=n_exp, sigma=sigma, rng_seed=[*cell, 0], positions=anchors
    )
    test = gen_synthetic(
        meta, pl0=pl0, n_exp=n_exp, sigma=sigma, rng_seed=[*cell, 1],
        n_points=meta.n_test if n_test is None else n_test,
    )
    return meta, train, test
