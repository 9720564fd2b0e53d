"""RSSI fingerprint datasets: CSV ingestion, scaling, synthetic generation.

A fingerprint is one row of an (n, 5) float table in ``CANONICAL_FIELDS``
order: three RSSI readings, then the (x, y) position. :class:`RssiSample`
is such a row as an immutable tuple that also reads its ``rssi`` and
``position``, so a list of samples is the same table:
:func:`fit_scaler`, :func:`transform_samples` and :func:`save_csv` take
either, and so does ``train_eval.compare_all`` through them.

Canonical CSV schema: five numeric columns ``rssi_a, rssi_b, rssi_c, x, y``
(RSSI in dBm, position in meters), comma-separated, optional single header
line, UTF-8, LF or CRLF. Other layouts are adapted through a small key-value
mapping file naming the source column (by header name or 0-based index) for
each canonical field.

:func:`load_table` is the one CSV parser. numpy's C reader parses a
well-formed file, mapped or not, in one call; any other file takes a single
checked pass over its rows, which is the only code that names a fault.

The synthetic generator draws receiver positions uniformly inside the room
and computes per-transmitter RSSI from the log-distance path-loss model with
Gaussian shadowing: ``pl0 - 10*n_exp*log10(max(d, d0)/d0) + N(0, sigma^2)``
with a 1 m reference distance.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import re
import warnings
from array import array
from dataclasses import dataclass
from operator import itemgetter

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


class RssiSample(tuple):
    """One fingerprint as a table row: the RSSI triple in dBm, then the (x, y) position in meters.

    It builds as ``RssiSample(rssi, position)`` and reads both back as plain
    float tuples; ``np.asarray(samples, float)`` is the samples' (n, 5) table.
    """

    __slots__ = ()
    rssi = property(itemgetter(slice(3)))
    position = property(itemgetter(slice(3, None)))

    def __new__(cls, rssi, position):
        if (len(rssi), len(position)) != (3, 2):
            raise ValueError("a sample is 3 RSSI readings and an (x, y) position, "
                             f"got {tuple(rssi)} and {tuple(position)}")
        return super().__new__(cls, map(float, (*rssi, *position)))

    def __getnewargs__(self):  # what copy and pickle rebuild a sample from
        return self.rssi, self.position


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


@contextlib.contextmanager
def _csv_reader(path):
    """A csv reader over a UTF-8 file; its csv and decoding errors become DataFormatErrors."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            # The decoder reads ahead of the rows, so the bad byte is found in the raw file.
            raise not_utf8(path) from None


def load_table(
    path,
    has_header: bool = False,
    mapping: dict[str, int | str] | None = None,
    aggregate_positions: bool = False,
) -> np.ndarray:
    """Parse an RSSI fingerprint CSV into an (n, 5) float table, in file order.

    Columns follow ``CANONICAL_FIELDS``. Without a mapping every row must have
    exactly the five canonical numeric fields. ``aggregate_positions`` averages
    the RSSI triples of rows sharing an identical (x, y), keeping first-seen
    position order. An empty file yields a (0, 5) table, and a leading UTF-8
    byte-order mark is dropped. Malformed rows, bytes that are not UTF-8 and
    fields past the csv module's size limit raise :class:`DataFormatError`
    naming the line; the first fault in file order, and in field order within
    its row, is the one reported. So does an aggregated position whose
    readings average beyond the float64 range, naming the position.

    The csv reader takes the header. numpy's C reader then parses a
    well-formed file, mapped or not, in one call. A file it refuses, warns on
    or reads a non-finite value from, a mapping the header does not resolve,
    or a file that may hold a field past the size limit goes on through the
    checked row loop instead, from the row after the header, so the values
    and the first fault named are the loop's.
    """
    with _csv_reader(path) as reader:
        header = None
        if has_header:  # the first non-blank row
            header = next(([cell.strip() for cell in row] for row in reader
                           if any(map(str.strip, row))), None)
        table = _loadtxt_table(path, reader.line_num, header, mapping)
        if table is None:
            table = _checked_values(path, reader, header, mapping)
    return _aggregate_by_position(table, path) if aggregate_positions else table


def _loadtxt_table(path, skip: int, header, mapping) -> np.ndarray | None:
    """The table of a well-formed file past its first ``skip`` lines, from ``np.loadtxt``.

    None sends the file to the row loop. The csv reader counted the ``skip``
    lines the header spans, a quoted line break included, as ``skiprows``
    counts them. loadtxt has no field size limit, so a file larger than the
    csv module's is taken only if it holds no quote (each field then lies
    within a line) and no line past the limit.
    """
    limit = csv.field_size_limit()
    try:
        columns = None if mapping is None else _resolve_columns(mapping, header, path)
        if os.path.getsize(path) > limit:
            with open(path, "rb") as fh:
                longest = max(map(len, fh))
                fh.seek(0)
                if longest > limit or b'"' in fh.read():
                    return None
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt only warns on a file with no rows
            # comments=None: numpy's default "#" would cut a row such as "1,2,3,4,5#x" short.
            table = np.loadtxt(path, delimiter=",", comments=None, quotechar='"', ndmin=2,
                               encoding="utf-8-sig", skiprows=skip, usecols=columns)
    except (OSError, ValueError, UserWarning):  # a DataFormatError, or a field loadtxt refuses
        return None
    finite = table.shape[1] == len(CANONICAL_FIELDS) and np.isfinite(table).all()
    return table if finite else None


def _checked_values(path, reader, header, mapping) -> np.ndarray:
    """Rows left in ``reader`` as :func:`load_table`'s table, checked; the first fault raises."""
    values = array("d")  # raw doubles: a quarter of what a list of Python floats holds
    columns = list(range(len(CANONICAL_FIELDS))) if mapping is None else None
    start = reader.line_num + 1
    for row in reader:
        lineno, start = start, reader.line_num + 1  # a row's line is where it starts
        if not any(map(str.strip, row)):
            continue
        row = [cell.strip() for cell in row]
        if columns is None:
            columns = _resolve_columns(mapping, header, path)
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
        fields = []
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
            fields.append(value)
        values.extend(fields)
    return np.frombuffer(values).reshape(-1, len(CANONICAL_FIELDS))


def _aggregate_by_position(table: np.ndarray, path) -> np.ndarray:
    """One row per distinct (x, y), first-seen order, holding its rows' mean RSSI.

    Each group's readings are summed in file order from 0.0, which is how
    ``np.mean`` sums them, and divided by its row count: the means of a
    per-group ``np.mean``, bit for bit, from a few calls for the whole
    table. Finite readings near the float64 limit can average to an infinite
    one; that raises :class:`DataFormatError` naming the file and the first
    such position.
    """
    groups: dict[tuple[float, float], int] = {}  # -0.0 and 0.0 are one key
    group = np.array([groups.setdefault((x, y), len(groups)) for x, y in table[:, 3:].tolist()],
                     dtype=np.intp)
    first = np.unique(group, return_index=True)[1]  # group ids count up in first-seen order
    later = np.ones(len(table), dtype=bool)
    later[first] = False
    sums = table[first, :3] + 0.0  # np.mean's sum starts at +0.0, so a -0.0 reading sums to 0.0
    with np.errstate(over="ignore"):  # an overflowing mean is refused below
        np.add.at(sums, group[later], table[later, :3])
        merged = np.column_stack((sums / np.bincount(group)[:, None], table[first, 3:]))
    finite = np.isfinite(merged[:, :3]).all(axis=1)
    if not finite.all():
        x, y = merged[finite.argmin(), 3:].tolist()
        raise DataFormatError(
            f"{path}: the RSSI readings at position ({x!r}, {y!r}) average beyond "
            "the float64 range"
        )
    return merged


def _table(samples) -> np.ndarray:
    """``samples``, an (n, 5) table or a list of samples, as an (n, 5) float table."""
    return np.asarray(samples, dtype=float).reshape(len(samples), len(CANONICAL_FIELDS))


def save_csv(samples, path, header: bool = True) -> None:
    """Write an (n, 5) table or samples in the canonical schema; floats keep full precision."""
    rows = _table(samples).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(CANONICAL_FIELDS)
        writer.writerows([repr(v) for v in row] for row in rows)


@dataclass(frozen=True)
class Scaler:
    """Per-feature min-max map, fitted on the training split only."""

    lo: np.ndarray
    hi: np.ndarray

    @functools.cached_property
    def _floor_and_span(self) -> tuple[np.ndarray, np.ndarray]:
        """``lo - span`` and ``span = hi - lo``: :func:`transform` clamps readings into [floor, hi].

        A reading below the floor scales to 0.0, as it would unclamped, and
        ``reading - lo`` cannot overflow for a clamped one. A floor past the
        float64 range is -inf, which clamps nothing: ``lo`` is then negative.
        Computed once per scaler, so a fix pays neither the two subtractions
        nor ``np.errstate``; ``lo`` and ``hi`` are not to be changed in place.
        """
        span = self.hi - self.lo
        with np.errstate(over="ignore"):
            return self.lo - span, span


def fit_scaler(train_samples) -> Scaler:
    """Learn per-feature dBm ranges from an (n, 5) table or samples.

    Rejects non-finite readings, constant columns and columns whose span
    ``hi - lo`` overflows the float64 range.
    """
    feats = _table(train_samples)[:, :3]
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
    wide = unscalable_spans(lo, hi)
    if wide:
        raise ValueError(f"feature column(s) {wide} span beyond the float64 range: cannot scale")
    return Scaler(lo, hi)


def unscalable_spans(lo, hi) -> list[int]:
    """The features whose span ``hi - lo`` overflows to inf; :func:`transform` divides by it."""
    with np.errstate(over="ignore"):
        return np.flatnonzero(np.isinf(np.subtract(hi, lo))).tolist()


def transform(scaler: Scaler, rssi) -> np.ndarray:
    """Map finite RSSI triples (one, or one per row) into [0, 1]^3, clamping out-of-range values."""
    rssi = np.asarray(rssi, dtype=float)
    if rssi.shape[-1:] != scaler.lo.shape:
        raise ValueError(f"a scaler maps {scaler.lo.size} RSSI features, got shape {rssi.shape}")
    if not np.isfinite(rssi).all():
        raise ValueError("RSSI readings must be finite, got NaN or inf")
    # Five ufuncs, each in place but the first: np.clip's wrapper costs more
    # than a fix's arithmetic. np.maximum returns its second operand of two
    # equal zeros, so a -0.0 reading at lo = 0.0 scales to -0.0, as np.clip
    # of the unclamped ratio keeps it.
    floor, span = scaler._floor_and_span
    scaled = np.maximum(floor, rssi)
    np.minimum(scaler.hi, scaled, out=scaled)
    scaled -= scaler.lo
    scaled /= span
    return np.maximum(0.0, scaled, out=scaled)


def transform_samples(scaler: Scaler, samples) -> tuple[np.ndarray, np.ndarray]:
    """Scaled features and target coordinates of an (n, 5) table or samples, each C-ordered.

    Training reads both every epoch, so the targets are copied out of the
    table's strided columns once, here.
    """
    table = _table(samples)
    return transform(scaler, table[:, :3]), table[:, 3:].copy()


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
    parameter, room side or position raises ValueError, and so do finite
    settings whose readings would overflow to a non-finite value.
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
    # Finite settings can still overflow (a distance past ~1.3e154 squares to
    # inf, and so does 10 * n_exp past ~1.8e307); numpy stays quiet, and the
    # readings are checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        dists = np.maximum(np.linalg.norm(tx - positions[:, None], axis=-1), REFERENCE_DISTANCE_M)
        # libm's scalar log10, not np.log10: numpy's SIMD loops for it differ by
        # up to 2 ulp between CPU dispatch levels, and the readings must not.
        ratios = (dists / REFERENCE_DISTANCE_M).ravel().tolist()
        rssi = pl0 - 10.0 * n_exp * np.array([math.log10(r) for r in ratios]).reshape(dists.shape)
        rssi = rssi + rng.normal(0.0, sigma, size=(len(positions), 3))
    if not np.isfinite(rssi).all():
        raise ValueError(
            f"pl0={pl0!r}, n_exp={n_exp!r} and sigma={sigma!r} in a {w!r}x{h_!r} room give "
            "RSSI readings beyond the float64 range"
        )
    return [RssiSample(row[:3], row[3:]) for row in np.column_stack((rssi, positions)).tolist()]


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
