"""Command-line front end: train, eval, compare, gen-synthetic.

Every command is deterministic for fixed flags and input files; the manifest
is the only artifact carrying a timestamp. Exit codes: 0 success, 2 usage
error, 1 runtime failure. ``HQLOC_SEED`` provides the default seed when no
--seed flag is given; :func:`main` reads it on every call, while it builds its
argparse parser once per process.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import platform
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, classical, data, model_io, train_eval
from .circuits import N_FEATURES
from .statevector import check_seed

# Counts reach numpy as int64; larger flag values are usage errors.
_INT64_MAX = 2**63 - 1

# A --seed flag's default is None, replaced per call by HQLOC_SEED or 0. The
# empty "%(default).0s" keeps ArgumentDefaultsHelpFormatter from adding "(default: None)".
_SEED_DEFAULT = "(default: $HQLOC_SEED, else 0)%(default).0s"


class UsageError(Exception):
    """Bad flag combination detected after argparse; exits with status 2."""


def _env_seed() -> int:
    raw = os.environ.get("HQLOC_SEED")
    if raw is None:
        return 0
    try:
        return _seed(raw)
    except argparse.ArgumentTypeError:
        raise UsageError(
            f"HQLOC_SEED must be an integer in [0, 2**63 - 1], got {raw!r}"
        ) from None


_SCENARIO_ALIASES = {alias: name for name in data.SCENARIOS
                     for alias in (name.lower(), name.lower().replace("-", ""))}
_TECHNOLOGY_ALIASES = {t.lower(): t for t in data.TECHNOLOGIES}


def _scenario(value: str) -> str:
    try:
        return _SCENARIO_ALIASES[value.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown scenario {value!r}; expected one of {sorted(data.SCENARIOS)}"
        ) from None


def _technology(value: str) -> str:
    try:
        return _TECHNOLOGY_ALIASES[value.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown technology {value!r}; expected one of {data.TECHNOLOGIES}"
        ) from None


def _room(value: str) -> tuple[float, float]:
    parts = value.lower().split("x")
    try:
        w, h = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"room must look like WIDTHxHEIGHT (e.g. 6x5.5), got {value!r}"
        ) from None
    if not (math.isfinite(w) and math.isfinite(h)):
        raise argparse.ArgumentTypeError(f"room dimensions must be finite, got {value!r}")
    if w <= 0 or h <= 0:
        raise argparse.ArgumentTypeError(f"room dimensions must be positive, got {value!r}")
    return w, h


def _point(value: str) -> tuple[float, float]:
    try:
        x, y = (float(p) for p in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"point must look like X,Y (e.g. 0.5,0.5), got {value!r}"
        ) from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise argparse.ArgumentTypeError(f"point coordinates must be finite, got {value!r}")
    return x, y


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0  # refused below, in the range's words
    if not 1 <= n <= _INT64_MAX:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer no larger than 2**63 - 1, got {value}")
    return n


def _seed(value: str) -> int:
    try:
        n = int(value)
        check_seed(n)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**63 - 1], got {value}") from None
    return n


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--has-header", action="store_true",
                     help="first CSV line is a header")
    sub.add_argument("--mapping", default=None,
                     help="key=value file mapping canonical fields to CSV columns")
    sub.add_argument("--aggregate-positions", action="store_true",
                     help="average RSSI rows sharing one position")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqloc",
        description="Hybrid quantum-classical indoor localization from RSSI fingerprints.",
    )
    parser.set_defaults(func=None)
    subs = parser.add_subparsers(dest="command")

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p_train = subs.add_parser("train", help="train a model on a fingerprint CSV",
                              formatter_class=fmt)
    p_train.add_argument("--data", required=True, help="training CSV (canonical schema)")
    p_train.add_argument("--test", default=None, help="optional test CSV for a final RMSE")
    p_train.add_argument("--model", choices=("hqnn", "classical"), default="hqnn")
    p_train.add_argument("--epochs", type=_positive_int, default=300)
    p_train.add_argument("--lr", type=float, default=0.001,
                         help="learning rate; 0 is allowed but leaves parameters frozen")
    p_train.add_argument("--optimizer", choices=train_eval.OPTIMIZERS, default="adam")
    p_train.add_argument("--seed", type=_seed, help=f"seed of the initial model {_SEED_DEFAULT}")
    p_train.add_argument("--shots-eval", type=_positive_int, default=None,
                         help="sample expectations with this many shots for the test RMSE")
    p_train.add_argument("--out-dir", default="hqloc_train")
    _add_io_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = subs.add_parser("eval", help="test RMSE of a saved model",
                             formatter_class=fmt)
    p_eval.add_argument("--model-file", required=True, help="saved parameter file")
    p_eval.add_argument("--data", required=True, help="test CSV (canonical schema)")
    p_eval.add_argument("--shots", type=_positive_int, default=None,
                        help="sample expectations instead of computing them exactly")
    p_eval.add_argument("--seed", type=_seed,
                        help=f"seed for sampled expectations {_SEED_DEFAULT}")
    p_eval.add_argument("--out-dir", default="hqloc_eval")
    _add_io_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = subs.add_parser("compare", help="run every method on one scenario cell",
                            formatter_class=fmt)
    p_cmp.add_argument("--train", required=True, dest="train_csv", help="training CSV")
    p_cmp.add_argument("--test", required=True, dest="test_csv", help="test CSV")
    p_cmp.add_argument("--scenario", type=_scenario, default="Sc-1")
    p_cmp.add_argument("--technology", type=_technology, default="Bluetooth")
    p_cmp.add_argument("--seeds", type=_seed, nargs="+", default=[1, 2, 3])
    p_cmp.add_argument("--epochs", type=_positive_int, default=300)
    p_cmp.add_argument("--lr", type=float, default=0.001)
    p_cmp.add_argument("--optimizer", choices=train_eval.OPTIMIZERS, default="adam")
    p_cmp.add_argument("--shots", type=_positive_int, default=4096)
    p_cmp.add_argument("--knn-k", type=_positive_int, nargs="+", default=[1, 3, 5])
    p_cmp.add_argument("--out-dir", default="hqloc_compare")
    _add_io_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = subs.add_parser("gen-synthetic", help="generate a path-loss dataset",
                            formatter_class=fmt)
    p_gen.add_argument("--room", type=_room, required=True, metavar="WxH",
                       help="room size in meters, e.g. 6x5.5")
    p_gen.add_argument("--n", type=_positive_int, required=True, help="number of samples")
    p_gen.add_argument("--sigma", type=float, default=1.0,
                       help="shadowing standard deviation in dB")
    p_gen.add_argument("--seed", type=_seed,
                       help=f"seed of the positions and shadowing {_SEED_DEFAULT}")
    p_gen.add_argument("--tx", type=_point, nargs=3, default=None, metavar="X,Y",
                       help="three transmitter positions (default: (0.5, 0.5), (W - 0.5, 0.5) "
                            "and (W / 2, H - 0.5) in a W x H room)")
    p_gen.add_argument("--pl0", type=float, default=-40.0,
                       help="received power in dBm at the 1 m reference distance")
    p_gen.add_argument("--path-loss-exp", type=float, default=2.5)
    p_gen.add_argument("--out", default="synthetic.csv")
    p_gen.set_defaults(func=cmd_gen_synthetic)

    return parser


def _load(args, path) -> np.ndarray:
    """``path``'s (n, 5) table, read with the CSV flags; refuses no rows."""
    mapping = data.load_mapping(args.mapping) if args.mapping else None
    table = data.load_table(path, args.has_header, mapping, args.aggregate_positions)
    if len(table) == 0:
        raise ValueError(f"{path}: no samples found")
    return table


def _openblas_core(libraries) -> str | None:
    """OpenBLAS's runtime core (``SkylakeX``, ``Haswell``, ...) from the first of ``libraries``
    that loads and exports ``scipy_openblas_get_corename64_``; None when none does."""
    for path in libraries:
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return None


@functools.cache
def _runtime() -> dict:
    """What trained bytes depend on besides the inputs and flags, read once per process.

    numpy picks its SIMD loops, and OpenBLAS its kernels, by the CPU at import; both
    can move the last digits of trained outputs (README, ``manifest.json``).
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    libraries = sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"))
    return {
        "numpy_simd": {
            "baseline": list(umath.__cpu_baseline__),
            "found": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]],
        },
        "openblas_core": _openblas_core(libraries),
    }


def _write_manifest(
    out_dir: Path, command: str, config: dict, inputs: dict, outputs, **extra
) -> None:
    payload = {
        "command": command,
        "hqloc_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_runtime(),
        "config": config,
        "inputs": {
            name: {"path": str(p), "sha256": model_io.file_digest(p)}
            for name, p in inputs.items()
        },
        "outputs": sorted(str(p) for p in outputs),
        **extra,
    }
    model_io.write_manifest(out_dir / "manifest.json", payload)


def _count_clamped(scaler: data.Scaler, raw: np.ndarray, path) -> int:
    """Raw feature values outside the scaler's [lo, hi]; warns on stderr when there are any."""
    clamped = int(((raw < scaler.lo) | (raw > scaler.hi)).sum())
    if clamped:
        print(f"warning: {clamped} feature value(s) in {path} lie outside the training "
              "range and were clamped into [0, 1]", file=sys.stderr)
    return clamped


def _test_rmse(model, X, Z, shots, seed, shots_flag: str) -> float:
    """Test RMSE on scaled features; the one place a predictor is picked by model kind.

    A hybrid model is sampled when ``shots`` is set; a dense net warns that ``shots_flag`` is moot.
    """
    if isinstance(model, train_eval.HybridModel):
        predict = lambda batch: train_eval.hqnn_forward_batch(model, batch, shots, seed)
    else:
        if shots is not None:
            print(f"warning: {shots_flag} has no effect on a classical model", file=sys.stderr)
        predict = lambda batch: classical.forward_batch(model, batch)
    return train_eval.evaluate_rmse(predict, X, Z)


def cmd_train(args) -> int:
    train_table = _load(args, args.data)
    test_table = _load(args, args.test) if args.test else None
    config = train_eval.TrainConfig(
        optimizer=args.optimizer, eta=args.lr, epochs=args.epochs, seed=args.seed
    )
    scaler = data.fit_scaler(train_table)
    X, Z = data.transform_samples(scaler, train_table)
    clamped, test = 0, None
    if test_table is not None:
        clamped = _count_clamped(scaler, test_table[:, :3], args.test)
        test = data.transform_samples(scaler, test_table)
    if args.lr == 0:
        print("warning: learning rate is 0; parameters stay at their initialization",
              file=sys.stderr)
    if args.shots_eval is not None and test is None:
        print("warning: --shots-eval has no effect without --test", file=sys.stderr)
    if args.model == "hqnn":
        model = train_eval.init_hybrid_model(args.seed)
    else:
        model = classical.baseline_net(args.seed)
    report = train_eval.train(model, X, Z, config)
    test_rmse = None
    if test is not None:
        test_rmse = _test_rmse(model, *test, args.shots_eval, args.seed, "--shots-eval")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    loss_path = out_dir / "loss_trace.csv"
    model_path = out_dir / "model.params"
    model_io.write_loss_csv(loss_path, report.loss_per_epoch, report.final_train_mse)
    model_io.save_model(model_path, model, scaler)
    inputs = {"data": args.data}
    if args.test:
        inputs["test"] = args.test
    _write_manifest(
        out_dir, "train", {**asdict(config), "model": args.model, "shots_eval": args.shots_eval},
        inputs, [loss_path, model_path, out_dir / "manifest.json"],
        clamped_features=clamped,
    )
    print(f"trained {args.model} for {config.epochs} epochs "
          f"in {report.wall_time_s:.1f}s")
    print(f"final train MSE: {report.final_train_mse:.6f} m^2")
    if test_rmse is not None:
        print(f"test RMSE: {test_rmse:.6f} m")
    print(f"wrote {loss_path} and {model_path}")
    return 0


def cmd_eval(args) -> int:
    model, scaler = model_io.load_model(args.model_file)
    net = model.head if isinstance(model, train_eval.HybridModel) else model
    if (net.input_dim, net.output_dim) != (N_FEATURES, 2):
        raise ValueError(f"{args.model_file}: the network maps {net.input_dim} inputs to "
                         f"{net.output_dim} outputs; a fix needs {N_FEATURES} in and (x, y) out")
    table = _load(args, args.data)
    X, Z = table[:, :3], table[:, 3:]
    clamped = 0
    if scaler is not None:
        raw, X = X, data.transform(scaler, X)
        clamped = _count_clamped(scaler, raw, args.data)
    elif X.min() < 0.0 or X.max() > 1.0:
        raise ValueError(f"{args.model_file}: no stored scaler, and {args.data} is not in [0, 1]")
    rmse = _test_rmse(model, X, Z, args.shots, args.seed, "--shots")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rmse_path = out_dir / "eval_rmse.csv"
    model_io.write_csv_rows(rmse_path, [["rmse_m"], [repr(float(rmse))]])
    _write_manifest(
        out_dir, "eval",
        {"model_file": args.model_file, "shots": args.shots, "seed": args.seed},
        {"model_file": args.model_file, "data": args.data},
        [rmse_path, out_dir / "manifest.json"],
        clamped_features=clamped,
    )
    print(f"RMSE: {rmse:.6f} m")
    print(f"wrote {rmse_path}")
    return 0


def cmd_compare(args) -> int:
    train_table = _load(args, args.train_csv)
    test_table = _load(args, args.test_csv)
    meta = data.scenario_meta(args.scenario, args.technology)
    config = train_eval.CompareConfig(
        seeds=tuple(args.seeds),
        epochs=args.epochs,
        eta=args.lr,
        optimizer=args.optimizer,
        shots=args.shots,
        knn_ks=tuple(args.knn_k),
    )
    clamped = _count_clamped(data.fit_scaler(train_table), test_table[:, :3], args.test_csv)
    records = train_eval.compare_all(meta, train_table, test_table, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "comparison.csv"
    model_io.write_csv_rows(table_path, train_eval.records_to_csv_rows(records))
    _write_manifest(
        out_dir, "compare", asdict(config),
        {"train": args.train_csv, "test": args.test_csv},
        [table_path, out_dir / "manifest.json"],
        clamped_features=clamped,
    )
    print(train_eval.format_comparison(records))
    print(f"wrote {table_path}")
    return 0


def cmd_gen_synthetic(args) -> int:
    room = args.room
    tx = args.tx if args.tx is not None else data.default_tx_positions(room)
    for x, y in tx:
        if not (0 <= x <= room[0] and 0 <= y <= room[1]):
            raise UsageError(
                f"transmitter ({x}, {y}) lies outside the {room[0]}x{room[1]} room"
            )
    meta = data.ScenarioMeta(
        name="custom", technology="custom", room=room, n_train=args.n, n_test=0
    )
    samples = data.gen_synthetic(
        meta,
        tx_positions=tx,
        pl0=args.pl0,
        n_exp=args.path_loss_exp,
        sigma=args.sigma,
        rng_seed=args.seed,
        n_points=args.n,
    )
    data.save_csv(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` parses with, built once per process; it holds no environment."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        seed = _env_seed()  # read on every call, before the flags, whatever they are
        args = parser.parse_args(argv)
        if args.func is None:
            parser.print_help()
            return 2
        if getattr(args, "seed", 0) is None:  # compare's --seeds has a default of its own
            args.seed = seed
        return args.func(args)
    except SystemExit as exc:  # argparse's exit, after --help or a usage message
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it refused; a bare one says nothing.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
