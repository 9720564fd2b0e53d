"""Everything ``hqloc`` writes, ``hqloc`` reads: a property over generator settings at their edges.

``gen-synthetic`` runs with settings drawn from edge sets (zero, one, the
float64 extremes, infinities and NaN, a one-row file), then ``train`` and
``eval`` run on the file it wrote. ``train --test`` and ``eval --shots`` then
read a hand-written file beside it: empty, blank lines only, the survey's
first row, or the survey with a byte-order mark or CRLF line ends. Each
``main(argv)`` call either returns 0 and every file it wrote loads back
finite, or returns 1 or 2 with one ``error:`` line on stderr; none raises or
lets numpy warn.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hqloc.cli import main
from hqloc.data import load_table
from hqloc.model_io import load_model

EDGES = [0.0, 1.0, -1.0, 1e-308, -1e-308, 1e307, -1e307, 1e308, -1e308, math.inf, -math.inf,
         math.nan]
ROOMS = ["6x5", "1x1", "1e-300x1", "100x100", "1e150x1e150", "1e200x1e200", "1e308x1e308"]


def _refuse(constant):
    raise AssertionError(f"manifest holds {constant}")


def _assert_loads_back_finite(path: Path):
    if path.suffix == ".params":
        load_model(path)  # refuses non-finite arrays and scalers it cannot use
    elif path.suffix == ".json":
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse)
    elif path.name.startswith("survey"):
        assert np.isfinite(load_table(path, has_header=True)).all()
    else:  # loss_trace.csv, eval_rmse.csv: a header, then numbers
        with open(path, encoding="utf-8", newline="") as fh:
            values = [float(v) for row in list(csv.reader(fh))[1:] for v in row]
        assert all(map(math.isfinite, values)), (path, values)


def _run(argv, out: Path) -> int:
    """``main(argv)``'s exit code, once the contract holds for what it wrote or printed."""
    before = set(out.rglob("*"))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    lines = err.getvalue().splitlines()
    if code == 0:
        for path in sorted(set(out.rglob("*")) - before):
            if path.is_file():
                _assert_loads_back_finite(path)
    else:
        assert code in (1, 2), (argv, code)
        assert sum("error: " in line for line in lines) == 1, (argv, lines)
        assert "Traceback" not in err.getvalue()
    return code


def _hand_written(kind: str, survey: bytes) -> bytes:
    """A test CSV of ``kind`` beside ``survey``, whose header and rows gen-synthetic wrote."""
    header, first = survey.split(b"\n")[:2]
    return {
        "empty": b"",
        "blank-only": b"\n \r\n\t\n",
        "one-row": header + b"\n" + first + b"\n",
        "bom": "\ufeff".encode() + survey,
        "crlf": survey.replace(b"\n", b"\r\n"),
    }[kind]


def _edge_or(default):
    """An edge value, or (half the time) the flag's default, so that some files reach ``train``."""
    return st.just(default) | st.sampled_from(EDGES)


@settings(max_examples=300, deadline=None)
@given(room=st.sampled_from(ROOMS), n=st.sampled_from([1, 2, 20]), sigma=_edge_or(1.0),
       pl0=_edge_or(-40.0), n_exp=_edge_or(2.5), seed=st.integers(0, 3),
       model=st.sampled_from(["hqnn", "classical"]),
       test_kind=st.sampled_from(["empty", "blank-only", "one-row", "bom", "crlf"]),
       shots=st.sampled_from([1, 64, 4096]))
@example(room="6x5", n=20, sigma=6e307, pl0=0.0, n_exp=2.5, seed=1, model="hqnn",
         test_kind="crlf", shots=64)
def test_what_gen_synthetic_writes_trains_and_evaluates_or_fails_in_one_line(
    room, n, sigma, pl0, n_exp, seed, model, test_kind, shots
):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        survey = out / "survey.csv"
        if _run(["gen-synthetic", "--room", room, "--n", str(n), f"--sigma={sigma!r}",
                 f"--pl0={pl0!r}", f"--path-loss-exp={n_exp!r}", "--seed", str(seed),
                 "--out", str(survey)], out):
            return
        if _run(["train", "--data", str(survey), "--has-header", "--model", model,
                 "--epochs", "2", "--out-dir", str(out / "train")], out):
            return
        _run(["eval", "--model-file", str(out / "train" / "model.params"), "--data", str(survey),
              "--has-header", "--out-dir", str(out / "eval")], out)
        test = out / "test.csv"
        test.write_bytes(_hand_written(test_kind, survey.read_bytes()))
        _run(["train", "--data", str(survey), "--test", str(test), "--has-header", "--model", model,
              "--epochs", "2", "--out-dir", str(out / "train_test")], out)
        _run(["eval", "--model-file", str(out / "train" / "model.params"), "--data", str(test),
              "--has-header", "--shots", str(shots), "--seed", str(seed),
              "--out-dir", str(out / "eval_shots")], out)
