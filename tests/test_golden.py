"""Golden-output gate: the metric columns of ``cur-accuracy``, ``angles`` and
``balance`` at their defaults, seeds 7 and 11, against committed references.

Each run's CSV, its wall-clock ``nanos`` column dropped, is compared with
``tests/golden/``:

* bit for bit (the sha256 of the CSV text), when the environment equals the
  one recorded with the references: numpy's version, the build and CPU
  kernel of numpy's bundled OpenBLAS, and which LAPACK ``randskel.dense``
  binds;
* otherwise row for row: the same row keys (every column but ``value``),
  and every value within ``RTOL`` of its reference, relative to the largest
  magnitude of the same metric column (see :func:`_scale`). The scipy leg of
  the suite (``RANDSKEL_TEST_LAPACK=scipy``) takes this branch.

Neither branch skips. A change that moves rows on purpose regenerates the
references, at its parent commit or after the change, and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import ctypes
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from randskel import dense
from randskel.bench.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden")
COMMANDS = {"cur-accuracy": "cur_accuracy", "angles": "angles", "balance": "balance"}
SEEDS = (7, 11)
#: Relative tolerance of the row-for-row branch, against each metric's scale.
RTOL = 1e-8


def environment():
    """What decides the bits of the references: numpy's version, its OpenBLAS
    build and kernel (``get_config``), and the LAPACK that ``dense`` binds."""
    config = None
    for lib in dense._numpy_openblas():
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_"):
            if hasattr(lib, symbol):
                function = getattr(lib, symbol)
                function.argtypes, function.restype = [], ctypes.c_char_p
                config = function().decode()
                break
    return {"numpy": np.__version__, "openblas": config,
            "lapack": "numpy" if dense._numpy_openblas() else "scipy"}


def metric_rows(command, seed, out):
    """The CSV rows of ``command`` at its defaults and ``seed``, each without
    its ``nanos`` column, header first."""
    assert run([command, "--seed", str(seed), "--out", str(out)]) == 0
    with open(pathlib.Path(out) / f"{COMMANDS[command]}.csv", newline="") as fh:
        return [row[:-1] for row in csv.reader(fh)]


def _digest(rows):
    """sha256 of ``rows`` as comma-joined lines, as perfbench digests a CSV."""
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(row).encode() + b"\n")
    return h.hexdigest()


def _split(rows):
    """The header-less rows' keys (all but ``value``) and float64 values."""
    header, body = rows[0], rows[1:]
    at = header.index("value")
    return ([row[:at] + row[at + 1:] for row in body],
            np.array([float(row[at]) for row in body]))


def _scale(keys, values):
    """Each value's metric scale: the largest magnitude over the rows of the
    same ``(method, metric)``, or 1 where that is 0."""
    groups = {}
    for (_, method, *_, metric), v in zip(keys, values):
        groups[method, metric] = max(groups.get((method, metric), 0.0), abs(v))
    return np.array([groups[method, metric] or 1.0 for (_, method, *_, metric) in keys])


def _case(command, seed):
    return f"{COMMANDS[command]}_seed{seed}"


@pytest.fixture(scope="module")
def references():
    with open(GOLDEN / "references.json") as fh:
        refs = json.load(fh)
    with np.load(GOLDEN / "values.npz") as values:
        return refs, {name: values[name] for name in values.files}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_metric_columns_match_references(command, seed, references, tmp_path):
    refs, values = references
    ref = refs["cases"][_case(command, seed)]
    rows = metric_rows(command, seed, tmp_path)
    if environment() == refs["environment"]:
        assert _digest(rows) == ref["digest"], (
            f"{command} seed {seed} moved from its references in their own environment; "
            "a change that moves rows on purpose regenerates them (see this module)")
        return
    keys, got = _split(rows)
    want = values[_case(command, seed)]
    assert rows[0] == ref["header"]
    assert _digest(keys) == ref["keys_digest"], f"{command} seed {seed}: row keys moved"
    assert got.shape == want.shape
    scale = _scale(keys, want)
    worst = np.abs(got - want) / scale
    assert worst.max() <= RTOL, (
        f"{command} seed {seed}: {int((worst > RTOL).sum())} values beyond {RTOL:g} of "
        f"their metric's scale, worst {worst.max():.3g} at row {int(worst.argmax()) + 1}")


def write_references():
    """Run every case here and write ``tests/golden/``."""
    GOLDEN.mkdir(exist_ok=True)
    cases, values = {}, {}
    for command in sorted(COMMANDS):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                rows = metric_rows(command, seed, out)
            keys, values[_case(command, seed)] = _split(rows)
            cases[_case(command, seed)] = {"header": rows[0], "rows": len(rows) - 1,
                                           "digest": _digest(rows),
                                           "keys_digest": _digest(keys)}
    with open(GOLDEN / "references.json", "w") as fh:
        json.dump({"environment": environment(), "cases": cases}, fh, indent=1)
        fh.write("\n")
    np.savez_compressed(GOLDEN / "values.npz", **values)


if __name__ == "__main__":
    write_references()
    print(f"wrote {GOLDEN}", file=sys.stderr)
