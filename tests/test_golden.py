"""The seeded-report corpus: every command and API digest of
tests/golden/record.py, rerun on this tree, must reproduce its checked-in
file.

Strings, integers, booleans, verdicts and query counts must match
exactly.  Floats must match to rel 1e-12, because OpenBLAS picks its
kernels by CPU: a scalar against itself, an entry of a list of numbers
(a state or a vector) against itself or against the list's largest
magnitude.  The binary tensor file is compared through load_tensor.
After a declared report change, rerun record.py and list what moved.
"""

import csv
import json
import math

import numpy as np
import pytest
from golden.record import CORPUS, GOLDEN, generate

from tensorpca import load_tensor

RTOL = 1e-12


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    generate(folder)
    return folder


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def _mismatches(want, got, where="$", scale=0.0):
    """Paths at which got differs from want (bool and int are exact types)."""
    if type(want) is not type(got):
        return [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in _mismatches(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        numbers = [abs(v) for v in want if type(v) is float and not math.isnan(v)]
        scale = max(numbers, default=0.0)
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in _mismatches(w, g, f"{where}[{i}]", scale)]
    if isinstance(want, float):
        return [] if _close(want, got, scale) else [f"{where}: {want!r} != {got!r}"]
    return [] if want == got else [f"{where}: {want!r} != {got!r}"]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        header, body = path.read_text().split("\n", 1)
        assert header.startswith("# config: ")
        rows = [[_cell(c) for c in row] for row in csv.reader(body.splitlines())]
        return {"config": json.loads(header[len("# config: "):]), "rows": rows}
    tensor = load_tensor(path)
    return {
        "lam": tensor.lam,
        "provenance": tensor.provenance,
        "ensemble": tensor.ensemble,
        "n_modes": tensor.tensor.n_modes,
        "values": np.asarray(tensor.tensor.values).tolist(),
    }


def test_corpus_holds_exactly_the_recorded_commands():
    files = {p.name for p in GOLDEN.iterdir() if p.is_file()} - {"record.py"}
    assert files == set(CORPUS)
    assert sum((GOLDEN / name).stat().st_size for name in files) < 200_000


@pytest.mark.parametrize("name", CORPUS)
def test_report_matches_corpus(fresh, name):
    diffs = _mismatches(_read(GOLDEN / name), _read(fresh / name))
    assert not diffs, f"{len(diffs)} fields moved, first: {diffs[:5]}"
