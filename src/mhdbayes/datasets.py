"""Dataset ingestion: CSV files (one value per line) and bundled data.

The bundled "newcomb" set is Simon Newcomb's 66 passage-time measurements
of the speed of light, coded as deviations from 24800 nanoseconds; it
includes the two famous negative outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

BUNDLED_PREFIX = "bundled:"


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray
    name: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("dataset must hold at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")

    def __len__(self):
        return len(self.values)


def _parse_csv(text, source):
    values = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        cell = raw.split(",")[0].strip().strip('"')
        if not cell:
            continue
        try:
            values.append(float(cell))
        except ValueError:
            if lineno == 1 and not values:
                continue  # header line
            raise ValueError(f"{source}: cannot parse line {lineno}: {raw!r}") from None
    if not values:
        raise ValueError(f"{source}: no numeric values found")
    return np.asarray(values, dtype=float)


def load_dataset(path_or_bundle):
    """Load a dataset from a CSV path or a ``bundled:<name>`` reference."""
    ref = str(path_or_bundle)
    if ref.startswith(BUNDLED_PREFIX):
        name = ref[len(BUNDLED_PREFIX):]
        try:
            text = (resources.files("mhdbayes") / "data" / f"{name}.csv").read_text()
        except FileNotFoundError:
            raise ValueError(f"unknown bundled dataset {name!r}") from None
        return Dataset(values=_parse_csv(text, ref), name=name)
    # utf-8-sig drops a byte-order mark, which would otherwise turn the
    # first value into an unparsable header
    with open(ref, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    return Dataset(values=_parse_csv(text, ref), name=ref)
