"""Shared infrastructure for the per-figure/per-table experiment modules.

Every experiment module exposes a ``run(...) -> ExperimentResult`` function.
An :class:`ExperimentResult` is a small, self-describing table: the paper
figure/table it reproduces, named columns, one row per configuration, and
free-form notes about scaling or substitutions.  The benchmark harness prints
these tables and asserts their qualitative shape; ``repro report`` sets them
beside the paper's numbers.

Experiments run on *scaled* synthetic datasets: simulating every one of the
millions of items in the real corpora is unnecessary because cache-fraction
behaviour, stall fractions, and speedups are scale-free.  The default scale
keeps tens of thousands of items per dataset, large enough for dozens of
minibatches per epoch at the paper's batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.datasets.catalog import get_dataset_spec
from repro.datasets.dataset import SyntheticDataset
from repro.exceptions import ConfigurationError

#: Default dataset scale for experiments (1/50th of the real corpus).
DEFAULT_SCALE = 1.0 / 50.0

#: Smaller scale used by experiments that sweep many configurations.
SWEEP_SCALE = 1.0 / 100.0


@dataclass
class ExperimentResult:
    """Tabular result of one reproduced figure or table.

    Attributes:
        experiment_id: Registry identifier ("fig2", "tab6", ...), as
            ``repro run-experiment`` takes it.
        title: Human-readable description of what is reproduced.
        columns: Ordered column names of the table.
        rows: One mapping per row; keys are column names.
        notes: Free-form remarks (scaling, substitutions, caveats).
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append one row; unknown columns are rejected to catch typos."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ConfigurationError(f"unknown columns {sorted(unknown)} for {self.experiment_id}")
        self.rows.append(dict(values))

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ConfigurationError(f"unknown column {name!r}")
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key_value: Any) -> Dict[str, Any]:
        """First row whose ``key_column`` equals ``key_value``."""
        for row in self.rows:
            if row.get(key_column) == key_value:
                return row
        raise ConfigurationError(f"no row with {key_column}={key_value!r}")

    def _formatted(self, value: Any) -> str:
        if isinstance(value, float):
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            return f"{value:,.3g}"
        return str(value)

    def format_table(self) -> str:
        """Render the result as a fixed-width text table."""
        header = [self.title, "=" * len(self.title)]
        widths = {
            col: max(len(col), *(len(self._formatted(r.get(col, ""))) for r in self.rows))
            if self.rows else len(col)
            for col in self.columns
        }
        header.append("  ".join(col.ljust(widths[col]) for col in self.columns))
        header.append("  ".join("-" * widths[col] for col in self.columns))
        body = [
            "  ".join(self._formatted(row.get(col, "")).ljust(widths[col])
                      for col in self.columns)
            for row in self.rows
        ]
        footer = [f"note: {n}" for n in self.notes]
        return "\n".join(header + body + footer)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (for JSON dumps in the bench harness)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(r) for r in self.rows],
            "notes": list(self.notes),
        }


def scaled_dataset(name: str, scale: float = DEFAULT_SCALE, seed: int = 0) -> SyntheticDataset:
    """Build a proportionally scaled synthetic dataset by catalog name."""
    return SyntheticDataset(get_dataset_spec(name), seed=seed, scale=scale)


def scaled_cache_bytes(dataset: SyntheticDataset, fraction: float) -> float:
    """Cache byte budget holding ``fraction`` of the (scaled) dataset."""
    return dataset.cache_capacity_for_fraction(fraction)


def relative(values: Sequence[float], baseline: float) -> List[float]:
    """Normalise a series to a baseline value (for "speedup vs DALI" plots)."""
    if baseline == 0:
        return [0.0 for _ in values]
    return [v / baseline for v in values]
