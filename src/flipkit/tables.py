"""Small ordered table used by sweeps, with CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

__all__ = ["SweepTable"]


@dataclass
class SweepTable:
    """Columnar sweep result: one parameter column plus named metrics.

    Column order is the declaration order; CSV rows follow the grid
    order, the parameter always first.
    """

    param_name: str
    param_values: list[float] = field(default_factory=list)
    columns: dict[str, list[float]] = field(default_factory=dict)

    def add_row(self, param_value: float, **metrics: float) -> None:
        if not self.columns:
            for name in metrics:
                self.columns[name] = []
        elif metrics.keys() != self.columns.keys():
            raise ValueError("row metrics do not match existing columns")
        self.param_values.append(float(param_value))
        for name, col in self.columns.items():
            col.append(float(metrics[name]))

    @property
    def n_rows(self) -> int:
        return len(self.param_values)

    def column(self, name: str) -> list[float]:
        if name == self.param_name:
            return list(self.param_values)
        return list(self.columns[name])

    def header(self) -> list[str]:
        return [self.param_name, *self.columns.keys()]

    def to_csv(self) -> str:
        # one "%" formats every cell: "%.12g" is f"{x:.12g}", nan and -0 too
        header = self.header()
        for name, col in self.columns.items():
            if len(col) != self.n_rows:
                raise ValueError(f"column {name!r} has {len(col)} values, "
                                 f"{self.param_name!r} has {self.n_rows}")
        row = ",".join(["%.12g"] * len(header)) + "\n"
        cells = tuple(chain.from_iterable(
            zip(self.param_values, *self.columns.values())))
        return ",".join(header) + "\n" + row * self.n_rows % cells
