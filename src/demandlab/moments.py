"""Tables of cross moments E[vk**j * vm**k] with per-entry diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MomentTable:
    """All cross moments of (good value, money value) up to a total order.

    ``entries`` maps (j, k) with j + k <= max_order to E[vk**j * vm**k];
    ``errors`` carries one numerical diagnostic per entry: 0.0 for closed
    forms, the quadrature tolerance for integrated entries, or the
    condition number of the price system for entries recovered by a
    linear solve.
    """

    max_order: int
    entries: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        expected = {(j, n - j) for n in range(self.max_order + 1)
                    for j in range(n + 1)}
        if set(self.entries) != expected:
            raise ValueError("moment table must cover all (j, k) with "
                             f"j + k <= {self.max_order}")
        if abs(self.entries[(0, 0)] - 1.0) > 1e-9:
            raise ValueError("the (0, 0) entry must equal 1")
        for key, value in self.entries.items():
            if not (value == value and abs(value) != float("inf")):
                raise ValueError(f"non-finite moment at {key}")

    def __getitem__(self, key) -> float:
        return self.entries[tuple(key)]

    def keys(self):
        return sorted(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "entries": {f"{j},{k}": v
                        for (j, k), v in sorted(self.entries.items())},
            "errors": {f"{j},{k}": v
                       for (j, k), v in sorted(self.errors.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MomentTable":
        entries = {tuple(int(s) for s in key.split(",")): float(v)
                   for key, v in data["entries"].items()}
        errors = {tuple(int(s) for s in key.split(",")): float(v)
                  for key, v in data.get("errors", {}).items()}
        return cls(int(data["max_order"]), entries, errors)
