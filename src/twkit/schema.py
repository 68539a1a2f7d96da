"""Column declarations for the warrior attribute table.

A schema lists every column: categorical columns carry an ordered code list
(codes are ints or short strings such as ``"K"`` or class tags like ``"RW"``),
the single numeric column carries a unit, and exactly one column is the label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

Code = int | str

CATEGORICAL = "categorical"
NUMERIC = "numeric"


@dataclass(frozen=True)
class AttributeSpec:
    """One column: its kind, declared codes (categorical) or unit (numeric)."""

    name: str
    kind: str
    categories: tuple[tuple[Code, str], ...] = ()
    unit: str = ""
    role: str = "feature"

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise SchemaError(f"{self.name}: unknown kind {self.kind!r}")
        if self.role not in ("feature", "label"):
            raise SchemaError(f"{self.name}: unknown role {self.role!r}")
        codes = tuple(c for c, _ in self.categories)
        if self.kind == CATEGORICAL:
            if len(codes) < 2:
                raise SchemaError(f"{self.name}: categorical needs >=2 codes")
            if len(set(codes)) != len(codes):
                raise SchemaError(f"{self.name}: duplicate codes")
        elif self.categories:
            raise SchemaError(f"{self.name}: numeric attribute cannot declare codes")
        # not fields: equality and repr ignore them, and dataclasses.replace
        # rebuilds them. A code's index is its position in `codes`; a token
        # maps to the first declared code that prints as it.
        tokens: dict[str, Code] = {}
        for code in codes:
            tokens.setdefault(str(code), code)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_positions", {code: k for k, code in enumerate(codes)})
        object.__setattr__(self, "_tokens", tokens)

    @property
    def codes(self) -> tuple[Code, ...]:
        return self._codes

    def code_index(self, code: Code) -> int:
        try:
            return self._positions[code]
        except (KeyError, TypeError):  # TypeError: unhashable, so no code
            raise SchemaError(f"{self.name}: undeclared code {code!r}") from None

    def code_indices(self, cells) -> np.ndarray:
        """The index into `codes` of each cell of the sequence `cells`, as an
        intp array; a missing cell (None) maps to -1."""
        positions = {**self._positions, None: -1}
        try:
            return np.fromiter(map(positions.__getitem__, cells), dtype=np.intp)
        except (KeyError, TypeError):
            bad = next(c for c in cells if c is not None and not self.is_code(c))
            raise SchemaError(f"{self.name}: undeclared code {bad!r}") from None

    def is_code(self, cell) -> bool:
        """Whether `cell` equals a declared code (1.0 and True match the code 1)."""
        try:
            return cell in self._positions
        except TypeError:  # unhashable, so equal to no code
            return False

    def parse_token(self, token: str) -> Code | float:
        """Map a CSV token to a declared code (categorical) or finite float (numeric)."""
        if self.kind == NUMERIC:
            try:
                value = float(token)
            except ValueError:
                raise SchemaError(f"{self.name}: non-numeric value {token!r}") from None
            if not math.isfinite(value):
                raise SchemaError(f"{self.name}: non-finite value {token!r}")
            return value
        try:
            return self._tokens[token]
        except KeyError:
            raise SchemaError(f"{self.name}: undeclared code {token!r}") from None


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list; exactly one attribute has role='label'."""

    attributes: tuple[AttributeSpec, ...]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names")
        labels = [a for a in self.attributes if a.role == "label"]
        if len(labels) != 1:
            raise SchemaError(f"schema needs exactly one label attribute, got {len(labels)}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def label(self) -> AttributeSpec:
        return next(a for a in self.attributes if a.role == "label")

    @property
    def features(self) -> tuple[AttributeSpec, ...]:
        return tuple(a for a in self.attributes if a.role == "feature")

    @property
    def label_index(self) -> int:
        return self.names.index(self.label.name)

    @property
    def class_codes(self) -> tuple[Code, ...]:
        return self.label.codes

    def attribute(self, name: str) -> AttributeSpec:
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"unknown attribute {name!r}")

    def index_of(self, name: str) -> int:
        self.attribute(name)
        return self.names.index(name)


def _cat(name, pairs, role="feature"):
    return AttributeSpec(name=name, kind=CATEGORICAL, categories=tuple(pairs), role=role)


def default_schema() -> Schema:
    """The eleven-column warrior table: nine categorical features, height, class."""
    corridor = [(i, f"corridor {i}") for i in range(1, 12)] + [("K", "span K")]
    return Schema(
        attributes=(
            _cat("c_id", corridor),
            _cat("t_id", [(i, f"trench {i}") for i in (1, 2, 10, 19, 20)]),
            _cat("corps", [(0, "chariot soldier"), (1, "infantryman")]),
            _cat("position", [(0, "following vehicles"), (1, "independent"), (2, "onboard")]),
            AttributeSpec(name="height", kind=NUMERIC, unit="centimeters"),
            _cat("weapon", [(0, "archery"), (1, "long weapons"), (2, "swords"), (3, "none")]),
            _cat("hairstyle", [(0, "cone bun"), (1, "flat bun")]),
            _cat(
                "headgear",
                [
                    (0, "double-plate crown"),
                    (1, "single-plate crown"),
                    (2, "He crown"),
                    (3, "none"),
                    (4, "hood"),
                ],
            ),
            _cat("robe_num", [(1, "one layer"), (2, "two layers")]),
            _cat(
                "armor_type",
                [
                    (0, "type III B"),
                    (1, "none"),
                    (2, "type I A"),
                    (3, "type II A"),
                    (4, "type II B"),
                    (5, "type I B"),
                    (6, "type III A"),
                ],
            ),
            _cat(
                "tw_class",
                [
                    ("RW", "Robed Warrior"),
                    ("AW", "Armored Warrior"),
                    ("CS", "Charioteer"),
                    ("CT", "Chariot Soldier on Right"),
                    ("HR", "High-Ranking Official"),
                    ("MR", "Middle-Ranking Official"),
                    ("LR", "Low-Ranking Official"),
                ],
                role="label",
            ),
        )
    )
