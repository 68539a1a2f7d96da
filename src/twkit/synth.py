"""Synthetic corpus generation shaped like the 1,087-row warrior table.

The generator is a shallow, auditable conditional model: draw a class from
fixed weights, draw each categorical feature from a per-class table, draw
height from a per-class normal, then apply coupling rules (near-deterministic
attribute-to-attribute links such as position-from-corps). It is deliberately
not a learned model so it can serve as ground truth in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .jsonio import number, read_json
from .schema import CATEGORICAL, Code, Schema, default_schema
from .table import Table

_SUM_TOL = 1e-9

# numpy's normal draws lie within 14 sigmas of the mean, so a height model
# whose mean ± HEIGHT_SIGMAS sigmas is finite never draws an infinite height.
HEIGHT_SIGMAS = 40

Distribution = dict[Code, float]


@dataclass(frozen=True)
class Coupling:
    """Draw `target` from a per-source-code distribution, overriding its conditional."""

    target: str
    source: str
    mapping: dict[Code, Distribution]


@dataclass(frozen=True)
class SynthesisSpec:
    class_weights: Distribution
    conditionals: dict[str, dict[Code, Distribution]]  # attr -> class -> code -> p
    height_model: dict[Code, tuple[float, float]]  # class -> (mean cm, sigma cm)
    couplings: tuple[Coupling, ...] = ()

    def validate(self, schema: Schema) -> None:
        classes = set(schema.class_codes)
        if set(self.class_weights) != classes:
            raise DataError("class_weights must cover exactly the declared classes")
        _check_distribution("class_weights", self.class_weights)
        coupled = {c.target for c in self.couplings}
        for attr in schema.features:
            if attr.kind != CATEGORICAL or attr.name in coupled:
                continue
            per_class = self.conditionals.get(attr.name)
            if per_class is None:
                raise DataError(f"no conditional table for attribute {attr.name!r}")
            for cls in schema.class_codes:
                if cls not in per_class:
                    raise DataError(f"attribute {attr.name!r}: no distribution for class {cls!r}")
                _check_distribution(f"{attr.name}|{cls}", per_class[cls])
                for code in per_class[cls]:
                    if code not in attr.codes:
                        raise DataError(f"attribute {attr.name!r}: undeclared code {code!r}")
        for i, coupling in enumerate(self.couplings):
            if coupling.source not in schema.names or coupling.source in {c.target for c in self.couplings[i:]}:
                raise DataError(f"coupling {coupling.target!r}: source {coupling.source!r} is not drawn before it")
            source, target = schema.attribute(coupling.source), schema.attribute(coupling.target)
            if source.kind != CATEGORICAL or target.kind != CATEGORICAL:
                raise DataError(f"coupling {coupling.target!r}: source and target must be categorical")
            for src in source.codes:
                if src not in coupling.mapping:
                    raise DataError(f"coupling {coupling.target!r}: no mapping for {coupling.source}={src!r}")
            for src, dist in coupling.mapping.items():
                _check_distribution(f"{coupling.target}|{coupling.source}={src}", dist)
                for code in dist:
                    if code not in target.codes:
                        raise DataError(f"coupling {coupling.target!r}: undeclared code {code!r}")
        for cls in schema.class_codes:
            if cls not in self.height_model:
                raise DataError(f"height_model: no entry for class {cls!r}")
            mean, sigma = self.height_model[cls]
            if not sigma >= 0:
                raise DataError(f"height_model {cls!r}: sigma must be >= 0, got {sigma}")
            if not np.isfinite(abs(mean) + HEIGHT_SIGMAS * sigma):
                raise DataError(
                    f"height_model {cls!r}: mean ± {HEIGHT_SIGMAS} sigma must be finite, got [{mean}, {sigma}]"
                )


def _check_distribution(name: str, dist: Distribution) -> None:
    if not dist:
        raise DataError(f"{name}: empty distribution")
    if any(p < 0 for p in dist.values()):
        raise DataError(f"{name}: negative probability")
    total = sum(dist.values())
    if abs(total - 1.0) > _SUM_TOL:
        raise DataError(f"{name}: probabilities sum to {total}, not 1")


def _draw(dist: Distribution, rng: np.random.Generator) -> Code:
    u = rng.random()
    acc = 0.0
    items = list(dist.items())
    for code, p in items:
        acc += p
        if u < acc:
            return code
    return items[-1][0]


def synthesize_corpus(
    spec: SynthesisSpec, n: int, seed: int, schema: Schema | None = None
) -> Table:
    """Draw `n` schema-valid rows; byte-deterministic for a fixed seed."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    schema = schema or default_schema()
    spec.validate(schema)
    rng = np.random.default_rng(seed)
    coupled = {c.target for c in spec.couplings}
    rows = []
    for _ in range(n):
        cls = _draw(spec.class_weights, rng)
        cells: dict[str, Code | float] = {schema.label.name: cls}
        for attr in schema.features:
            if attr.name in coupled:
                continue
            if attr.kind == CATEGORICAL:
                cells[attr.name] = _draw(spec.conditionals[attr.name][cls], rng)
            else:
                mean, sigma = spec.height_model[cls]
                cells[attr.name] = round(float(rng.normal(mean, sigma)), 1)
        for coupling in spec.couplings:
            cells[coupling.target] = _draw(coupling.mapping[cells[coupling.source]], rng)
        rows.append(tuple(cells[name] for name in schema.names))
    return Table(schema, tuple(rows))


# ---------------------------------------------------------------------------
# Default spec. Calibration targets: the reference class mix (396/633/8/8/
# 5/10/27), a deterministic corps->position link and a near-deterministic
# headgear->hairstyle link, pooled mean height near 178 cm, and class
# signatures arranged so the rarest class is unlearnable at its raw count
# (its cell is outnumbered by a crown-wearing robed-warrior satellite and a
# low-official tail) but cleanly recoverable once augmentation rebalances
# the counts. Three mid-size minorities deliberately hide inside the
# armored-warrior mass so rebalancing also moves ranking metrics.
# ---------------------------------------------------------------------------

_CLASS_COUNTS = {"RW": 396, "AW": 633, "CS": 8, "CT": 8, "HR": 5, "MR": 10, "LR": 27}

_UNIFORM_CID = {i: 1.0 / 11.0 for i in range(1, 12)}
_UNIFORM_TID = {i: 0.2 for i in (1, 2, 10, 19, 20)}
_AW_CID = {2: 0.17, 10: 0.17, 1: 0.12, 3: 0.12, 9: 0.09, 11: 0.09,
           4: 0.04, 5: 0.04, 6: 0.04, 7: 0.04, 8: 0.04, "K": 0.04}


def default_synthesis_spec() -> SynthesisSpec:
    weights = {cls: count / 1087.0 for cls, count in _CLASS_COUNTS.items()}
    conditionals: dict[str, dict[Code, Distribution]] = {
        "c_id": {
            "RW": {"K": 0.3, 1: 0.2, 2: 0.1, 3: 0.1, 4: 0.05, 5: 0.05, 6: 0.05,
                   7: 0.05, 8: 0.025, 9: 0.025, 10: 0.025, 11: 0.025},
            "AW": dict(_AW_CID),
            "CS": dict(_AW_CID),
            "CT": dict(_AW_CID),
            "HR": dict(_UNIFORM_CID),
            "MR": dict(_AW_CID),
            "LR": dict(_UNIFORM_CID),
        },
        "t_id": {cls: dict(_UNIFORM_TID) for cls in _CLASS_COUNTS},
        "corps": {
            "RW": {1: 1.0},
            "AW": {1: 0.97, 0: 0.03},
            "CS": {1: 1.0},
            "CT": {1: 1.0},
            "HR": {1: 1.0},
            "MR": {1: 1.0},
            "LR": {1: 1.0},
        },
        "weapon": {
            "RW": {0: 0.41, 1: 0.41, 2: 0.18},
            "AW": {0: 0.5, 1: 0.5},
            "CS": {0: 0.5, 1: 0.5},
            "CT": {0: 0.5, 1: 0.5},
            "HR": {2: 1.0},
            "MR": {0: 0.5, 1: 0.5},
            "LR": {2: 1.0},
        },
        "headgear": {
            "RW": {3: 0.88, 2: 0.12},
            "AW": {4: 0.75, 3: 0.25},
            "CS": {4: 0.8, 0: 0.2},
            "CT": {4: 0.8, 1: 0.2},
            "HR": {2: 1.0},
            "MR": {4: 0.8, 0: 0.2},
            "LR": {1: 0.6, 0: 0.25, 2: 0.15},
        },
        "robe_num": {
            "RW": {1: 0.9, 2: 0.1},
            "AW": {1: 0.97, 2: 0.03},
            "CS": {2: 0.5, 1: 0.5},
            "CT": {2: 0.5, 1: 0.5},
            "HR": {1: 1.0},
            "MR": {2: 0.5, 1: 0.5},
            "LR": {1: 1.0},
        },
        "armor_type": {
            "RW": {1: 1.0},
            "AW": {2: 1.0},
            "CS": {2: 0.8, 6: 0.2},
            "CT": {2: 0.8, 5: 0.2},
            "HR": {1: 1.0},
            "MR": {2: 0.8, 4: 0.2},
            "LR": {1: 0.4, 0: 0.2, 3: 0.25, 2: 0.15},
        },
    }
    heights = {cls: (178.0, 4.5) for cls in _CLASS_COUNTS}
    heights["AW"] = (176.5, 4.5)
    heights["RW"] = (178.0, 4.0)
    for cls in ("CS", "CT", "MR"):
        heights[cls] = (183.0, 5.0)
    couplings = (
        Coupling(
            target="position",
            source="corps",
            mapping={0: {2: 1.0}, 1: {0: 0.55, 1: 0.45}},
        ),
        Coupling(
            target="hairstyle",
            source="headgear",
            mapping={
                0: {1: 1.0},
                1: {1: 1.0},
                2: {1: 1.0},
                3: {0: 0.98, 1: 0.02},
                4: {0: 1.0},
            },
        ),
    )
    return SynthesisSpec(weights, conditionals, heights, couplings)


# ---------------------------------------------------------------------------
# JSON reading. Codes are written as strings and parsed against the schema
# (so "2" and "K" both come back as declared codes).
# ---------------------------------------------------------------------------


def _dist_from_json(name: str, raw: dict[str, float], attr) -> Distribution:
    return {attr.parse_token(token): number(f"{name} {token!r}", p) for token, p in raw.items()}


def _height_from_json(cls: str, raw) -> tuple[float, float]:
    if not isinstance(raw, list) or len(raw) != 2:
        raise ValueError(f"height_model {cls!r}: expected [mean, sigma], got {raw!r}")
    return number(f"height_model {cls!r} mean", raw[0]), number(f"height_model {cls!r} sigma", raw[1])


def load_spec(path, schema: Schema) -> SynthesisSpec:
    label = schema.label

    def parse(doc) -> SynthesisSpec:
        spec = SynthesisSpec(
            class_weights=_dist_from_json("class_weights", doc["class_weights"], label),
            conditionals={
                attr: {
                    label.parse_token(cls): _dist_from_json(f"{attr}|{cls}", dist, schema.attribute(attr))
                    for cls, dist in per_class.items()
                }
                for attr, per_class in doc["conditionals"].items()
            },
            height_model={
                label.parse_token(cls): _height_from_json(cls, ms) for cls, ms in doc["height_model"].items()
            },
            couplings=tuple(
                Coupling(
                    target=c["target"],
                    source=c["source"],
                    mapping={
                        schema.attribute(c["source"]).parse_token(src): _dist_from_json(
                            f"{c['target']}|{c['source']}={src}", d, schema.attribute(c["target"])
                        )
                        for src, d in c["mapping"].items()
                    },
                )
                for c in doc.get("couplings", [])
            ),
        )
        # inside parse, so that a mistyped probability also names the file
        spec.validate(schema)
        return spec

    return read_json(path, parse, "synthesis spec")
