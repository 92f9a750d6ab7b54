"""The built-in catalog of (matrix, twist) pairs and external overrides.

The built-ins cover every branch of the closed-form weight list (all three
orbit cases, every twist order up to 6 on the cycles) and both special
locality types.  Setting LOOMFOLD_CATALOG to a JSON file replaces the list.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from loomfold.cartan import Gcm, canonical_matrix
from loomfold.errors import JobError
from loomfold.folding import DiagramAut, validate_aut

ENV_VAR = "LOOMFOLD_CATALOG"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    gcm: Gcm
    mu: DiagramAut

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "cartan": [list(r) for r in self.gcm.entries],
            "mu": list(self.mu.perm),
        }


def _entry(name: str, label: str, perm) -> CatalogEntry:
    gcm = Gcm(canonical_matrix(label))
    return CatalogEntry(name, gcm, validate_aut(gcm, perm))


def builtin_entries() -> list[CatalogEntry]:
    return [
        _entry("A2-id", "A2", [0, 1]),
        _entry("A2-flip", "A2", [1, 0]),
        _entry("A3-flip", "A3", [2, 1, 0]),
        _entry("A4-flip", "A4", [3, 2, 1, 0]),
        _entry("A5-flip", "A5", [4, 3, 2, 1, 0]),
        _entry("D4-flip", "D4", [0, 1, 3, 2]),
        _entry("D4-triality", "D4", [2, 1, 3, 0]),
        _entry("E6-flip", "E6", [4, 3, 2, 1, 0, 5]),
        _entry("A1a-id", "A1^(1)", [0, 1]),
        _entry("A1a-flip", "A1^(1)", [1, 0]),
        _entry("A2a-id", "A2^(1)", [0, 1, 2]),
        _entry("A2a-flip", "A2^(1)", [0, 2, 1]),
        _entry("A2a-rot", "A2^(1)", [1, 2, 0]),
        _entry("A3a-rot", "A3^(1)", [1, 2, 3, 0]),
        _entry("A4a-rot", "A4^(1)", [1, 2, 3, 4, 0]),
        _entry("A5a-rot", "A5^(1)", [1, 2, 3, 4, 5, 0]),
        _entry("D4a-triality", "D4^(1)", [0, 3, 2, 4, 1]),
    ]


def read_json(path: str, what: str):
    """The JSON value held in a file.  A file that cannot be read, is not
    UTF-8, holds no JSON or nests deeper than the recursion limit raises
    JobError, "cannot read <what>: <reason>"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise JobError(f"cannot read {what}: {exc}") from exc


def known_keys(obj: dict, keys: tuple, where: str):
    """Reject a key of `obj` other than `keys`: a misspelled key is never
    dropped without a word."""
    for key in obj:
        if key not in keys:
            raise JobError(f"{where}: unknown key {key!r}; it may hold {', '.join(keys)}")


def load_entries(path: str | None = None) -> list[CatalogEntry]:
    """Entries from an explicit path, the environment override, or built-ins."""
    path = path or os.environ.get(ENV_VAR)
    if not path:
        return builtin_entries()
    raw = read_json(path, f"catalog {path}")
    if not isinstance(raw, list):
        raise JobError("catalog file must hold a list of entries")
    if not raw:
        # `verify --entry all` would pass having checked nothing
        raise JobError("catalog file holds no entries")
    out = []
    for item in raw:
        if not isinstance(item, dict):
            raise JobError(f"catalog entry must be an object, got {json.dumps(item)[:40]}")
        known_keys(item, ("name", "cartan", "mu"), "catalog entry")
        try:
            gcm = Gcm(item["cartan"])
            mu = validate_aut(gcm, item["mu"])
            name = item["name"]
        except (KeyError, TypeError) as exc:
            raise JobError(f"bad catalog entry: {exc}") from exc
        if not isinstance(name, str):
            raise JobError('catalog entry "name" must be a string')
        out.append(CatalogEntry(name, gcm, mu))
    seen = set()
    for e in out:
        if e.name in seen:
            # entries are looked up by name, so a repeated one would never run
            raise JobError(f"catalog names {e.name!r} more than once")
        seen.add(e.name)
    return out


def entry_by_name(name: str) -> CatalogEntry:
    for entry in load_entries():
        if entry.name == name:
            return entry
    raise JobError(f"no catalog entry named {name!r}")
