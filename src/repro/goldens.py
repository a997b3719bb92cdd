"""Golden fingerprint files: load, compare, update.

Every exact-fingerprint file goes through here: the suite goldens at
the repo root (``PROTOCOLS_golden.json``, ``REBALANCE_golden.json``)
and the determinism goldens in ``tests/goldens/``.  A *sectioned*
golden maps entry names to fingerprints under one top-level key; a run
may cover a subset, so :func:`check` compares only what ran, an update
merges over what is pinned, and keys are written sorted.  A
*whole-file* golden is one fingerprint, written in its producer's field
order.  Mismatches name each differing leaf.  After an intentional
behaviour change, rerun with ``REPRO_UPDATE_GOLDENS=1`` to rewrite the
goldens instead of comparing; the suite commands take
``--update-golden``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

__all__ = ["ROOT", "load", "compare", "check", "update"]

#: Repository root: relative golden paths resolve against it.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _resolve(path) -> str:
    return os.path.join(ROOT, os.fspath(path))


def load(path) -> Optional[Dict[str, Any]]:
    """The parsed golden file, or None if it does not exist."""
    path = _resolve(path)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def compare(fresh: Any, pinned: Any, where: str = "") -> List[str]:
    """Mismatch strings, one per leaf where ``fresh`` differs."""
    if isinstance(fresh, dict) and isinstance(pinned, dict):
        failures: List[str] = []
        for key in sorted(set(fresh) | set(pinned), key=str):
            failures += compare(fresh.get(key), pinned.get(key),
                                f"{where}.{key}" if where else str(key))
        return failures
    if fresh == pinned:
        return []
    return [f"{where or 'fingerprint'} = {fresh!r}, golden {pinned!r}"]


def check(path, fresh: Dict[str, Any], section: Optional[str] = None,
          update_golden: Optional[bool] = None) -> List[str]:
    """Compare ``fresh`` against the golden at ``path`` (mismatches,
    empty if it matches); with ``update_golden`` (by default, with
    ``REPRO_UPDATE_GOLDENS`` set and not 0), write it instead."""
    if update_golden is None:
        update_golden = os.environ.get("REPRO_UPDATE_GOLDENS",
                                       "0") not in ("", "0")
    if update_golden:
        update(path, fresh, section)
        return []
    golden = load(path)
    if golden is None:
        return [f"no golden file at {_resolve(path)} "
                f"(run with --update-golden)"]
    if section is None:
        return compare(fresh, golden)
    pinned = golden.get(section, {})
    failures: List[str] = []
    for name, fingerprint in sorted(fresh.items()):
        if name not in pinned:
            failures.append(f"{name}: no golden entry")
            continue
        failures += [f"{name}: {failure}" for failure in
                     compare(fingerprint, pinned[name])]
    return failures


def update(path, fresh: Dict[str, Any],
           section: Optional[str] = None) -> None:
    """Write ``fresh`` as the golden; sectioned entries merge over
    those already pinned."""
    doc = fresh
    if section is not None:
        doc = load(path) or {}
        doc.setdefault(section, {}).update(fresh)
    path = _resolve(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=section is not None))
        fh.write("\n")
