"""Model-file ingestion and serialization.

A model file is JSON with a 0/1 ``transition`` array and a ``potential``
table.  Word keys are 1-based digit strings ("12") for alphabets up to 9
symbols; larger alphabets use ``[[word array, value], ...]`` pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import AperiodicityError, ModelFormatError
from .shiftspace import TransitionMatrix, Word
from .thermo import Potential


@dataclass(frozen=True)
class Model:
    base: TransitionMatrix
    potential: Potential
    labels: dict


def _is_integer(x) -> bool:
    """JSON integer; ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_word_key(key, n_symbols: int) -> Word:
    if isinstance(key, str):
        if not key.isdigit():
            raise ModelFormatError(f"potential key {key!r} is not a digit string")
        return tuple(int(c) for c in key)
    if isinstance(key, (list, tuple)):
        if not all(_is_integer(s) for s in key):
            raise ModelFormatError(f"potential key {key!r} must contain integers")
        return tuple(key)
    raise ModelFormatError(f"potential key {key!r} has unsupported type")


def word_key(w: Word) -> str:
    return "".join(str(s) for s in w)


def parse_model(source) -> Model:
    """Parse a model from a path, JSON string, or already-loaded dict."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                text = Path(source).read_text()
            except OSError as exc:
                raise ModelFormatError(f"cannot read model file {source!r}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError("model must be a JSON object")

    if "transition" not in data:
        raise ModelFormatError("missing key 'transition'")
    rows = data["transition"]
    if isinstance(rows, list) and any(
        isinstance(x, bool) for row in rows if isinstance(row, list) for x in row
    ):
        raise ModelFormatError("key 'transition': entries must be 0 or 1, not true/false")
    try:
        base = TransitionMatrix.from_entries(rows)
    except (AperiodicityError, ValueError, TypeError) as exc:
        raise ModelFormatError(f"key 'transition': {exc}") from exc

    if "potential" not in data:
        raise ModelFormatError("missing key 'potential'")
    pot = data["potential"]
    if not isinstance(pot, dict) or "order" not in pot or "values" not in pot:
        raise ModelFormatError("key 'potential' must be an object with 'order' and 'values'")
    order = pot["order"]
    if not _is_integer(order) or order < 1:
        raise ModelFormatError("key 'potential.order' must be a positive integer")

    raw = pot["values"]
    if isinstance(raw, dict):
        items = raw.items()
    elif isinstance(raw, list):
        items = ((k, v) for k, v in raw)
    else:
        raise ModelFormatError("key 'potential.values' must be an object or a pair list")
    table = {}
    for key, value in items:
        word = _parse_word_key(key, base.n_symbols)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelFormatError(f"potential value for {key!r} is not a number")
        table[word] = float(value)
    try:
        potential = Potential.from_table(base, order, table)
    except ValueError as exc:
        raise ModelFormatError(f"key 'potential.values': {exc}") from exc

    labels = data.get("labels", {})
    if not isinstance(labels, dict):
        raise ModelFormatError("key 'labels' must be an object")
    return Model(base, potential, labels)


def serialize_model(f: Potential, labels: dict | None = None) -> dict:
    """Model-file dict for a potential; re-parses to an identical model."""
    if f.base.n_symbols <= 9:
        values = {word_key(w): v for w, v in sorted(f.values.items())}
    else:
        values = [[list(w), v] for w, v in sorted(f.values.items())]
    model = {
        "transition": f.base.entries.astype(int).tolist(),
        "potential": {"order": f.order, "values": values},
    }
    if labels:
        model["labels"] = labels
    return model
