"""Model-file ingestion and serialization.

A model file is JSON with a 0/1 ``transition`` array and a ``potential``
table.  Word keys are 1-based digit strings ("12") for alphabets up to 9
symbols; larger alphabets use ``[[word array, value], ...]`` pairs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import families
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


def _parse_word_key(key) -> Word:
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
    n = len(rows) if isinstance(rows, list) else 0
    if n >= 2 and rows == [[1] * n] * n:
        base = families.full_shift(n)  # shared, and checked when first built
    else:
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
    if not isinstance(raw, (dict, list)):
        raise ModelFormatError("key 'potential.values' must be an object or a pair list")
    table = {}
    for k, entry in enumerate(raw.items() if isinstance(raw, dict) else raw):
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
            raise ModelFormatError(f"potential entry {k} is not a [word, value] pair")
        key, value = entry
        word = _parse_word_key(key)
        if word in table:
            raise ModelFormatError(f"potential word {key!r} is given twice")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        # the comparison is exact for ints, so float() below cannot overflow
        if not (number and abs(value) <= sys.float_info.max):
            raise ModelFormatError(f"potential value for {key!r} is not a finite number")
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
    pairs = zip(f.words, f.table.tolist())
    if f.base.n_symbols <= 9:
        values = {word_key(w): v for w, v in pairs}
    else:
        values = [[list(w), v] for w, v in pairs]
    model = {
        "transition": f.base.entries.astype(int).tolist(),
        "potential": {"order": f.order, "values": values},
    }
    if labels:
        model["labels"] = labels
    return model
