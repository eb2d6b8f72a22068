"""The CLI's exit-code contract on seeded random valid models.

Draws ``--requests K`` valid models at one ``--seed``: model i has 2-4
symbols on a random aperiodic support, order 1-3, and values uniform in
``[-s, s]``, its scale s taken in turn from SCALES.  Each model is run
through every request of REQUESTS by ``markovspectra.cli.main``, as JSON
text, with stdout and stderr captured and every warning recorded:

    python3 tools/robustness.py --seed 0 --requests 120

It prints a table of exit codes by request (rows) and scale (columns),
each cell counting its codes as ``code:count``, then each error type (a
message up to its first colon, numbers masked) with its count and its first
message.
A ``!`` cell counts exceptions that escaped ``cli.main``, a ``w`` cell
requests that warned.  Its last line counts the contract's breaches.  It
exits 1 when an exception escapes ``cli.main``, when an exit code is not
one of ALLOWED (a valid model never exits 2) or when any warning is
emitted, and 0 otherwise.  Model i depends only on the seed and on i.

The package is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from markovspectra import TransitionMatrix, admissible_words, check_aperiodic, cli, word_key  # noqa: E402

SCALES = (0.1, 1.0, 5.0, 20.0, 60.0, 300.0)
# "compare" is run as compare X X
REQUESTS = (
    ("pressure",),
    ("pressure", "--oracle-depth", "5"),
    ("spectrum",),
    ("spectrum", "--qmin=1e308", "--qmax=1e308"),
    ("compare",),
    ("classify",),
    ("gibbs-audit", "--depth", "4"),
    ("sample", "--n", "20", "--trials", "100"),
)
ALLOWED = (0, 3, 4, 5)
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def draw_model(seed: int, i: int) -> str:
    """Model i at this seed, as JSON text, with values at scale SCALES[i % 6]."""
    rng = np.random.default_rng((seed, i))
    n = int(rng.integers(2, 5))
    density = rng.uniform(0.2, 0.9)
    while not check_aperiodic(support := (rng.random((n, n)) < density).astype(int)).accepted:
        pass
    base = TransitionMatrix.from_entries(support)
    order = int(rng.integers(1, 4))
    s = SCALES[i % len(SCALES)]
    values = {word_key(w): rng.uniform(-s, s) for w in admissible_words(base, order)}
    return json.dumps({"transition": support.tolist(), "potential": {"order": order, "values": values}})


def run(model: str, request: tuple[str, ...]) -> tuple[str, str | None, list[str]]:
    """The outcome of one request (its exit code, or ``!`` when an
    exception escapes), its error message (None on exit 0) and the
    warnings it emitted."""
    command, *flags = request
    argv = [command, model] + [model] * (command == "compare") + flags
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
                outcome, message = str(code), err.getvalue().strip() or None
            except (Exception, SystemExit) as exc:  # argparse's exit included
                outcome, message = "!", f"{type(exc).__name__}: {exc}"
    found = [f"{w.category.__name__} ({Path(w.filename).name} line {w.lineno}): {w.message}" for w in caught]
    return outcome, message, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=120, help="number of models drawn")
    args = parser.parse_args(argv)

    cells = defaultdict(Counter)  # (request, scale) -> Counter of outcomes
    types = {}  # masked message -> [count, outcome, first message]
    breaches = 0
    for i in range(args.requests):
        model, scale = draw_model(args.seed, i), SCALES[i % len(SCALES)]
        for request in REQUESTS:
            outcome, message, found = run(model, request)
            cells[request, scale][outcome] += 1
            cells[request, scale]["w"] += bool(found)
            breaches += outcome not in map(str, ALLOWED) or bool(found)
            errors = [(message, outcome)] if message is not None else []
            for text, kind in errors + [(w, "w") for w in found]:
                # a message's type: its text up to the first colon, numbers masked
                entry = types.setdefault(NUMBER.sub("#", text.removeprefix("error: ").split(":")[0]), [0, kind, text])
                entry[0] += 1

    label = {request: " ".join(request).replace("compare", "compare X X") for request in REQUESTS}
    width = max(map(len, label.values()))
    print(f"exit codes by request and scale, seed {args.seed}, {args.requests} models")
    print((" " * width + "".join(f"  s={s:<12g}" for s in SCALES)).rstrip())
    for request in REQUESTS:
        row = []
        for s in SCALES:
            counts = cells[request, s]
            row.append(" ".join(f"{k}:{v}" for k, v in sorted(counts.items()) if v))
        print((label[request].ljust(width) + "".join(f"  {cell:<14}" for cell in row)).rstrip())
    print("error types: count, outcome, first message")
    for count, kind, text in sorted(types.values(), key=lambda entry: (-entry[0], entry[2])):
        print(f"{count:6d}  {kind:>2}  {text}")
    print(f"{breaches} of {args.requests * len(REQUESTS)} requests escaped, exited outside {ALLOWED} or warned")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
