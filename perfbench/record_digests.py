"""Record the exchange-medlit answer digests that the benchmark checks.

Run from the repository root::

    python3 perfbench/record_digests.py 10000 0-31 1009
    python3 perfbench/record_digests.py 300 0-31

Each argument after the node count is a seed or an inclusive seed range.
The digests of the five answer sets land in ``perfbench/digests.json``
under ``medlit-n<nodes>``; a run of exchange-medlit with a recorded seed
fails when its answers differ.  Re-record only when a change of answers
is intended, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(specs: list[str]) -> list[int]:
    found: list[int] = []
    for spec in specs:
        low, _, high = spec.partition("-")
        found.extend(range(int(low), int(high or low) + 1))
    return found


def main(argv: list[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The same interpreter settings as a benchmark run.
        env = {**os.environ, "PYTHONHASHSEED": "0",
               "PYTHONPATH": str(HERE.parent / "src")}
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    from exchange import DIGESTS, FAMILY, answer_digests

    nodes = int(argv[0])
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    entry = table.setdefault(f"{FAMILY}-n{nodes}", {})
    for seed in seeds(argv[1:]):
        entry[str(seed)] = answer_digests(seed, nodes)
        print(seed, entry[str(seed)], flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
