"""Write bench/references.json: digests of the data outputs the benchmark
checks (D1 matrix JSON for n <= 28, `poupard gf` dumps at cap 16, the first
20 tangent numbers), computed by the program in this checkout.

    python3 bench/record_references.py

Run it only when an output is meant to change; the references pin the
outputs the benchmark's passes must reproduce.
"""

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from poupard.triangle import tangent_numbers  # noqa: E402
from worker import collect_outputs  # noqa: E402

if __name__ == "__main__":
    digests, _oracle = collect_outputs(
        {"matrices": 28, "gf": 16}, random.Random(0), tangent_numbers(20)
    )
    (BENCH / "references.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests")
