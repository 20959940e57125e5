#!/usr/bin/env python3
"""Regenerate census_oracle.json: root and class counts of the census
jobs, by the nested-loop oracle in workloads.py.  The seed only permutes
and re-signs the basis of the lattice without blocks, which keeps its
counts, so one entry serves every seed.

Run from the repository root:

    python3 perfbench/make_oracle.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from orthlat.lattice import build  # noqa: E402
from workloads import Census, hidden_block_gram, nested_loop_census  # noqa: E402


def main():
    oracle = {}
    for spec, box in Census.JOBS:
        oracle[f"{spec} box {box}"] = nested_loop_census(build(spec).gram.int_rows(), box)
    base, box, steps = Census.HIDDEN
    oracle[Census.hidden_label()] = nested_loop_census(hidden_block_gram(base, steps), box)
    for label, counts in oracle.items():
        print(label, counts)
    (HERE / "census_oracle.json").write_text(json.dumps(oracle, indent=2) + "\n")


if __name__ == "__main__":
    main()
