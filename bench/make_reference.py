"""Rewrite reference.json: the stored answers of the default seeds.

    PYTHONPATH=src python3 bench/make_reference.py

For every workload and default seed it stores, per pool scenario, a digest
of the solve answer (decode sequences and exact min rate) or ``refused``.
The benchmark compares each answer it sees with these.  Rewrite the file
only in a change that alters answers on purpose, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import workloads as W
from fairsic import NonRankInputError, RankFunctionSet, greedy_profile, load_scenario

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEEDS = range(10)


def answers(workload: str, seed: int, work: Path) -> list[str]:
    digests = []
    for item in W.write_pool(workload, seed, False, work):
        ranks = RankFunctionSet.for_channel(load_scenario(item["path"]))
        try:
            digests.append(W.report_digest(greedy_profile(ranks)))
        except NonRankInputError:
            digests.append("refused")
        if (digests[-1] == "refused") != item["perturbed"]:
            raise SystemExit(f"{workload} seed {seed} scenario {item['index']}: "
                             f"refusal does not match the perturbation")
    return digests


def main() -> None:
    work = BENCH_DIR.parent / ".bench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reference = {
            "seeds": list(DEFAULT_SEEDS),
            "workloads": {
                workload: {str(seed): answers(workload, seed, work) for seed in DEFAULT_SEEDS}
                for workload in W.SPECS
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
