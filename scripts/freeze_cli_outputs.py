"""Regenerate tests/fixtures/cli_outputs.json.

Runs eight small configs through the CLI entry point, one per task shape
(support on both families, a decay sweep over three families, speedup,
exponent, counting with the box oracle), plus a counting run at z = i
whose delta puts candidates exactly on the distance boundary and a decay
sweep over the benchmark's supercuspidal cases at p = 5 and 7, and records
the sha256 of every
file each run writes except the wall-clock `.timings.txt` sidecar.  The
Tier-1 test `test_cli_outputs_match_frozen_digests` replays the configs
stored with the digests.  Run once after any change meant to alter an
output, then review the diff before committing.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from test_cli import CLI_OUTPUTS, output_digests  # noqa: E402

CONFIGS = {
    "verify-support-ps-3-6": {
        "task": "verify-support", "p": 3, "n": 6, "family": "ps",
        "i_values": [4, 5, 6]},
    "verify-support-sc-ramified-3-5": {
        "task": "verify-support", "p": 3, "n": 5, "family": "sc-ramified"},
    "decay-sweep": {
        "task": "sweep", "configs": [
            {"task": "decay", "p": 3, "n": 6, "family": "ps"},
            {"task": "decay", "p": 3, "n": 6, "family": "sc-unramified"},
            {"task": "decay", "p": 3, "n": 5, "family": "sc-ramified"}]},
    "speedup-ps-3-6": {
        "task": "speedup", "p": 3, "n": 6, "family": "ps", "i_values": [4]},
    "exponent-a1-3": {"task": "exponent", "a1": 3},
    "counting-disc14": {
        "task": "counting", "algebra": "disc14", "plans": [{}, {"3": 1}],
        "L": 6, "delta": "7/6", "verify_box_max_norm": 3},
    "counting-disc6-boundary": {
        "task": "counting", "algebra": "disc6", "plans": [{}, {"5": 1}],
        "z": {"x": 0, "y": 1}, "L": 6, "delta": "1/2",
        "verify_box_max_norm": 6},
    "decay-sweep-sc-5-7": {
        "task": "sweep", "configs": [
            {"task": "decay", "p": 7, "n": 6, "family": "sc-unramified",
             "units_per_class": 4},
            {"task": "decay", "p": 5, "n": 6, "family": "sc-unramified",
             "units_per_class": 4},
            {"task": "decay", "p": 5, "n": 7, "family": "sc-ramified",
             "units_per_class": 4}]},
}


def main() -> None:
    t0 = time.perf_counter()
    frozen = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            frozen[name] = {"config": config,
                            "sha256": output_digests(config, Path(tmp) / name)}
    CLI_OUTPUTS.parent.mkdir(exist_ok=True)
    CLI_OUTPUTS.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"wrote {len(frozen)} configs to {CLI_OUTPUTS} "
          f"in {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
