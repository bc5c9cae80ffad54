"""Record the pinned outputs of every workload in ``pins.json``.

Run from the repository root, only when the program's outputs are meant
to change::

    python3 perfbench/pin.py [WORKLOAD ...]

Named workloads are pinned afresh and the others keep their pins; with
no names, every workload is. Each seed runs one pass of each workload at full scale, checked against
its reference run first; the run's checks then compare against these
values whenever it meets a pinned seed.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The default and held-out seeds, plus the small seeds runs tend to use.
SEEDS = sorted({*range(0, 21), 1, 9001})


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, PINS_PATH, WORKLOADS

    assert DEFAULT_SEED in SEEDS and HELD_OUT_SEED in SEEDS
    names = sys.argv[1:] or list(WORKLOADS)
    workdir = ROOT / ".perfbench_work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pins: dict = json.loads(PINS_PATH.read_text()) if sys.argv[1:] else {}
    try:
        for name in names:
            cls = WORKLOADS[name]
            for seed in SEEDS:
                workload = cls(seed, "full", workdir)
                workload.setup()
                workload.prepare_inputs()
                passes = [workload.run_pass("plain")
                          for _ in range(workload.inputs)]
                problems = workload.check(passes, pins=False)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = workload.pins_for(
                    {p.output.get("input", 0): p.output for p in passes})
                print(f"{name} seed {seed}: {pins[name][str(seed)]}",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
