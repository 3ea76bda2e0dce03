"""Set-up probe, run in a fresh interpreter by run.py.

Reads a one-step config document as JSON on stdin and prints the seconds from
just before `import plmpc` to the end of the first control step: the import,
`config.from_document`, and one step of `plant.run_closed_loop`.

usage: python3 bench/setup_child.py <path to the src directory> < doc.json
"""

import json
import sys
import time


def main() -> int:
    src = sys.argv[1]
    doc = json.load(sys.stdin)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import plmpc
    from plmpc import config, plant

    log = plant.run_closed_loop(config.from_document(doc))
    elapsed = time.perf_counter() - t0
    if not plmpc.__file__.startswith(src) or log.steps != 1:
        print(f"error: imported {plmpc.__file__}, ran {log.steps} steps", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
