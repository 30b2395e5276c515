"""What a CLI user pays before numerical work: imports and config resolution.

Run in a fresh interpreter, timed from outside:

    python3 bench/setup_probe.py CONFIG

Prints the path vortexlab was imported from.
"""

import json
import sys
from pathlib import Path

import scipy.fft  # noqa: F401  (the transforms every solve loads)
import vortexlab
import vortexlab.cli


def main() -> int:
    raw = json.loads(Path(sys.argv[1]).read_text())
    resolved = vortexlab.cli.resolve_config(raw, "solve")
    if resolved["grid"] != raw["grid"]:
        print("resolve_config changed the grid", file=sys.stderr)
        return 1
    print(vortexlab.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
