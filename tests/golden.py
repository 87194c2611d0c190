"""Compare ``verify all --seed 0 --json`` output with the committed fixture.

Run as ``python tests/golden.py OUTPUT.json``: exits 1 and names the first
difference, or exits 0.  Ids, statuses, descriptors, strings, integers,
booleans and nulls must match exactly; floats within ``REL`` relative,
because BLAS kernels add in different orders on different CPUs.
"""

import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).parent / "data" / "verify_all_seed0.json"
REL = 1e-12


def first_difference(got, want, path: str = "$") -> str | None:
    """Where ``got`` first departs from ``want``, or None when they agree."""
    if isinstance(want, float) and type(got) is float:
        if abs(got - want) <= REL * abs(want):
            return None
        return f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        if list(got) != list(want):
            return f"{path}: keys {list(got)} != {list(want)}"
        pairs = ((f"{path}.{key}", got[key], want[key]) for key in want)
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        pairs = ((f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want)))
    else:
        return None if got == want else f"{path}: {got!r} != {want!r}"
    return next((d for p, g, w in pairs if (d := first_difference(g, w, p))), None)


def main(argv: list[str]) -> int:
    got = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    diff = first_difference(got, json.loads(FIXTURE.read_text(encoding="utf-8")))
    if diff is not None:
        print(f"verify output departs from {FIXTURE.name} at {diff}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
