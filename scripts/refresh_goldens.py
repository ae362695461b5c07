"""Regenerate the golden CLI reports under tests/golden/.

Run from the repository root after an intentional schema or pipeline
change, then review the diff before committing.  Each golden problem gets
its JSON report (<stem>.json) and its text summary (<stem>.txt); the test
suite compares fresh runs byte for byte against both.
"""

import contextlib
import io
from pathlib import Path

from kovex.cli import main as kovex_main

GOLDEN = ("weierstrass", "cubic_pair", "painleve1_coupled_4d")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    out_dir = root / "tests" / "golden"
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem in GOLDEN:
        problem = root / "problems" / f"{stem}.kov"
        target = out_dir / f"{stem}.json"
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = kovex_main(["analyze", str(problem), "--json", str(target)])
        if code not in (0, 2):
            print(f"{problem.name}: unexpected exit {code}")
            return 1
        (out_dir / f"{stem}.txt").write_text(text.getvalue(), encoding="utf-8")
        print(f"wrote {target} and {stem}.txt")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
