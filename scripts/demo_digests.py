"""sha256 digests of every demo output, for comparing two checkouts byte for byte.

Runs the six config subcommands on every ``demos/configs/*.json``, each with a
report, CSV and OBJ output, plus ``gallery list``, through ``spaceform_lab.cli.run``
in a temporary directory.  Prints one line per run (exit code and the sha256 of
its standard output and standard error) and one per file it wrote.

    python scripts/demo_digests.py                    # this checkout
    python scripts/demo_digests.py --root OTHER_DIR   # another checkout's src/ and demos/
    python scripts/demo_digests.py --against OTHER_DIR

``--against`` runs both checkouts (``--root`` and OTHER_DIR), each in its own
process, prints only the lines that differ (``-`` for OTHER_DIR, ``+`` for
``--root``) and exits 1 if any differ, so it shows directly whether demo
outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("verify-triple", "integrate-frame", "ribaucour", "pair-check", "cflat-check",
            "export")
OUTPUTS = {"report": "report.json", "csv": "out.csv", "obj": "out.obj"}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_captured(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def digest_lines(root: Path) -> list:
    """This script's output for ``root``, from a process of its own."""
    out = subprocess.run([sys.executable, __file__, "--root", str(root)],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def compare(other: Path, root: Path) -> int:
    diff = [line for line in difflib.unified_diff(digest_lines(other), digest_lines(root),
                                                 lineterm="", n=0)
            if line.startswith(("-", "+")) and not line.startswith(("---", "+++"))]
    for line in diff:
        print(line)
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and demos/configs/ are used")
    parser.add_argument("--against", metavar="OTHER_DIR",
                        help="print only the lines that differ from OTHER_DIR's")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if args.against:
        return compare(Path(args.against).resolve(), root)
    sys.path.insert(0, str(root / "src"))
    from spaceform_lab.cli import run

    configs = sorted((root / "demos" / "configs").glob("*.json"))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for config in configs:
                doc = json.loads(config.read_text())
                doc["outputs"] = dict(OUTPUTS)
                for cmd in COMMANDS:
                    work = Path(tmp) / config.stem / cmd
                    work.mkdir(parents=True)
                    os.chdir(work)
                    Path("config.json").write_text(json.dumps(doc))
                    code, out, err = run_captured(run, [cmd, "--config", "config.json"])
                    print(f"{config.name} {cmd} exit={code} stdout={sha(out)} "
                          f"stderr={sha(err)}")
                    for name in OUTPUTS.values():
                        if Path(name).exists():
                            print(f"{config.name} {cmd} {name} {sha(Path(name).read_bytes())}")
            code, out, err = run_captured(run, ["gallery", "list"])
            print(f"gallery list exit={code} stdout={sha(out)} stderr={sha(err)}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
