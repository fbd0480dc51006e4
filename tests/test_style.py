"""Layout rules that every Python file of the package, its tests and its demos keeps."""

import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_COLUMNS = 99


def test_every_line_fits_in_99_columns():
    paths = sorted(path for directory in ("src", "tests", "demos") for path in
                   glob.glob(os.path.join(ROOT, directory, "**", "*.py"), recursive=True))
    assert paths
    wide = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            wide += [f"{os.path.relpath(path, ROOT)}:{number}"
                     for number, line in enumerate(handle, 1)
                     if len(line.rstrip("\n")) > MAX_COLUMNS]
    assert not wide, f"lines over {MAX_COLUMNS} columns: {wide}"
