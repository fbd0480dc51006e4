"""Layout rules that every Python file of the package, its tests and its demos keeps."""

import ast
import glob
import os
import re

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


def test_one_block_rule():
    # every per-slot and per-sample pass takes channel._blocks: outside
    # channel.py no module names a block or chunk of its own, at module level
    # or as a helper, nor steps a range by one, save the two steps below
    own_steps = {"state_grid.py": {"_CHUNK"}, "simulator.py": {"_SCAN_BLOCK"}}
    paths = glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
    assert any(path.endswith(os.path.join("beamfeedback", "channel.py")) for path in paths)
    found = []
    for path in sorted(paths):
        module = os.path.basename(path)
        if module == "channel.py":
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        allowed = own_steps.get(module, set())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            found += [f"{module}: {name}" for name in names
                      if re.search("block|chunk", name, re.I) and name not in allowed]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "range" and len(node.args) == 3):
                step = node.args[2]
                if ast.unparse(step) != "-1" and not (
                        isinstance(step, ast.Name) and step.id in allowed):
                    found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert not found, f"blocks outside channel.py: {found}"


def test_one_error_per_exit_code():
    # exit codes 1, 2 and 3 each have one exception class, and no module
    # under src defines another, at any depth
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        found += [f"{os.path.basename(path)}: {node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and any(
                      re.search("(Error|Exception)$", ast.unparse(base)) for base in node.bases)]
    assert sorted(found) == ["cli.py: ConfigError", "cli.py: UsageError",
                             "mdp.py: NumericalError"]


def test_one_writer_of_file_formats():
    # cli renders every output file: no other module under src imports json
    # or csv, defines a *_to_json or *_to_csv function, or names a CSV_* constant
    paths = glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
    assert any(path.endswith(os.path.join("beamfeedback", "cli.py")) for path in paths)
    found = []
    for path in sorted(paths):
        module = os.path.basename(path)
        if module == "cli.py":
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            found += [f"{module}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in ("json", "csv")
                      or re.search("_to_(json|csv)$", name) or name.startswith("CSV_")]
    assert not found, f"file formats outside cli.py: {found}"
