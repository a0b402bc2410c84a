"""Rules every module under ``src/helly`` keeps."""

import ast
import inspect
import pathlib
import subprocess
import sys
import textwrap

import helly

PACKAGE = pathlib.Path(helly.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert, so none may guard exactness or an invariant
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_oracles_stay_independent_of_the_kernel():
    # helly.oracles re-checks what the integer kernel found, so it borrows
    # neither the kernel's elimination (helly.exactq), nor the integers a
    # Disk or an Equation keeps of itself, nor the kernel's side test and
    # corner formula, which pair_relation hands out as a relation's corners:
    # it scales from x, y, r and coeffs, rhs itself
    kernel_names = {"in_disk", "_lens_corners"}
    kernel_attrs = {"X", "Y", "R", "M", "row", "den", "corners", *kernel_names}
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "oracles.py").read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = {a.name for a in node.names}
            if "exactq" in {n.split(".")[-1] for n in names | {module}}:
                found.append(f"line {node.lineno}: imports exactq")
            if module.split(".")[-1] == "disks" and names & kernel_names:
                found.append(f"line {node.lineno}: imports {sorted(names & kernel_names)}")
        elif isinstance(node, ast.Attribute) and node.attr in kernel_attrs:
            found.append(f"line {node.lineno}: reads .{node.attr}")
    assert found == []


def test_the_witness_recheck_stays_independent_of_the_solver():
    # helly_certify re-checks each witness with witness_satisfies, so it
    # scales rows itself and borrows nothing of the elimination, neither
    # directly nor through a helper of helly.linear that it calls
    solver_names = {"integer_row", "_integer_rows", "echelon", "bareiss_update"}
    tree = ast.parse((PACKAGE / "linear.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, found = ["witness_satisfies"], set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            used = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if used in solver_names:
                found.append(f"{name} line {node.lineno}: uses {used}")
            elif used in functions:
                todo.append(used)
    assert seen >= {"witness_satisfies", "_scaled"}
    assert found == []


def test_no_fraction_in_the_decision_paths():
    # the kernels, the disk walk and clip, the sign tests and the
    # separation query's candidates run in integers; Fraction (or its
    # alias Rat) is for the views and the output at the edges
    decisions = {
        "exactq.py": {"echelon", "bareiss_update", "reduced_echelon"},
        "linear.py": {"_scan_sets", "_first_minimum_inconsistent"},
        "disks.py": {"pair_relation", "_clip", "_walk", "_step", "triple_meet"},
        "radicals.py": {"sign_one", "sign_quartic", "_cmp", "_turn"},
        "separation.py": {"_foot", "_corner", "closest_pair"},
    }
    found, seen = [], set()
    for module, names in decisions.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                seen.add((module, fn.name))
                for node in ast.walk(fn):
                    used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                    if used in {"Fraction", "Rat"}:
                        found.append(f"{module} {fn.name} line {node.lineno}: uses {used}")
    assert seen == {(module, name) for module, names in decisions.items() for name in names}
    assert found == []


def test_no_exported_function_only_passes_through():
    # an exported function whose body, after its docstring, only returns
    # another exported name called with its own parameters unchanged is a
    # second name for that one
    found = []
    for name in helly.__all__:
        obj = getattr(helly, name)
        if not inspect.isfunction(obj):
            continue
        fn = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
            continue
        call = body[0].value
        params = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)]
        # (value, keyword) per argument; a keyword one passes through as x=x
        args = [(a, None) for a in call.args] + [(kw.value, kw.arg) for kw in call.keywords]
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in helly.__all__
            and all(isinstance(v, ast.Name) and kw in (None, v.id) for v, kw in args)
            and sorted(v.id for v, _ in args) == sorted(params)
        ):
            found.append(f"{name} passes through to {call.func.id}")
    assert found == []


def test_no_generated_code():
    # records are built by helly.records without generated source: no
    # module imports dataclasses or runs text as code
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {(node.module or "").split(".")[0]}
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                modules = {node.func.id} & {"exec", "eval"}
            else:
                continue
            if modules & {"dataclasses", "exec", "eval"}:
                found.add(path.name)
    assert sorted(found) == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh process without site packages, so only helly's own imports count
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import helly.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
