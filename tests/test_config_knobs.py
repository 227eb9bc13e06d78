"""Every knob has a caller: each field of a config dataclass in
``src/repro`` (a ``@dataclass`` named ``*Config``, ``*Params``,
``*Costs``, ``*Profile``, ``*Policy`` or ``*Spec``) is set by some call
in ``src``, ``tests``, ``examples`` or ``benchmarks``.

A field counts as set when a call to its class passes it by keyword or
by position, or a call to one of its class methods (``FleetConfig.smoke``)
passes it by keyword.  A call with ``**mapping`` also counts every string
that the same file uses as a dict key, a ``dict(...)`` keyword or a
subscript, so ``overrides["trigger"] = ...; FleetConfig(**overrides)``
sets ``trigger``.  A value that no caller sets is a module constant, not
a field.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parent.parent
CONFIG_NAME = re.compile(r"(Config|Params|Costs|Profile|Policy|Spec)$")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _string_keys(tree: ast.AST) -> Set[str]:
    """Strings a file may hand over through ``**``."""
    keys: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            candidates = node.keys
        elif isinstance(node, ast.Subscript):
            candidates = [node.slice]
        elif isinstance(node, ast.Call) and _callee(node) == "dict":
            keys.update(k.arg for k in node.keywords if k.arg)
            continue
        else:
            continue
        keys.update(k.value for k in candidates
                    if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return keys


def unset_fields(root: Path = ROOT) -> Dict[str, List[str]]:
    """``{class: [fields no caller sets]}`` for every config dataclass."""
    trees = {path: ast.parse(path.read_text())
             for tree in ("src", "tests", "examples", "benchmarks")
             for path in sorted((root / tree).rglob("*.py"))}
    fields: Dict[str, List[str]] = {}
    for path, tree in trees.items():
        if path.is_relative_to(root / "src" / "repro"):
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef) and CONFIG_NAME.search(node.name)
                        and _is_dataclass(node)):
                    fields[node.name] = [
                        s.target.id for s in node.body
                        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                        and "ClassVar" not in ast.unparse(s.annotation)]
    passed: Dict[str, Set[str]] = {name: set() for name in fields}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name, func = _callee(call), call.func
            if name in fields:
                passed[name].update(fields[name][:len(call.args)])
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in fields:
                name = func.value.id
            else:
                continue
            passed[name].update(k.arg for k in call.keywords if k.arg)
            if any(k.arg is None for k in call.keywords):
                passed[name].update(_string_keys(tree))
    return {name: [f for f in names if f not in passed[name]]
            for name, names in fields.items()}


def test_every_config_field_has_a_caller():
    unset = {name: names for name, names in unset_fields().items() if names}
    assert not unset, f"fields no caller sets (make them module constants): {unset}"


def test_the_audit_sees_an_unset_field(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "knobs.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass DemoConfig:\n    a: int = 1\n    b: int = 2\n    c: int = 3\n\n"
        "DemoConfig(5)\nDemoConfig(**{'c': 4})\n")
    assert unset_fields(tmp_path) == {"DemoConfig": ["b"]}
