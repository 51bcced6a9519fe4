"""The per-layer trace of perfbench/traced.py wraps functions by name, so a
renamed or removed function must fail here rather than break a traced run."""

import ast
import importlib
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _targets():
    # traced.py imports from its own directory, so its TARGETS list is read
    # from the source instead of importing the module.
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACED} defines no TARGETS list")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for owner_path, attribute, _ in targets:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"moduliflow.{module}")
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attribute, None)):
            missing.append(f"{owner_path}.{attribute}")
    assert missing == []
