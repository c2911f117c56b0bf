import ast
import re
from pathlib import Path

import pytest

import trotterforge

MODULES = sorted(p for p in Path(trotterforge.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_check_sees_attribute_and_annotation_use():
    source = "import os\nimport math\nfrom typing import Sequence\ndef f(x: Sequence) -> None:\n    os.sep\n"
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


SRC_MODULES = sorted(Path(trotterforge.__file__).parent.glob("*.py"))


def unread_private_names(trees: dict) -> list[str]:
    """module:name of each module-level _private function, class or constant no module reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            unread += [f"{module}:{name}" for name in names if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return unread


def test_unread_private_check_sees_reads_across_modules():
    a = ast.parse("_USED = 1\n_UNUSED = 2\ndef _dead():\n    pass\ndef _called():\n    return _USED\n")
    b = ast.parse("from .a import _called\n_called()\n")
    assert unread_private_names({"a": a, "b": b}) == ["a:_UNUSED", "a:_dead"]


def test_every_private_helper_in_src_is_read():
    assert unread_private_names({p.stem: ast.parse(p.read_text()) for p in SRC_MODULES}) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def unread_public_names(trees: dict, readme: str) -> list[str]:
    """module:name of each public function, class or method that no module reads,
    ``__init__`` does not import and the README names in no inline code span and no
    python or sh fence (json, csv and plain output blocks name nothing).

    A method is read only as an attribute (``x.name``): a bare name, such as a
    parameter that shares the method's name, reads a function or class only."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    exported = {a.asname or a.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    blocks = re.findall(r"```(\w*)\n(.*?)```|`([^`\n]+)`", readme, re.S)
    spans = [fence + inline for lang, fence, inline in blocks if inline or lang in ("python", "sh")]
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found = [(node.name, node.name, names | attributes)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{f.name}", f.name, attributes) for f in node.body
                          if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            unread += [f"{module}:{label}" for label, name, read in found
                       if name not in read | exported | named]
    return unread


def test_unread_public_check_sees_reads_exports_and_readme():
    a = ast.parse(
        "def used():\n    pass\ndef exported():\n    pass\ndef documented():\n    pass\n"
        "def fenced():\n    pass\ndef dead():\n    pass\nclass Box:\n    def area(self):\n        pass\n"
        "    def corners(self):\n        pass\n    def _hidden(self):\n        pass\n"
    )
    b = ast.parse("from .a import Box, used\nused()\nBox().area()\n")
    init = ast.parse("from .a import exported\n")
    readme = "Call `documented(x)` for it; dead and corners are prose.\n```python\nfenced()\n```\n"
    trees = {"a": a, "b": b, "__init__": init}
    assert unread_public_names(trees, readme) == ["a:dead", "a:Box.corners"]
    assert unread_public_names(trees, readme + "`Box.corners`, `dead`") == []
    output = '```json\n{"dead": 1}\n```\n```csv\ndead,corners\n```\n```\ncorners\n```\n'
    assert unread_public_names(trees, readme + output) == ["a:dead", "a:Box.corners"]
    assert unread_public_names(trees, readme + output + "```sh\ndead --corners\n```\n") == []


def test_unread_public_check_ignores_a_parameter_that_shadows_a_method():
    a = ast.parse("class Box:\n    def corners(self):\n        pass\n    def edges(self):\n        pass\n")
    b = ast.parse("from .a import Box\ndef _draw(corners, edges):\n    return corners, edges.edges\n")
    trees = {"a": a, "b": b, "__init__": ast.parse("from .a import Box\n")}
    assert unread_public_names(trees, "") == ["a:Box.corners"]


def test_every_public_name_in_src_is_read_exported_or_documented():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC_MODULES}
    assert unread_public_names(trees, README.read_text()) == []
