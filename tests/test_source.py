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


def callers(trees: dict, name: str) -> set[str]:
    """module:function of each top-level function or class (module:<module> for top-level code)
    that calls ``name``, as a bare name or an attribute, itself or in a nested function."""
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                    found.add(f"{module}:{owner}")
    return found


def test_caller_check_sees_nested_attribute_and_top_level_calls():
    a = ast.parse("def plan():\n    def inner():\n        return build()\ndef other():\n    return build\nbuild()\n")
    b = ast.parse("from . import a\nclass Step:\n    x = a.build(1)\ndef use():\n    return rebuild()\n")
    assert callers({"a": a, "b": b}, "build") == {"a:plan", "a:<module>", "b:Step"}


def test_one_function_builds_the_schedule_and_the_compiled_step():
    # every step method counts and lowers through _compile_stages; only it and _stage_fractions read the schedule
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC_MODULES}
    assert callers(trees, "make_product_formula") == {"compilers:_stage_fractions", "compilers:_compile_stages"}
    assert callers(trees, "CompiledStep") == {"compilers:_compile_stages"}


README = Path(__file__).resolve().parents[1] / "README.md"


def library_list(readme: str) -> set[str]:
    """The dotted names that open the bullets of the README's "Library-only functions" section."""
    section = readme.partition("### Library-only functions\n")[2].split("\n#", 1)[0]
    return set(re.findall(r"^- `([\w.]+)`", section, re.M))


def unread_public_names(trees: dict, readme: str) -> list[str]:
    """module:name of each public function, class or method that no module reads and the
    README's library-only list does not name (as ``module.function`` or ``Class.method``).

    An ``__init__`` export reads nothing, and neither does any other README mention.
    A method is read only as an attribute (``x.name``) of something other than an
    imported module: neither a bare name, such as a parameter that shares the method's
    name, nor ``np.zeros`` reads ``CoeffMatrix.zeros``."""
    names, attributes, module_attributes = set(), set(), set()
    for tree in trees.values():
        modules = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names}
        modules |= {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for a in node.names if a.name in trees}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                on_module = isinstance(node.value, ast.Name) and node.value.id in modules
                (module_attributes if on_module else attributes).add(node.attr)
    listed = library_list(readme)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found = [(node.name, f"{module}.{node.name}", node.name, names | attributes | module_attributes)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{f.name}", f"{node.name}.{f.name}", f.name, attributes) for f in node.body
                          if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            unread += [f"{module}:{label}" for label, entry, name, read in found
                       if name not in read and entry not in listed]
    return unread


def test_unread_public_check_sees_reads_exports_and_readme():
    a = ast.parse(
        "def used():\n    pass\ndef exported():\n    pass\ndef documented():\n    pass\n"
        "def fenced():\n    pass\ndef listed():\n    pass\ndef dead():\n    pass\n"
        "class Box:\n    def area(self):\n        pass\n"
        "    def corners(self):\n        pass\n    def zeros(self):\n        pass\n    def _hidden(self):\n        pass\n"
    )
    b = ast.parse("import numpy as np\nfrom .a import Box, used\nused()\nBox().area()\nnp.zeros(3)\n")
    init = ast.parse("from .a import exported\n")
    readme = (
        "Call `documented(x)` for it; dead and corners are prose.\n```python\nfenced()\n```\n"
        "### Library-only functions\n\n- `a.listed` - kept by a test; `a.dead` is named only in passing.\n\n"
        "## Install\n\n- `a.documented` - a bullet after the list.\n"
    )
    trees = {"a": a, "b": b, "__init__": init}
    # an export, a README span or fence outside the list, and a module's attribute read nothing
    assert unread_public_names(trees, readme) == [
        "a:exported", "a:documented", "a:fenced", "a:dead", "a:Box.corners", "a:Box.zeros"]
    listed = readme.replace("- `a.listed`", "- `a.exported`\n- `a.documented`\n- `a.fenced`\n- `a.listed`")
    assert unread_public_names(trees, listed) == ["a:dead", "a:Box.corners", "a:Box.zeros"]
    listed = listed.replace("- `a.listed`", "- `a.dead`\n- `Box.corners`\n- `Box.zeros`\n- `a.listed`")
    assert unread_public_names(trees, listed) == []
    # a method read on an instance, or a function read on its module, still counts
    c = ast.parse("from . import a\na.dead()\nBox().zeros()\n")
    assert unread_public_names({**trees, "c": c}, readme) == [
        "a:exported", "a:documented", "a:fenced", "a:Box.corners"]


def test_unread_public_check_ignores_a_parameter_that_shadows_a_method():
    a = ast.parse("class Box:\n    def corners(self):\n        pass\n    def edges(self):\n        pass\n")
    b = ast.parse("from .a import Box\ndef _draw(corners, edges):\n    return Box, corners, edges.edges\n")
    trees = {"a": a, "b": b, "__init__": ast.parse("from .a import Box\n")}
    assert unread_public_names(trees, "") == ["a:Box.corners"]


def test_every_public_name_in_src_is_read_or_listed():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC_MODULES}
    assert unread_public_names(trees, README.read_text()) == []
