"""Every example script must parse, expose a main(), and import only
names that exist."""

import ast
import importlib
import os

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)

EXAMPLE_FILES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


class TestExamples:
    def test_expected_examples_present(self):
        assert "quickstart.py" in EXAMPLE_FILES
        assert "cassandra_profiling.py" in EXAMPLE_FILES
        assert "graphchi_pagerank.py" in EXAMPLE_FILES
        assert "lucene_indexing.py" in EXAMPLE_FILES
        assert len(EXAMPLE_FILES) >= 5

    @pytest.mark.parametrize("name", EXAMPLE_FILES)
    def test_parses_and_has_main(self, name):
        path = os.path.join(EXAMPLES_DIR, name)
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=name)
        functions = {
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions, name

    @pytest.mark.parametrize("name", EXAMPLE_FILES)
    def test_has_module_docstring(self, name):
        path = os.path.join(EXAMPLES_DIR, name)
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=name)
        assert ast.get_docstring(tree), name

    @pytest.mark.parametrize("name", EXAMPLE_FILES)
    def test_repro_imports_resolve(self, name):
        """A deleted public name must not break an example silently."""
        path = os.path.join(EXAMPLES_DIR, name)
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=name)
        missing = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    qualified = f"{node.module}.{alias.name}"
                    if hasattr(module, alias.name):
                        continue
                    try:  # ``from package import submodule``
                        importlib.import_module(qualified)
                    except ImportError:
                        missing.append(qualified)
        assert missing == [], f"{name} imports missing names: {missing}"
