import ast
import pathlib

import fusionkit


def test_all_matches_public_imports():
    tree = ast.parse(pathlib.Path(fusionkit.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(fusionkit.__all__) == len(set(fusionkit.__all__))
    assert set(fusionkit.__all__) == public
    for name in fusionkit.__all__:
        assert getattr(fusionkit, name, None) is not None, name
