import ast
import importlib
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import fusionkit
from fusionkit import (
    FusionContext,
    LatticePath,
    SignedTerm,
    count_paths,
    enumerate_paths,
    fusion_rule,
    fusion_tableaux,
    gepner_witten,
    is_restricted,
    lr_lattice,
    lr_paths,
    omega_terms,
    quotient,
    rank_level_dual,
)
from fusionkit.paths import _trusted_path


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


def test_public_entry_points_normalize_and_validate():
    # internal helpers take normalized tuples; the public names still accept
    # trailing zeros and reject a sequence that is not a partition
    ctx = FusionContext(3, 2)
    assert is_restricted((2, 1, 0), ctx) == is_restricted((2, 1), ctx) is True
    padded_paths = enumerate_paths((1, 0), (2, 1, 0), (1, 1))
    assert padded_paths == enumerate_paths((1,), (2, 1), (1, 1))
    assert len(padded_paths) == 2
    assert all(p.base == (1,) and p.target == (2, 1) for p in padded_paths)
    for route in (fusion_rule, fusion_tableaux):
        assert route((1, 0), (2, 1, 0), (2, 2, 0), ctx) == route((1,), (2, 1), (2, 2), ctx) == 1
    padded_path = LatticePath((1, 0), ((1, 2),), (1,))
    assert padded_path.base == (1,) and padded_path.target == (2,)
    with pytest.raises(ValueError):
        is_restricted((1, 2), ctx)
    with pytest.raises(ValueError):
        enumerate_paths((1, 2), (2, 2), (1,))
    for route in (fusion_rule, fusion_tableaux):
        with pytest.raises(ValueError):
            route((1,), (1, 2), (2, 2), ctx)
    with pytest.raises(ValueError):
        LatticePath((1, 2), (), ())
    # each entry point with its arguments, once as given and once padded with zeros
    calls = [
        (quotient, [(3, 2, 1)], (ctx,)),
        (rank_level_dual, [(2, 1)], (ctx,)),
        (lr_paths, [(2, 1), (2, 1), (3, 2, 1)], ()),
        (lr_lattice, [(2, 1), (2, 1), (3, 2, 1)], ()),
        (count_paths, [(1,), (2, 1)], ()),
        (count_paths, [(1,), (2, 1)], (ctx,)),
        (lambda *a: list(omega_terms(*a)), [(1,), (1, 1), (2, 1)], ()),
        (lambda *a: list(omega_terms(*a)), [(1,), (1, 1), (2, 1)], (ctx,)),
        (gepner_witten, [(1,), (1,), (1, 1)], (1,)),
    ]
    for fn, shapes, rest in calls:
        result = fn(*shapes, *rest)
        assert result, fn  # a nonzero answer, so that padding could change it
        assert fn(*(s + (0, 0) for s in shapes), *rest) == result, fn
        for i in range(len(shapes)):
            with pytest.raises(ValueError):
                fn(*shapes[:i], (1, 2), *shapes[i + 1 :], *rest)
    with pytest.raises(ValueError, match="more than 3 parts"):
        quotient((1, 1, 1, 1), ctx)
    with pytest.raises(ValueError, match="more than two rows"):
        gepner_witten((1, 1, 1), (1,), (2, 1, 1), 3)


def test_value_types_are_validating_named_tuples():
    # the pool pickles contexts, paths and terms; each type validates in __new__,
    # prints as its fields by name, unpacks, and equals the plain tuple of its fields
    path = LatticePath((1, 0), ((1, 2), (2, 1)), (1, 1))
    for value in (FusionContext(3, 2), path, SignedTerm((2, 1), path)):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
    with pytest.raises(ValueError):
        FusionContext(0, 1)
    with pytest.raises(ValueError):
        LatticePath((), ((1, 1), (1, 2)), (1,))  # the ascents miss a step
    trusted = _trusted_path((1,), ((1, 2), (2, 1)), (1, 1))
    assert trusted == path and type(trusted) is LatticePath and trusted.target == (2, 1)
    assert repr(FusionContext(3, 2)) == "FusionContext(n=3, k=2)"
    n, k = FusionContext(2, 3)
    assert (n, k) == FusionContext(2, 3) == (2, 3)
    assert tuple(path) == (path.base, path.steps, path.ascents) == ((1,), ((1, 2), (2, 1)), (1, 1))


def test_importing_cli_and_verify_loads_no_costly_module():
    # a one-shot query pays for each module that importing fusionkit.cli loads; the
    # child compares with the modules its bare interpreter had, which site may preload
    src = pathlib.Path(fusionkit.__file__).parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "bare = set(sys.modules)\n"
        "import fusionkit.cli\n"
        "cli = set(sys.modules) - bare\n"
        "import fusionkit.verify\n"
        "print(' '.join(sorted(cli)))\n"
        "print(' '.join(sorted(set(sys.modules) - bare - cli)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    cli_loads, verify_loads = (set(line.split()) for line in out.splitlines())
    assert "fusionkit.cli" in cli_loads and "fusionkit.verify" in verify_loads
    costly = {"dataclasses", "inspect", "json", "concurrent.futures"}
    assert not costly & cli_loads, sorted(costly & cli_loads)
    assert not costly & verify_loads, sorted(costly & verify_loads)


def test_shapes_are_validated_once():
    # the rule of fusionkit.partitions: a shape that normalize returned goes on to the
    # private cores, never back to normalize or to a public partitions function that
    # normalizes it again; and a private function, which holds normalized shapes, never
    # calls conjugate
    package = pathlib.Path(fusionkit.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}

    def is_call(node, name):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name

    def calls(tree, name):
        return [n for n in ast.walk(tree) if is_call(n, name)]

    wrappers = {"normalize"} | {
        node.name
        for node in trees["partitions"].body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and calls(node, "normalize")
    }
    assert {"conjugate", "is_restricted", "is_edge", "is_border", "format_partition"} <= wrappers
    offences = set()
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = {}  # name -> last line of its first binding from normalize(...)
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = [(target, node.value)]
                        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                            pairs = zip(target.elts, node.value.elts)
                        for t, v in pairs:
                            if isinstance(t, ast.Name) and is_call(v, "normalize"):
                                bound[t.id] = min(bound.get(t.id, node.end_lineno), node.end_lineno)
            for wrapper in sorted(wrappers):
                for call in calls(fn, wrapper):
                    for arg in call.args:
                        if isinstance(arg, ast.Name) and call.lineno > bound.get(arg.id, call.lineno):
                            offences.add(f"{module}.{fn.name} passes {arg.id} to {wrapper}")
            if fn.name.startswith("_") and calls(fn, "conjugate"):
                offences.add(f"{module}.{fn.name} is private and calls conjugate")
            # the validating constructor is for a path read from labels; a builder
            # that holds a normalized base and covering blocks uses _trusted_path
            if calls(fn, "LatticePath") and fn.name != "path_from_label_blocks":
                offences.add(f"{module}.{fn.name} builds a path through LatticePath")
    assert not offences, sorted(offences)


def test_only_a_record_counts_a_check():
    # CheckResult.checked counts the cases a check recorded, so each could have
    # failed; a sweep that wrote a count itself would report cases it never tested
    package = pathlib.Path(fusionkit.__file__).parent
    offences = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "CheckResult"
            for method in cls.body
            if isinstance(method, ast.FunctionDef)
            for node in ast.walk(method)
        }
        for node in ast.walk(tree):
            writes = (
                isinstance(node, ast.Attribute)
                and node.attr == "checked"
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and any(isinstance(a, ast.Constant) and a.value == "checked" for a in node.args)
            )
            if writes and id(node) not in own:
                offences.append(f"{path.name}:{node.lineno}")
    assert not offences, f"only CheckResult's methods may set checked: {offences}"


def test_module_caches_are_bounded():
    # no module-level cache may grow without bound
    modules = [
        importlib.import_module(f"fusionkit.{info.name}")
        for info in pkgutil.iter_modules(fusionkit.__path__)
    ]
    caches = {
        f"{module.__name__}.{name}": obj.cache_info()
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }
    assert {
        "fusionkit.paths.enumerate_paths",
        "fusionkit.paths._strips",
        "fusionkit.paths._strip_successors",
        "fusionkit.partitions._perm_sign",
        "fusionkit.coefficients._fusion_plan",
        "fusionkit.involutions._pair_move",
    } <= caches.keys()
    for name, info in caches.items():
        assert info.maxsize is not None, name
    # a cache built inside a function is no module attribute, so read the source:
    # every lru_cache or cache in it must be called with an integer maxsize
    package = pathlib.Path(fusionkit.__file__).parent
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        bounded = {
            id(node.func)
            for node in nodes
            if isinstance(node, ast.Call)
            for size in node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if isinstance(size, ast.Constant) and type(size.value) is int
        }
        for node in nodes:
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("lru_cache", "cache"):
                assert id(node) in bounded, f"{path.name}:{node.lineno} has an unbounded {name}"


def test_no_unused_imports_or_private_names():
    # what a deleted helper leaves behind: an unused import or an unreferenced private
    # name, a public routine of the core layers that nothing exports or reads, a method
    # or property of a core class that nothing reads, a field of a core class that nothing
    # in src reads, or an export that nothing reads
    package = pathlib.Path(fusionkit.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referenced = set()
    for module, tree in trees.items():
        nodes = list(ast.walk(tree))
        loaded = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        referenced |= loaded | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        if module == "__init__":
            continue  # its imports are the public names
        for node in nodes:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in loaded, f"fusionkit.{module} imports {name} and never uses it"
    core = {"partitions", "paths", "words", "involutions", "coefficients"}
    exported = set(fusionkit.__all__)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    assert name in referenced, f"fusionkit.{module}.{name} is never referenced"
                elif module in core and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    assert name in exported | referenced, (
                        f"fusionkit.{module}.{name} is neither exported nor read in src"
                    )
    # a method is read as an attribute, in src or in the tests; a field in src, whether
    # annotated in the class body or named in the field string of a namedtuple(...) base
    def attributes(trees):
        return {n.attr for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)}

    tests = [ast.parse(path.read_text()) for path in pathlib.Path(__file__).parent.glob("*.py")]
    read, read_in_src = attributes([*trees.values(), *tests]), attributes(trees.values())
    unread, fields = [], set()
    for module in core:
        for cls in trees[module].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for base in cls.bases:
                if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
                    fields |= {(module, cls.name, f) for f in base.args[1].value.split()}
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    if node.name not in read:
                        unread.append(f"{module}.{cls.name}.{node.name}")
                elif isinstance(node, ast.AnnAssign):
                    fields.add((module, cls.name, node.target.id))
    unread += [f"{m}.{c}.{f}" for m, c, f in sorted(fields) if f not in read_in_src]
    assert not unread, f"nothing reads {unread}"
    # the field check sees every value type, so it cannot pass by finding no fields
    assert {c for _, c, _ in fields} >= {
        "FusionContext", "LatticePath", "PathTableau", "BracketWord", "SignedTerm"
    }
    # entry points for callers that src itself has no use for; the sweep applies
    # the classical involution through its private core, which builds no tableau,
    # and the tests walk every path of a composition and its block boundaries
    # (enumerate_paths, boundary_shapes) as references for strip_chains
    kept = {
        "count_paths", "is_border", "quotient", "path_from_label_blocks",
        "verify_restricted_path_identity", "psi", "canonical_violation", "path_to_tableau",
        "enumerate_paths", "boundary_shapes",
    }
    unread = sorted(exported - referenced - kept)
    assert not unread, f"fusionkit exports {unread}, which nothing in src reads"
