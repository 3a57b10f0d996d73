import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyclone"


def uncalled_helpers(src_dir: Path) -> list[str]:
    """Module-level functions and classes that the package does not export
    from `__init__` and that nothing else in the package references."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src_dir.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defs = []
    referenced = set()  # (name, id of the top-level statement that names it)
    for mod, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((mod, top))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    referenced.add((node.id, id(top)))
                elif isinstance(node, ast.Attribute):
                    referenced.add((node.attr, id(top)))
    users = {}
    for name, owner in referenced:
        users.setdefault(name, set()).add(owner)
    return sorted(
        f"{mod}:{top.name}"
        for mod, top in defs
        if top.name not in exported and not users.get(top.name, set()) - {id(top)}
    )


def test_every_helper_has_a_caller():
    # a helper used only by tests belongs in tests/, one used by nothing goes
    assert uncalled_helpers(SRC) == []


def test_uncalled_helper_scan_sees_references(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported(): return used()\n"
        "def used(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Orphan: pass\n"
        "def by_attribute(): pass\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nX = a.by_attribute\n")
    assert uncalled_helpers(tmp_path) == ["a.py:Orphan", "a.py:recursive"]


def exports_without_a_user(src_dir: Path, user_dirs: list[Path]) -> list[str]:
    """The names that the package `__init__` in src_dir exports and that no
    other module of the package, outside the name's own definition, and no
    module under `user_dirs` reads: as a name, as an attribute, or in a
    `from <package>... import`."""
    package = src_dir.name
    exported = {
        alias.asname or alias.name
        for node in ast.parse((src_dir / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    paths = [p for p in sorted(src_dir.glob("*.py")) if p.name != "__init__.py"]
    paths += [p for d in user_dirs for p in sorted(d.rglob("*.py"))]
    read = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)  # a recursive call is no user
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif (isinstance(node, ast.ImportFrom) and node.level == 0
                      and node.module.partition(".")[0] == package):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                read.update(name for name in names if name != own)
    return sorted(exported - read)


def test_every_export_has_a_user():
    # the package holds what its commands and the benchmark call; a name
    # only tests read is a test reference, and belongs in tests/oracles.py
    assert exports_without_a_user(SRC, [ROOT / "perfbench"]) == []


def test_unused_export_scan_sees_users(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "__init__.py").write_text(
        "from .a import by_module, by_attribute, by_import, recursive, orphan as alias\n"
    )
    (pkg / "a.py").write_text(
        "def by_module(): return 1\n"
        "def by_attribute(): pass\n"
        "def by_import(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def orphan(): pass\n"
    )
    (pkg / "b.py").write_text("from . import a\nX = a.by_attribute()\nY = by_module\n")
    (bench / "run.py").write_text("from pkg.a import by_import\nfrom other import alias\n")
    assert exports_without_a_user(pkg, [bench]) == ["alias", "recursive"]


def unpassed_defaults(src_dir: Path, user_dirs: list[Path]) -> list[str]:
    """The defaulted parameters of the module-level functions and methods of
    src_dir that no call in src_dir or under `user_dirs` passes, as
    "function(parameter)" or "Class.method(parameter)".  A call is matched
    by the name it calls (`__init__` by its class's name); it passes a
    parameter by position or by keyword, and a call with `*args` or
    `**kwargs` passes every parameter."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []  # (label, called name, arguments, leading parameters a call does not pass)
    for path in sorted(src_dir.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, functions):
                defs.append((top.name, top.name, top.args, 0))
            elif isinstance(top, ast.ClassDef):
                for f in top.body:
                    if isinstance(f, functions):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in f.decorator_list)
                        called = top.name if f.name == "__init__" else f.name
                        defs.append((f"{top.name}.{f.name}", called, f.args, 0 if static else 1))
    calls = {}  # called name -> (positional count, keywords) per call, None if starred
    paths = sorted(src_dir.glob("*.py")) + [p for d in user_dirs for p in sorted(d.rglob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(
                    node.func, "attr", None)
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    None if starred else (len(node.args), {k.arg for k in node.keywords}))
    found = []
    for label, called, args, skip in defs:
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = list(enumerate(positional))[len(positional) - len(args.defaults):]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None]
        for i, param in defaulted:
            if not any(c is None or i is not None and i - skip < c[0] or param in c[1]
                       for c in calls.get(called, [])):
                found.append(f"{label}({param})")
    return sorted(found)


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a constant with a second name
    assert unpassed_defaults(SRC, [ROOT / "perfbench"]) == []


def test_unpassed_default_scan_sees_calls(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "a.py").write_text(
        "def f(x, y=1, *, z=2): pass\n"
        "def g(x, y=1): pass\n"
        "def h(x=0): pass\n"
        "def star(x=0): pass\n"
        "def stars(x=0): pass\n"
        "class C:\n"
        "    def __init__(self, a, b=0): pass\n"
        "    def m(self, c=1, d=2): pass\n"
        "    @staticmethod\n"
        "    def s(e=3): pass\n"
        "    def unused(self, u=4): pass\n"
    )
    (pkg / "b.py").write_text(
        "from .a import C, f, g, star, stars\n"
        "f(1, z=3)\n"
        "g(1, 2)\n"
        "star(*())\n"
        "stars(**{})\n"
        "c = C(1)\n"
        "c.m(d=5)\n"
        "C.s(3)\n"
    )
    (bench / "run.py").write_text("from pkg.a import h\nh(x=1)\n")
    assert unpassed_defaults(pkg, [bench]) == ["C.__init__(b)", "C.m(c)", "C.unused(u)", "f(y)"]


def foreign_imports(src_dir: Path) -> list[str]:
    """Absolute imports of the modules in src_dir whose top-level package is
    not in the standard library."""
    found = []
    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    return found


def test_package_imports_only_the_standard_library():
    # verdicts must not hang on a third-party package: the package runs on
    # a bare interpreter
    assert foreign_imports(SRC) == []


def test_foreign_import_scan_sees_imports(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os, numpy.linalg\n"
        "from collections import deque\n"
        "from . import b\n"
        "def f():\n"
        "    from scipy import optimize\n"
    )
    assert foreign_imports(tmp_path) == ["a.py:numpy.linalg", "a.py:scipy"]


# prefixes of the builder's functions, which the certificate checker must
# not name: it re-derives what it trusts, so a builder bug cannot vouch for
# itself
BUILDER_PREFIXES = ("_certify", "_applications", "_ladder", "_build_schedule", "least_zero_bit",
                    "gen_", "congruence_", "chain_congruence_")


def checker_uses_of_builder(paths: list[Path]) -> list[str]:
    """The builder functions (top-level functions of `paths` named with a
    builder prefix) that `check_certificate*` or a `_ck_*` function of
    `paths` names, as "checker:builder"."""
    tops = [top for path in paths for top in ast.parse(path.read_text()).body
            if isinstance(top, ast.FunctionDef)]
    builder = {top.name for top in tops if top.name.startswith(BUILDER_PREFIXES)}
    found = set()
    for top in tops:
        if top.name.startswith(("check_certificate", "_ck_")):
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in builder:
                    found.add(f"{top.name}:{name}")
    return sorted(found)


def test_checker_shares_no_construction_code():
    assert checker_uses_of_builder([SRC / "trace.py", SRC / "structures.py"]) == []


def test_builder_use_scan_sees_names(tmp_path):
    (tmp_path / "s.py").write_text("def congruence_a(n): pass\ndef gen_s(n): pass\n")
    (tmp_path / "t.py").write_text(
        "def _certify(n): return gen_s(n)\n"
        "def _ladder_vector(n): pass\n"
        "def _ck_model(c): return _ladder_vector(c.n) + s.congruence_a(c.congruence_blocks)\n"
        "def check_certificate(c): return _ck_model(c) or _certify\n"
        "def certify(n): return _certify(n)\n"
    )
    assert checker_uses_of_builder([tmp_path / "t.py", tmp_path / "s.py"]) == [
        "_ck_model:_ladder_vector", "_ck_model:congruence_a", "check_certificate:_certify",
    ]


# builtins that iterate their argument
ITERATING_CALLS = {"all", "any", "dict", "enumerate", "filter", "frozenset", "iter", "list",
                   "map", "max", "min", "set", "sorted", "sum", "tuple", "zip"}


def checker_iterations_of_relations(paths: list[Path]) -> list[str]:
    """The places, as "function:line", where `check_certificate*` or a
    `_ck_*` function of `paths` iterates something named `relations`: a
    call of its `values`, `items` or `keys`, a `for` or comprehension over
    it, an iterating builtin applied to it, or an unpacking of it."""

    def is_relations(node) -> bool:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name == "relations"

    found = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            if not (isinstance(top, ast.FunctionDef)
                    and top.name.startswith(("check_certificate", "_ck_"))):
                continue
            for node in ast.walk(top):
                if isinstance(node, (ast.For, ast.comprehension)):
                    iterated = [node.iter]
                elif isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute) and func.attr in ("values", "items", "keys"):
                        iterated = [func.value]
                    elif isinstance(func, ast.Name) and func.id in ITERATING_CALLS:
                        iterated = node.args
                    else:
                        iterated = []
                elif isinstance(node, ast.Starred):
                    iterated = [node.value]
                elif isinstance(node, ast.Dict):
                    iterated = [v for k, v in zip(node.keys, node.values) if k is None]
                else:
                    iterated = []
                found.update((top.name, x.lineno) for x in iterated if is_relations(x))
    return [f"{name}:{line}" for name, line in sorted(found, key=lambda f: f[1])]


def test_checker_reads_relations_by_name_only():
    # the checker reads the level relations and each application's target by
    # name, so a check never builds the unary relations a family holds lazily
    assert checker_iterations_of_relations([SRC / "trace.py"]) == []


def test_relation_iteration_scan_sees_loops(tmp_path):
    (tmp_path / "t.py").write_text(
        "def _ck_values(s): return [r for r in s.relations.values()]\n"
        "def _ck_loop(s):\n"
        "    for name in s.relations:\n"
        "        pass\n"
        "def check_certificate(s): return sorted(s.relations.items())\n"
        "def _ck_keys(relations): return {k for k in relations.keys()}\n"
        "def _ck_by_name(s, t): return s.relations.get(t), s.relations['S0'], len(s.relations)\n"
        "def _ck_comprehension(s): return {n: 1 for n in s.relations}\n"
        "def _ck_unpacked(s): return [*s.relations], {**s.relations}, list(s.relations)\n"
        "def builder(s): return list(s.relations.values())\n"
    )
    assert checker_iterations_of_relations([tmp_path / "t.py"]) == [
        "_ck_values:1", "_ck_loop:3", "check_certificate:5", "_ck_keys:6",
        "_ck_comprehension:8", "_ck_unpacked:9",
    ]


def unbounded_caches(src_dir: Path) -> list[str]:
    """The caches in the modules of src_dir that have no bound, as
    "file:line": a bare `lru_cache` or `cache` decorator, or a call of
    `lru_cache` with maxsize None."""
    found = []

    def name(node) -> str | None:
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found += [
                    f"{path.name}:{d.lineno}"
                    for d in node.decorator_list
                    if name(d) in ("lru_cache", "cache")
                ]
            elif isinstance(node, ast.Call) and name(node.func) == "lru_cache":
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_cache_is_bounded():
    # a process may check many structures and certificates in a row: what a
    # cache keeps must not grow with them
    assert unbounded_caches(SRC) == []


def test_unbounded_cache_scan_sees_caches(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache\n"
        "def bare(): pass\n"
        "@functools.cache\n"
        "def whole(): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def unbounded(): pass\n"
        "@functools.lru_cache(None)\n"
        "def positional(): pass\n"
        "@lru_cache(maxsize=64)\n"
        "def bounded(): pass\n"
        "@lru_cache()\n"
        "def default(): pass\n"
        "wrapped = lru_cache(maxsize=None)(len)\n"
        "class Keeper:\n"
        "    @functools.lru_cache(maxsize=None, typed=True)\n"
        "    def method(self): pass\n"
        "    @functools.lru_cache(4)\n"
        "    def small(self): pass\n"
    )
    (tmp_path / "b.py").write_text("cache = {}\ndef f(x): return cache.get(x)\n")
    assert unbounded_caches(tmp_path) == ["a.py:3", "a.py:5", "a.py:7", "a.py:9", "a.py:15",
                                          "a.py:17"]


def cached_functions(src_dir: Path) -> list[str]:
    """Every cached function in the modules of src_dir, bounded or not, as
    "file:name": one decorated with `lru_cache`, `cache` or `cached_property`,
    bare or called, or a name bound to a function wrapped by one of them."""
    found = []
    caching = ("lru_cache", "cache", "cached_property")

    def name(node) -> str | None:
        if isinstance(node, ast.Call):
            node = node.func
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(name(d) in caching for d in node.decorator_list):
                    found.append(f"{path.name}:{node.name}")
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and name(node.value.func) in caching):
                found += [f"{path.name}:{t.id}" for t in node.targets if isinstance(t, ast.Name)]
    return sorted(found)


def test_only_the_checker_caches():
    # every other build runs at most once per command, so a new cache must
    # show traffic that repeats, and join this list
    assert cached_functions(SRC) == ["trace.py:_ck_accepted", "trace.py:_ck_levels"]


def test_cached_function_scan_sees_caches(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@lru_cache\n"
        "def bare(): pass\n"
        "@functools.cache\n"
        "def whole(): pass\n"
        "@lru_cache(maxsize=64)\n"
        "def bounded(): pass\n"
        "wrapped = lru_cache(maxsize=None)(len)\n"
        "class Keeper:\n"
        "    @functools.lru_cache(4)\n"
        "    def method(self): pass\n"
        "    @cached_property\n"
        "    def kept(self): pass\n"
        "def plain(): pass\n"
        "cache = {}\n"
        "held = cache.get(1)\n"
    )
    assert cached_functions(tmp_path) == ["a.py:bare", "a.py:bounded", "a.py:kept",
                                          "a.py:method", "a.py:whole", "a.py:wrapped"]


ENVIRONMENT_NAMES = ("environ", "environb", "getenv", "getenvb")


def environment_reads(src_dir: Path) -> list[str]:
    """The places, as "file:line", where a module of src_dir reads the
    environment: an attribute named `environ` or `getenv` (as in
    `os.environ`), or one of them imported from `os`."""
    found = []
    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                hit = node.attr in ENVIRONMENT_NAMES
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                hit = any(alias.name in ENVIRONMENT_NAMES for alias in node.names)
            else:
                hit = False
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_package_reads_no_environment_variable():
    # every input is an argument: the same command gives the same output
    # and exit code in every shell
    assert environment_reads(SRC) == []


def test_environment_scan_sees_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "from os import getenv, path\n"
        "from os import environ as env\n"
        "a = os.environ['X']\n"
        "b = os.getenv('Y')\n"
        "c = os.environ.get('Z')\n"
        "d = os.path.join(os.devnull, 'e')\n"
    )
    assert environment_reads(tmp_path) == ["a.py:2", "a.py:3", "a.py:4", "a.py:5", "a.py:6"]


# methods of random.Random that draw from the generator
DRAWS = {"getrandbits", "randrange", "randint", "randbytes", "random", "choice", "choices",
         "sample", "shuffle", "uniform"}


def drawing_functions(src_dir: Path) -> list[str]:
    """The functions of the modules in src_dir that draw from a random
    generator, as "file:function" (methods as "file:Class.method"): those
    that read an attribute named after a draw method of `random.Random`,
    or call a name so named."""
    found = []
    for path in sorted(src_dir.glob("*.py")):
        funcs = []
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs.append((top.name, top))
            elif isinstance(top, ast.ClassDef):
                funcs += [(f"{top.name}.{f.name}", f) for f in top.body
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for name, func in funcs:
            if any(isinstance(node, ast.Attribute) and node.attr in DRAWS
                   or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in DRAWS
                   for node in ast.walk(func)):
                found.append(f"{path.name}:{name}")
    return found


def test_one_function_draws():
    # a seed names its samples only while every draw goes through one
    # routine, as every row tally goes through one
    assert drawing_functions(SRC) == ["witness.py:floyd_cuts"]


def test_drawing_function_scan_sees_draws(tmp_path):
    (tmp_path / "a.py").write_text(
        "import random\n"
        "from random import shuffle\n"
        "def bound(rng):\n"
        "    bits = rng.getrandbits\n"
        "    return bits(3)\n"
        "def direct(rng): return rng.randrange(5)\n"
        "def imported(xs): shuffle(xs)\n"
        "def seeded(seed): return random.Random(seed)\n"
        "class Sampler:\n"
        "    def pick(self, xs): return self.rng.choice(xs)\n"
        "    def size(self): return len(self.xs)\n"
        "def keyword(p): p.add_argument('x', choices=[1, 2])\n"
    )
    assert drawing_functions(tmp_path) == ["a.py:bound", "a.py:direct", "a.py:imported",
                                           "a.py:Sampler.pick"]
