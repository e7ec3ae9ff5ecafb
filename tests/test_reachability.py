"""Reachability rule (ROADMAP item 3c): every module under ``src/``
is reachable from the CLI, the trace analyzer, an example or a
benchmark — code that only its own unit test imports is a liability.

The walk is pure ``ast`` (it imports and executes nothing).  A package
``__init__`` is a namespace, not an edge: ``from repro.fed import
Photon`` reaches the module that *defines* ``Photon``, not everything
``repro/fed/__init__.py`` happens to re-export.
"""

from __future__ import annotations

import ast
import importlib
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.obs.analyze")
SCRIPTS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/**/*.py")])


def path_of(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    return next((p for p in (base.with_suffix(".py"), base / "__init__.py")
                 if p.is_file()), None)


@cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def source_of(node: ast.ImportFrom, module: str, path: Path) -> str:
    """Absolute name of the module an ``ImportFrom`` reads."""
    if not node.level:
        return node.module
    package = module.split(".")
    package = package[:len(package) - node.level + (path.name == "__init__.py")]
    return ".".join(package + ([node.module] if node.module else []))


def reexports(module: str) -> dict[str, tuple[str, str]]:
    """Top-level names ``module`` takes from elsewhere, as ``(source
    module, source name)``: from-imports and plain ``A = B`` aliases."""
    path, names = path_of(module), {}
    for node in parse(path).body:
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                names[a.asname or a.name] = (source_of(node, module, path), a.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            names.update({t.id: (module, node.value.id) for t in node.targets})
    return names


def origin(module: str, name: str) -> str:
    """The module ``from <module> import <name>`` really reaches: a
    submodule, or — through a package's re-exports — the definer."""
    if path_of(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    path = path_of(module)
    if path is None or path.name != "__init__.py" or name not in reexports(module):
        return module
    return origin(*reexports(module)[name])


def imports(path: Path, module: str):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = source_of(node, module, path)
            if source.split(".")[0] == "repro" and path_of(source) is not None:
                yield from (origin(source, a.name) for a in node.names)


def test_every_module_is_reachable():
    frontier = list(ENTRY_MODULES)
    for script in SCRIPTS:  # also proves every example/benchmark parses
        frontier.extend(imports(script, ""))
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        path = path_of(module) if module.split(".")[0] == "repro" else None
        if path is None or module in reached:
            continue
        reached.add(module)
        if path.name != "__init__.py":  # a package is a namespace, not an edge
            frontier.extend(imports(path, module))
    modules = {".".join(p.relative_to(SRC).with_suffix("").parts)
               for p in SRC.rglob("*.py") if p.name != "__init__.py"}
    orphans = sorted(modules - reached)
    assert not orphans, (
        f"reachable only from their own tests — wire in or delete: {orphans}")


def test_every_exported_name_resolves():
    for init in SRC.rglob("__init__.py"):
        package = importlib.import_module(".".join(init.parent.relative_to(SRC).parts))
        missing = [n for n in getattr(package, "__all__", []) if not hasattr(package, n)]
        assert not missing, f"{package.__name__}.__all__ names unbound {missing}"


def exported(path: Path) -> list[str]:
    """The module's literal ``__all__`` (empty when it has none)."""
    for node in parse(path).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_is_mentioned():
    """The name-level rule: a non-``__init__`` module's ``__all__``
    entry is mentioned somewhere in ``src/``, ``tests/``,
    ``benchmarks/``, ``examples/`` or the README besides its own
    definition, its ``__all__`` line and ``__init__`` re-exports — an
    export nothing reads is dead weight with a public name."""
    files = [p for d in ("src", "tests", "benchmarks", "examples")
             for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"]
    words = {p: re.findall(r"\w+", p.read_text())
             for p in [*files, ROOT / "README.md"]}
    dead = []
    for path in SRC.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for name in exported(path):
            # Its own module spends two mentions on exporting it.
            mentions = sum(w.count(name) - 2 * (p == path)
                           for p, w in words.items())
            if mentions < 1:
                dead.append(f"{path.relative_to(SRC)}:{name}")
    assert not dead, f"exported but never mentioned — use or delete: {sorted(dead)}"


def test_one_tree_serializer():
    """Bytes <-> state tree is ``utils/serialization.py``'s job alone: a
    fourth serializer (npz, an in-memory file) cannot quietly return."""
    for path in SRC.rglob("*.py"):
        hits = [w for w in ("savez", "np.load(", "BytesIO") if w in path.read_text()]
        assert not hits, f"{path.relative_to(ROOT)} brings back {hits}"


def test_one_client_control_plane():
    """Selection, ranking, the factor gather and the client lease each
    have one definition: a second scheduler, wall-time model or client
    registry cannot quietly return beside the first."""
    owners: dict[str, list[str]] = {}
    for path in SRC.rglob("*.py"):
        for cls in ast.walk(parse(path)):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        owners.setdefault(node.name, []).append(cls.name)
    forked = {name: owners.get(name, [])
              for name in ("select_async", "select_cohort", "_rank",
                           "_factor_arrays", "lease")
              if len(owners.get(name, [])) != 1}
    assert not forked, f"each has exactly one home, but: {forked}"



def test_one_training_decoder_and_one_incremental():
    """A decoder forward is where attention is called from.  The shared
    attention forward has two call sites — its autograd binding
    (``ops.causal_attention``, itself called only by
    ``CausalSelfAttention`` under ``DecoderLM``) and the incremental
    decoder's ``_step``: a third forward — the stacked plane once
    carried its own — cannot reappear unnoticed."""
    callers: dict[str, list[str]] = {"causal_attention": [], "attention_forward": []}
    for path in SRC.rglob("*.py"):
        for scope in ast.walk(parse(path)):
            if isinstance(scope, ast.FunctionDef):
                for node in ast.walk(scope):
                    name = isinstance(node, ast.Call) and getattr(
                        node.func, "attr", getattr(node.func, "id", None))
                    if name in callers:
                        callers[name].append(
                            f"{path.relative_to(SRC)}:{scope.name}")
    assert {name: sorted(sites) for name, sites in callers.items()} == {
        "causal_attention": ["repro/nn/attention.py:forward"],
        "attention_forward": ["repro/nn/inference.py:_step",
                              "repro/tensor/ops.py:causal_attention"]}


def test_the_model_layer_holds_no_arithmetic_of_its_own():
    """Softmax, log-softmax and sampling under ``nn/`` go through
    ``tensor/kernels.py``: an inline ``np.exp(`` is how a second
    definition starts."""
    hits = [str(path.relative_to(SRC)) for path in (SRC / "repro/nn").rglob("*.py")
            if "np.exp(" in path.read_text()]
    assert not hits, f"np.exp( under nn/ — call the kernel instead: {hits}"


def test_every_bound_backward_is_a_named_kernel():
    """Each ``Tensor._make`` in ``tensor/ops.py`` and in ``Tensor.gelu``
    hands the graph a closure whose body calls ``kernels.<op>_backward``:
    a backward pass that exists only as an anonymous closure is one no
    profiler, test or ledger span can name.  (``dropout`` is one mask,
    not a kernel.)"""
    tensor = SRC / "repro/tensor"
    gelu = next(n for n in ast.walk(parse(tensor / "autograd.py"))
                if isinstance(n, ast.FunctionDef) and n.name == "gelu")
    bindings = [gelu] + [
        n for n in parse(tensor / "ops.py").body
        if isinstance(n, ast.FunctionDef) and n.name != "dropout" and any(
            isinstance(c, ast.Call) and getattr(c.func, "attr", None) == "_make"
            for c in ast.walk(n))]
    assert len(bindings) >= 8
    anonymous = []
    for binding in bindings:
        closures = [n for n in binding.body
                    if isinstance(n, ast.FunctionDef) and n.name == "backward"]
        named = [c.func.attr for closure in closures for c in ast.walk(closure)
                 if isinstance(c, ast.Call)
                 and getattr(c.func, "attr", "").endswith("_backward")
                 and getattr(c.func.value, "id", None) == "kernels"]
        if len(closures) != 1 or len(named) != 1:
            anonymous.append(binding.name)
    assert not anonymous, f"backward is not one kernels.*_backward call: {anonymous}"
